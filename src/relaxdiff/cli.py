"""Batch entry point: `relaxdiff <mode> --config <path> [...]`.

Modes:
  simulate        march to the horizon, writing diagnostics.csv and snapshots
  converge        step-size (and optionally mesh) refinement study
  cross-validate  semi-implicit vs fully implicit discrepancy study
  invariants      per-step invariant audit with machine-readable output

Exit status 0 means every check passed, 1 means a numerical failure or a
violated invariant (with a message naming step and species), 2 means the
configuration was rejected. A run that stops early says why on a last stderr
line that starts with `error: ` (exit 1) or `config error: ` (exit 2). All
state lives in the config file plus the optional --seed/--output-dir
overrides, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fixedpoint, stepper
from .config import RunConfig, parse_config
from .diagnostics import CSV_HEADER, CheckTolerances, check_step, format_number, invariant_rows
from .errors import ConfigError, RelaxdiffError
from .snapshots import write_snapshot
from .stepper import w_increment_residual


def _output_dir(cfg: RunConfig) -> Path:
    outdir = Path(cfg.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {cfg.output_dir!r}: {exc}") from exc
    return outdir


def run_simulate(cfg: RunConfig) -> int:
    """Full run with per-step invariant enforcement and file outputs."""
    model = cfg.model
    outdir = _output_dir(cfg)
    g = model.grid
    tolerances = CheckTolerances.from_linear_tol(cfg.scheme.linear_tol)
    initial_masses = [g.integral(row) for row in model.initial_data]

    diag_path = outdir / "diagnostics.csv"
    with open(diag_path, "w", newline="\n") as diag:
        diag.write(CSV_HEADER + "\n")

        def on_step(k, before, after, records):
            for row in records:
                diag.write(row.to_csv_row() + "\n")
            diag.flush()
            failed = check_step(before, records, tolerances, initial_masses)
            if failed:
                entries = (f"species {sp}: {check} {value!r} > {threshold!r}"
                           for sp, check, value, threshold in failed)
                raise RelaxdiffError(f"invariant violation: step {k} (t = {after.time!r}): "
                                     + "; ".join(entries))

        def on_snapshot(k, state):
            write_snapshot(outdir / f"snap_{k}.fld", g, state.u, state.time)

        stepper.run(model, cfg.scheme, on_step=on_step, on_snapshot=on_snapshot)

    if stepper.plan_steps(cfg.scheme.tau, cfg.scheme.horizon)[1] != cfg.scheme.tau:
        print("note: final step shortened to land on the horizon", file=sys.stderr)
    return 0


def _check_finest_step(cfg: RunConfig) -> None:
    """Reject a refinement study whose finest step tau / 2^halvings is invalid.

    1 / tau and horizon / tau only grow as tau halves, so that level binds.
    """
    try:
        replace(cfg.scheme, tau=math.ldexp(cfg.scheme.tau, -cfg.halvings))
    except ValueError as exc:
        raise ConfigError(f"[run] halvings = {cfg.halvings} makes the finest step "
                          f"invalid: {exc}") from exc


_DEGENERATE_FLOOR = 1e-13
# each study's name in messages and the band its fitted order must lie in
_STUDIES = {"tau": ("temporal", (0.8, 1.3)), "h": ("spatial", (1.6, 2.4))}


def _study(lines: list[str], study: str, steps: list[float], diffs: list[float],
           scale: float) -> bool:
    """Append one study's converge.csv rows and fitted order; False when it leaves its band.

    `steps[k]` is level k's step or spacing and `diffs[k]` its difference to
    level k + 1. The study is degenerate, and fits no order, unless every
    difference is above _DEGENERATE_FLOOR * scale.
    """
    label, (low, high) = _STUDIES[study]
    for k, d in enumerate(diffs):
        order = ""
        if k > 0 and d > 0 and diffs[k - 1] > 0:
            order = format_number(np.log2(diffs[k - 1] / d))
        lines.append(f"{study},{k},{format_number(steps[k])},{format_number(d)},{order}")
    if not all(d > _DEGENERATE_FLOOR * scale for d in diffs):
        print(f"{label} study degenerate (zero differences)", file=sys.stderr)
        return True
    # order p from successive differences d_k ~ C * 2^(-p k)
    order = float(-np.polyfit(np.arange(len(diffs)), [np.log2(d) for d in diffs], 1)[0])
    lines.append(f"{study}_fit,,,,{format_number(order)}")
    if low <= order <= high:
        return True
    print(f"{label} order {order:.3f} outside [{low}, {high}]", file=sys.stderr)
    return False


def run_converge(cfg: RunConfig) -> int:
    """Refinement study; exits 0 when the fitted orders are in the expected bands."""
    if cfg.halvings < 2:  # one difference fits no order, so nothing would be checked
        raise ConfigError("[run] halvings must be at least 2 for converge")
    _check_finest_step(cfg)

    grids = [cfg.grid]
    if cfg.spatial:  # a refined grid the kernels cannot serve is rejected before any run
        try:
            grids += [cfg.grid.refined(), cfg.grid.refined().refined()]
        except ValueError as exc:
            raise ConfigError(f"[grid] refined for the spatial study: {exc}") from exc
    # so are file: and random: data, which cannot be rebuilt on a refined grid
    refined = [cfg.build_model(g) for g in grids[1:]]

    # opened before the study, so an unwritable file costs no run, and a
    # failed study leaves the header
    with open(_output_dir(cfg) / "converge.csv", "w", newline="\n") as out:
        out.write("study,level,step,diff_inf,order_estimate\n")
        lines = []
        taus = [math.ldexp(cfg.scheme.tau, -k) for k in range(cfg.halvings + 1)]
        finals = [stepper.run(cfg.model, replace(cfg.scheme, tau=tau)) for tau in taus]
        diffs = [float(np.max(np.abs(a.u - b.u))) for a, b in zip(finals, finals[1:])]
        scale = max(1.0, float(np.max(np.abs(finals[0].u))))
        ok = _study(lines, "tau", taus, diffs, scale)

        if cfg.spatial:
            # level 0 is the temporal study's first run
            states = finals[:1] + [stepper.run(m, cfg.scheme) for m in refined]
            sdiffs = [max(float(np.max(np.abs(x - fine.coarsen(y)))) for x, y in zip(a.u, b.u))
                      for a, b, fine in zip(states, states[1:], grids[1:])]
            ok = _study(lines, "h", [g.spacing[0] for g in grids], sdiffs, scale) and ok

        out.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def run_cross_validate(cfg: RunConfig) -> int:
    """Two-path discrepancy study; exits 0 when the gap shrinks with tau."""
    model = cfg.model
    if not model.lipschitz:
        raise ConfigError(
            "cross-validate requires locally Lipschitz coefficients "
            "(polynomial family: p >= 1); this model is not flagged as such"
        )
    _check_finest_step(cfg)
    # opened before the study, so an unwritable file costs no run, and a
    # failed study leaves the header
    with open(_output_dir(cfg) / "crossval.csv", "w", newline="\n") as out:
        out.write("tau,discrepancy,sweeps\n")
        report = fixedpoint.cross_validate(model, cfg.scheme, cfg.halvings)
        for row in report.rows:
            out.write(f"{format_number(row.tau)},{format_number(row.discrepancy)},"
                      f"{row.sweeps}\n")
    if report.passed():
        return 0
    ratios = ", ".join(f"{r:.2f}" for r in report.shrink_ratios())
    print(f"discrepancy did not shrink by {fixedpoint.MIN_SHRINK_RATIO}x per halving "
          f"(ratios: {ratios})", file=sys.stderr)
    return 1


def run_invariants(cfg: RunConfig) -> int:
    """Audit run: every per-step invariant, written as machine-readable rows."""
    model = cfg.model
    outdir = _output_dir(cfg)
    tolerances = CheckTolerances.from_linear_tol(cfg.scheme.linear_tol)
    initial_masses = [model.grid.integral(row) for row in model.initial_data]
    n_steps, _ = stepper.plan_steps(cfg.scheme.tau, cfg.scheme.horizon)
    identity_stride = max(1, n_steps // 8)
    failures = [0]

    path = outdir / "invariants.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("step,species,check,value,threshold,status\n")

        def on_step(k, before, after, records):
            rows = invariant_rows(before, records, tolerances, initial_masses)
            if k % identity_stride == 0:
                residual = w_increment_residual(model, before, after, cfg.scheme.linear_tol)
                rows.append((0, "w_identity_residual", residual, 100 * cfg.scheme.linear_tol))
            for species, check, value, threshold in rows:
                status = "pass" if value <= threshold else "fail"
                failures[0] += status == "fail"
                fh.write(f"{k},{species},{check},{format_number(value)},"
                         f"{format_number(threshold)},{status}\n")
            fh.flush()

        stepper.run(model, cfg.scheme, on_step=on_step)

    if failures[0]:
        print(f"{failures[0]} invariant check(s) failed; see {path}", file=sys.stderr)
        return 1
    return 0


_DISPATCH = {
    "simulate": run_simulate,
    "converge": run_converge,
    "cross-validate": run_cross_validate,
    "invariants": run_invariants,
}


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaxdiff",
        description="Finite-volume simulator for relaxed cross-diffusion systems",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in _DISPATCH:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--output-dir", default=None, help="override [run] output_dir")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(_read_config(args.config), seed=args.seed,
                           output_dir=args.output_dir)
        if cfg.mode != args.mode:
            print(
                f"note: config sets mode = {cfg.mode}, running {args.mode} as requested",
                file=sys.stderr,
            )
        return _DISPATCH[args.mode](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RelaxdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reading the config and init files raises ConfigError instead
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
