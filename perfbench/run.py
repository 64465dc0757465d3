"""relaxdiff benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload sim2d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print every metric
by name and unit next to the machine facts. `--trace 0` reports the
end-to-end metrics and `--trace 1` the per-layer ones. `--workload all` runs
every workload in its own process and prints a summary table.

Each workload is a closed loop with one client: a run of the CLI mode starts
only after the previous one has ended, in this single process, with
`workers = 1`. The seed only shapes the initial fields, which the program
receives as `init = file:` data; the program never sees the seed. The package
is imported from `src/` and driven only through `config.parse_config` and
`cli.run_<mode>`; layers are timed from outside (see `tracer.py`). Work files
go to `perfbench/.work/` and are removed at exit, except the span dump of a
traced run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: the baseline is single-threaded
# (workers = 1), and OpenBLAS's threaded dot products on 128x128 fields were
# slower than one thread on a 2-core machine and added run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracer import Tracer, write_traces  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = Path(__file__).resolve().parent / ".work"

LINEAR_TOL = 1e-10  # the config default, which every workload keeps
SETUP_RUNS = 7  # least number of fresh-process set-ups; setup_s is their median
MIN_REPS = 3  # untraced runs per invocation, however short --seconds is
MIN_CYCLES = 2  # least number of traced cycles per invocation
AUDIT_STEPS = 3  # horizon of the invariants audit, in steps of tau
MIN_SHRINK = 1.5  # cross-validate's pass rule, re-checked from crossval.csv


@dataclasses.dataclass(frozen=True)
class Workload:
    mode: str
    cells: tuple[int, ...]
    delta: float
    p: float
    tau: float
    horizon: float
    output_stride: int = 1
    halvings: int = 2

    @property
    def n_cells(self) -> int:
        return math.prod(self.cells)

    @property
    def steps(self) -> int:
        """Time steps one run takes; cross-validate runs both paths per level."""
        if self.mode == "simulate":
            return round(self.horizon / self.tau)
        return 2 * sum(round(self.horizon * 2**k / self.tau) for k in range(self.halvings + 1))


# Two species, a_1 = 0.05 + v_2^p and a_2 = 0.05 + v_1^p, on the unit square
# or interval. Why each workload exists is recorded in perfbench/NOTES.md.
# BENCHMARK.json gates sim2d and xval1d only: series2d, which is bound by
# interpreter overhead, spread by up to 0.29 of its median across runs on a
# shared 2-core machine, more than the largest bound a gate may have.
WORKLOADS = {
    "sim2d": Workload("simulate", (128, 128), delta=0.01, p=1.0, tau=0.01,
                      horizon=0.1, output_stride=10),
    "series2d": Workload("simulate", (32, 32), delta=0.001, p=1.0, tau=0.001,
                         horizon=0.1, output_stride=1),
    "xval1d": Workload("cross-validate", (128,), delta=0.01, p=2.0, tau=0.02,
                       horizon=0.04, halvings=2),
}
BASE, COUPLING = 0.05, 1.0
PROFILE_AMPLITUDE, PERTURBATION = 0.25, 0.03

# Layers each mode must exercise: a zero here fails the traced run, so a
# rename or an import change cannot silently drop a layer from the numbers.
REQUIRED = {
    "common": ("config.parse_s", "grid.laplacian.calls", "sparse.cg.implicit.solves",
               "sparse.cg.regularize.solves", "model.coefficient_fields.calls",
               "stepper.initial_state.s", "stepper.step.count",
               "stepper.workers2_step_ms_p50", "diagnostics.w_increment_residual.s"),
    "simulate": ("diagnostics.step_records.s", "diagnostics.check_step.s",
                 "snapshots.write.count"),
    "cross-validate": ("fixedpoint.picard.steps", "fixedpoint.semi.s"),
}

CG_SPANS = {"_ImplicitStepOperator": "sparse.cg.implicit",
            "_ResolventOperator": "sparse.cg.regularize"}
STEP_SPANS = ("stepper.step", "fixedpoint.semi_step")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import relaxdiff
with open(sys.argv[2]) as fh:
    relaxdiff.parse_config(fh.read())
print(repr(time.perf_counter() - t0))
"""


def initial_fields(wl: Workload, seed: int) -> list[np.ndarray]:
    """Two nonnegative fields: mirrored cosine profiles plus a seeded perturbation.

    The fixed profile keeps CG iterations and Picard sweeps within a few
    percent across seeds, so the spread of a timing measures the machine and
    not the input; the smooth perturbation (modes 2..4 per axis) makes every
    seed's input distinct. Values lie in [1 - 0.28, 1 + 0.28].
    """
    rng = np.random.default_rng(seed)
    axes = [(np.arange(n) + 0.5) / n for n in wl.cells]
    coords = np.meshgrid(*axes[::-1], indexing="ij")[::-1]  # first axis fastest
    profile = np.prod([np.cos(np.pi * x) for x in coords], axis=0)
    fields = []
    for sign in (1.0, -1.0):
        perturbation = np.zeros_like(profile)
        for k in np.ndindex(*(5,) * len(wl.cells)):
            if max(k) >= 2:
                mode = np.prod([np.cos(np.pi * kk * x) for kk, x in zip(k, coords)], axis=0)
                perturbation += rng.standard_normal() / (1 + sum(kk * kk for kk in k)) * mode
        perturbation /= np.max(np.abs(perturbation))
        u = 1.0 + sign * PROFILE_AMPLITUDE * profile + PERTURBATION * perturbation
        fields.append(u.reshape(-1))
    return fields


def config_text(wl: Workload, init_paths, output_dir: Path, *, mode: str | None = None,
                horizon: float | None = None) -> str:
    lines = ["[grid]", f"dims = {len(wl.cells)}"]
    for axis, n in enumerate(wl.cells, start=1):
        lines += [f"n{axis} = {n}", f"h{axis} = {1.0 / n!r}"]
    for i, path in enumerate(init_paths, start=1):
        d1, d2 = (0.0, COUPLING) if i == 1 else (COUPLING, 0.0)
        lines += ["", f"[species.{i}]", f"delta = {wl.delta!r}", "coeff = skt",
                  f"d = {BASE!r}", f"d_1 = {d1!r}", f"d_2 = {d2!r}", f"p = {wl.p!r}",
                  f"init = file:{path}"]
    lines += ["", "[scheme]", f"tau = {wl.tau!r}", f"T = {horizon or wl.horizon!r}",
              f"linear_tol = {LINEAR_TOL!r}", f"output_stride = {wl.output_stride}",
              "workers = 1",
              "", "[run]", f"mode = {mode or wl.mode}", f"output_dir = {output_dir}",
              f"halvings = {wl.halvings}"]
    return "\n".join(lines) + "\n"


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown",
             "python": platform.python_version(), "numpy": np.__version__,
             "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"L{level}"] = (index / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return facts


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def invoke(runner, cfg, tracer: Tracer | None, span: str):
    """Run one CLI mode; an exception escaping it becomes a failed exit status."""
    try:
        if tracer is None:
            return runner(cfg)
        with tracer.span(span):
            return runner(cfg)
    except Exception:  # a crashing program is reported as a failed check
        traceback.print_exc()
        return "an exception"


class Checks:
    """Correctness checks, all made outside the timed region."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Bench:
    def __init__(self, name: str, wl: Workload, seed: int, work: Path):
        import relaxdiff
        import relaxdiff.cli

        self.rd = relaxdiff
        self.name, self.wl, self.work = name, wl, work
        self.checks = Checks()
        self.reference: dict[str, str] | None = None
        self.fields = initial_fields(wl, seed)
        self.init_paths = []
        for i, values in enumerate(self.fields, start=1):
            path = work / f"init_{i}.txt"
            np.savetxt(path, values, fmt="%.17g")
            self.init_paths.append(path.resolve())
        self.cfg_path = work / "run.cfg"
        self.cfg_path.write_text(config_text(wl, self.init_paths, work / "out"))
        measure = 1.0 / wl.n_cells
        self.initial_masses = [measure * float(np.sum(f)) for f in self.fields]

    def setup_once(self) -> float:
        """Import + init-file load + parse_config, timed inside a fresh process."""
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.cfg_path)],
            capture_output=True, text=True, timeout=120, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    def parse(self, text: str | None = None):
        return self.rd.parse_config(text or self.cfg_path.read_text())

    def rep(self, cfg, tracer: Tracer | None = None) -> float:
        """One closed-loop run of the workload's CLI mode; returns its wall time."""
        out = Path(cfg.output_dir)
        shutil.rmtree(out, ignore_errors=True)
        runner = getattr(self.rd.cli, "run_" + self.wl.mode.replace("-", "_"))
        start = time.perf_counter()
        rc = invoke(runner, cfg, tracer, "cli." + self.wl.mode)
        wall = time.perf_counter() - start
        self.check_outputs(out, rc)
        return wall

    def check_outputs(self, out: Path, rc: int) -> None:
        check = self.checks.check
        check(rc == 0, f"exit status {rc}")
        try:
            hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.iterdir())}
            if self.reference is None:
                self.reference = hashes
            else:
                check(hashes == self.reference, "outputs differ from the first run's bytes")
            if self.wl.mode == "simulate":
                self.check_simulate(out)
            else:
                self.check_crossval(out)
        except (OSError, ValueError, KeyError, IndexError, self.rd.RelaxdiffError) as exc:
            check(False, f"outputs unreadable: {exc!r}")

    def check_simulate(self, out: Path) -> None:
        check = self.checks.check
        with open(out / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        n_species = len(self.fields)
        check(len(rows) == self.wl.steps * n_species, f"{len(rows)} diagnostics rows")
        slack = -10 * LINEAR_TOL
        check(all(abs(float(r["mass_u"]) - self.initial_masses[int(r["species"]) - 1])
                  <= 1e-10 * abs(self.initial_masses[int(r["species"]) - 1]) for r in rows),
              "mass_u left its initial value")
        check(all(float(r["min_u"]) >= slack for r in rows), "min_u below -10 linear_tol")
        check(all(float(r["w_min_increment"]) >= slack for r in rows),
              "w_min_increment below -10 linear_tol")
        check(all(int(r["cg_iters"]) > 0 for r in rows), "a step reported no CG iterations")
        final = rows[-n_species:]
        grid, fields, t = self.rd.read_snapshot(out / f"snap_{final[0]['step']}.fld")
        check(abs(t - self.wl.horizon) <= 1e-12 * self.wl.horizon, f"final snapshot at t={t}")
        check(all(abs(self.rd.integrate(grid, f) - float(r["mass_u"]))
                  <= 1e-12 * abs(float(r["mass_u"])) for f, r in zip(fields, final)),
              "final snapshot masses differ from the last diagnostics rows")

    def check_crossval(self, out: Path) -> None:
        with open(out / "crossval.csv") as fh:
            gaps = [float(r["discrepancy"]) for r in csv.DictReader(fh)]
        self.checks.check(len(gaps) == self.wl.halvings + 1, f"{len(gaps)} crossval rows")
        self.checks.check(all(math.isfinite(g) and g > 0 for g in gaps)
                          and all(a >= MIN_SHRINK * b for a, b in zip(gaps, gaps[1:])),
                          f"discrepancies {gaps} do not shrink by {MIN_SHRINK}x")

    def audit(self, tracer: Tracer | None = None) -> None:
        """`cli.run_invariants` on a short-horizon copy; every row must pass."""
        out = self.work / "audit"
        text = config_text(self.wl, self.init_paths, out, mode="invariants",
                           horizon=AUDIT_STEPS * self.wl.tau)
        rc = invoke(self.rd.cli.run_invariants, self.parse(text), tracer, "cli.invariants")
        try:
            with open(out / "invariants.csv") as fh:
                statuses = [r["status"] for r in csv.DictReader(fh)]
        except OSError:
            statuses = []
        self.checks.check(rc == 0 and statuses and all(s == "pass" for s in statuses),
                          f"invariants audit: exit {rc}, {len(statuses)} rows, "
                          f"{statuses.count('fail')} failing")

    def instrument(self, tracer: Tracer) -> None:
        rd = self.rd
        counters = tracer.counters

        def cg_done(name, result, args):
            report = result[1]
            counters[name + ".iters"] += report.iterations
            counters["sparse.cg.unconverged"] += not report.converged

        def sweeps_done(name, result, args):
            counters["fixedpoint.picard.sweeps"] += result[1]

        def snapshot_done(name, result, args):
            counters["snapshots.write.bytes"] += os.path.getsize(args[0])

        tracer.count(rd.grid.Grid, "laplacian", "grid.laplacian", cells_arg=1)
        tracer.wrap(rd.stepper, "cg_solve",
                    lambda a: CG_SPANS.get(type(a[0]).__name__, "sparse.cg.other"), cg_done)
        for module in (rd.stepper, rd.fixedpoint):
            tracer.wrap(module, "coefficient_fields", "model.coefficient_fields")
            tracer.wrap(module, "initial_state", "stepper.initial_state")
        self.instrument_steps(tracer)
        tracer.wrap(rd.fixedpoint, "picard_step_with_info", "fixedpoint.picard_step",
                    sweeps_done)
        tracer.wrap(rd.diagnostics, "step_records", "diagnostics.step_records")
        tracer.wrap(rd.cli, "check_step", "diagnostics.check_step")
        tracer.wrap(rd.cli, "write_snapshot", "snapshots.write", snapshot_done)
        tracer.wrap(rd.cli, "w_increment_residual", "diagnostics.w_increment_residual")

    def instrument_steps(self, tracer: Tracer) -> None:
        tracer.wrap(self.rd.stepper, "step_with_info", STEP_SPANS[0])
        tracer.wrap(self.rd.fixedpoint, "step_with_info", STEP_SPANS[1])

    def measure(self, seconds: float) -> tuple[dict, int]:
        """End-to-end metrics from untraced runs, after one warm-up run.

        A set-up sample follows every timed run, so that both medians are
        taken over the same stretch of time on a machine whose speed drifts.
        """
        cfg = self.parse()
        self.rep(cfg)
        walls, setups = [], []
        start = time.perf_counter()
        while (len(walls) < MIN_REPS or len(setups) < SETUP_RUNS
               or time.perf_counter() - start < seconds):
            walls.append(self.rep(cfg))
            setups.append(self.setup_once())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.walls = walls
        self.audit()
        wall = statistics.median(walls)
        cell_steps = self.wl.n_cells * len(self.fields) * self.wl.steps
        return {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "cell_steps_per_s": (cell_steps / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }, len(walls)

    def traced_rep(self, cfg, full: bool) -> tuple[float, Tracer]:
        """One run with every layer wrapped, or (full=False) only the steps."""
        tracer = Tracer(f"{self.name}-{os.getpid()}-{time.perf_counter_ns()}")
        (self.instrument if full else self.instrument_steps)(tracer)
        try:
            if full:
                with tracer.span("config.parse"):
                    cfg = self.parse()
            wall = self.rep(cfg, tracer)
        finally:
            tracer.restore()
        self.checks.check(not tracer.missing, f"hook points not found: {tracer.missing}")
        return wall, tracer

    def measure_traced(self, seconds: float, trace_path: Path) -> tuple[dict, int]:
        """Per-layer metrics from cycles of three runs.

        Each cycle makes a workers = 1 run with only the steps wrapped (the
        untraced reference and the step-time samples), a fully traced run,
        and a workers = 2 run with only the steps wrapped. One span per step
        costs microseconds against steps of milliseconds.
        """
        cfg = self.parse()
        cfg2 = dataclasses.replace(cfg, scheme=dataclasses.replace(cfg.scheme, workers=2))
        self.rep(cfg)
        plain, traced, per_rep, tracers = [], [], [], []
        step_ms, workers2_ms = [], []
        start = time.perf_counter()
        while len(traced) < MIN_CYCLES or time.perf_counter() - start < seconds:
            wall, steps = self.traced_rep(cfg, full=False)
            plain.append(wall)
            step_ms += [1e3 * d for s in STEP_SPANS for d in steps.durations(s)]
            wall, tracer = self.traced_rep(cfg, full=True)
            traced.append(wall)
            tracers.append(tracer)
            per_rep.append(self.layer_metrics(tracer))
            _, steps = self.traced_rep(cfg2, full=False)
            workers2_ms += [1e3 * d for s in STEP_SPANS for d in steps.durations(s)]

        audit_tracer = Tracer(f"{self.name}-{os.getpid()}-audit")
        self.instrument(audit_tracer)
        try:
            self.audit(audit_tracer)
        finally:
            audit_tracer.restore()
        tracers.append(audit_tracer)
        write_traces(trace_path, tracers)

        metrics = {key: statistics.median(r[key] for r in per_rep) for key in per_rep[0]}
        shares = [self.shares(t) for t in tracers[:-1]]
        self.share_medians = {k: statistics.median(s[k] for s in shares) for k in shares[0]}
        metrics["stepper.step_ms_p50"] = statistics.median(step_ms) if step_ms else 0.0
        metrics["stepper.step_ms_p90"] = percentile(step_ms, 0.9) if step_ms else 0.0
        metrics["stepper.step_ms_samples"] = len(step_ms)
        metrics["stepper.workers2_step_ms_p50"] = (
            statistics.median(workers2_ms) if workers2_ms else 0.0)
        metrics["diagnostics.w_increment_residual.s"] = audit_tracer.totals(
            "diagnostics.w_increment_residual")[1]
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        for key in REQUIRED["common"] + REQUIRED[self.wl.mode]:
            self.checks.check(metrics[key] > 0, f"layer metric {key} is zero: layer not exercised")
        with open(ROOT / "BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        return {key: (metrics[key], unit) for key, unit in units.items()}, len(traced)

    def shares(self, t: Tracer) -> dict:
        """Fractions of one traced run's wall time, to set against the predictions."""
        wall = t.totals("cli." + self.wl.mode)[1]
        spans = {"sparse.cg": ("sparse.cg.implicit", "sparse.cg.regularize"),
                 "fixedpoint.picard_step": ("fixedpoint.picard_step",),
                 "snapshots.write": ("snapshots.write",),
                 "diagnostics": ("diagnostics.step_records", "diagnostics.check_step")}
        out = {k: sum(t.totals(n)[1] for n in names) / wall for k, names in spans.items()}
        out["grid.laplacian"] = t.counters["grid.laplacian.s"] / wall
        return out

    def layer_metrics(self, t: Tracer) -> dict:
        c = t.counters
        m = {"config.parse_s": t.totals("config.parse")[1]}
        lap_s, lap_cells = c["grid.laplacian.s"], c["grid.laplacian.cells"]
        m["grid.laplacian.calls"] = c["grid.laplacian.calls"]
        m["grid.laplacian.s"] = lap_s
        m["grid.laplacian.ns_per_cell"] = 1e9 * lap_s / lap_cells if lap_cells else 0.0
        # computed from array sizes: 8 bytes read and 8 written per cell
        m["grid.laplacian.bytes_computed"] = 16 * lap_cells
        for kind in ("implicit", "regularize"):
            name = f"sparse.cg.{kind}"
            solves, _, own = t.totals(name)
            iters = c[name + ".iters"]
            m[name + ".solves"] = solves
            m[name + ".iters"] = iters
            m[name + ".iters_per_solve"] = iters / solves if solves else 0.0
            m[name + ".self_s"] = own
        m["sparse.cg.unconverged"] = c["sparse.cg.unconverged"]
        calls, total, _ = t.totals("model.coefficient_fields")
        m["model.coefficient_fields.calls"] = calls
        m["model.coefficient_fields.s"] = total
        m["stepper.initial_state.s"] = t.totals("stepper.initial_state")[1]
        semi_steps, semi_s, semi_own = t.totals(STEP_SPANS[1])
        run_steps, _, run_own = t.totals(STEP_SPANS[0])
        m["stepper.step.count"] = run_steps + semi_steps
        m["stepper.step.self_s"] = run_own + semi_own
        picard_steps, _, picard_own = t.totals("fixedpoint.picard_step")
        sweeps = c["fixedpoint.picard.sweeps"]
        m["fixedpoint.picard.steps"] = picard_steps
        m["fixedpoint.picard.sweeps"] = sweeps
        m["fixedpoint.picard.sweeps_per_step"] = sweeps / picard_steps if picard_steps else 0.0
        m["fixedpoint.picard.self_s"] = picard_own
        m["fixedpoint.semi.s"] = semi_s
        m["diagnostics.step_records.s"] = t.totals("diagnostics.step_records")[1]
        m["diagnostics.check_step.s"] = t.totals("diagnostics.check_step")[1]
        writes, write_s, _ = t.totals("snapshots.write")
        m["snapshots.write.count"] = writes
        m["snapshots.write.bytes"] = c["snapshots.write.bytes"]
        m["snapshots.write.s"] = write_s
        m["cli.self_s"] = t.totals("cli." + self.wl.mode)[2]
        return m


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    sys.path.insert(0, str(SRC))
    try:
        bench = Bench(args.workload, wl, args.seed, work)
        if args.trace:
            trace_path = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, runs = bench.measure_traced(args.seconds, trace_path)
        else:
            metrics, runs = bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = bench.checks
    print(f"# machine: {json.dumps(machine_facts())}")
    print(f"# workload {args.workload}: {wl.mode}, cells {'x'.join(map(str, wl.cells))}, "
          f"2 species, {wl.steps} steps per run, seed {args.seed}, "
          f"{runs} {'traced ' if args.trace else ''}runs, workers = 1")
    if not args.trace:
        print("# wall_s of each run: " + " ".join(f"{w:.4f}" for w in bench.walls))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    fail_frac = len(checks.failures) / checks.attempted
    print(f"{'fail_frac':40s} {fail_frac:>16.6g} failed/attempted "
          f"({len(checks.failures)} of {checks.attempted} checks)")
    if args.trace:
        print("# share of traced wall time: " + ", ".join(
            f"{k} {v:.3f}" for k, v in bench.share_medians.items()))
        print("# grid.laplacian.bytes_computed is computed from array sizes, not measured; "
              "every working set is cache-resident, so no bandwidth or roofline claim is made")
    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    print(f"# summary, seed {args.seed}")
    for name, res in results.items():
        fail_frac = res["failed"] / res["attempted"]
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
        print(f"{name:9s} " + "  ".join(cells + [f"fail_frac={fail_frac:.6g}"]))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "relaxdiff" / "__init__.py").is_file():
        print(f"perfbench: no relaxdiff sources under {SRC}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
