import dataclasses
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff import cli, config, diagnostics, fixedpoint, stepper

from conftest import dense_replay, readme_config_2d

BASE = """
[grid]
dims = 1
n1 = {n1}
h1 = {h1}

[species.1]
delta = 0.01
coeff = skt
d = 0.05
d_1 = 0.0
d_2 = 1.0
init = cosine:0.5,1.0

[species.2]
delta = 0.01
coeff = skt
d = 0.05
d_1 = 1.0
d_2 = 0.0
init = cosine:-0.5,1.0

[scheme]
tau = {tau}
T = {T}

[run]
mode = {mode}
output_dir = {outdir}
"""


def write_cfg(tmp_path, name="run.cfg", n1=16, tau=0.02, T=0.1, mode="simulate",
              outdir=None, extra=""):
    outdir = outdir or str(tmp_path / "out")
    text = BASE.format(n1=n1, h1=1.0 / n1, tau=tau, T=T, mode=mode, outdir=outdir)
    path = tmp_path / name
    path.write_text(text + extra)
    return path, outdir


def as_2d(path, n2):
    """Turn a config written by `write_cfg` into one on n1 x n2 cells of width h1."""
    text = path.read_text()
    h1 = re.search(r"^h1 = (\S+)$", text, re.M).group(1)
    path.write_text(text.replace("dims = 1", "dims = 2").replace(
        f"h1 = {h1}", f"h1 = {h1}\nn2 = {n2}\nh2 = {h1}"))


@pytest.mark.parametrize("dims", [1, 2])
def test_simulate_writes_expected_files(tmp_path, dims):
    path, outdir = write_cfg(tmp_path)
    if dims == 2:
        as_2d(path, 16)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == ("step,time,species,mass_u,mass_utilde,min_u,max_u,"
                       "min_utilde,max_utilde,w_min_increment,coef_min,coef_max,"
                       "clamps,cg_iters,cg_iters_implicit,cg_iters_regularize")
    assert len(diag) == 1 + 5 * 2
    for row in diag[1:]:
        total, implicit, regularize = map(int, row.split(",")[-3:])
        assert total == implicit + regularize
        # each solve whose preconditioner is the exact inverse starts from
        # its answer, which meets the stopping rule: every regularization,
        # and the 1D implicit solves (elimination); 2D implicit solves iterate
        assert regularize == 0
        assert implicit == 0 if dims == 1 else implicit > 0
    assert (out / "snap_0.fld").exists()
    assert (out / "snap_5.fld").exists()


def test_final_snapshot_is_the_run_state_bit_for_bit(tmp_path):
    path, _ = write_cfg(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    cfg = rd.parse_config(path.read_text())
    state = stepper.run(cfg.build_model(), cfg.scheme)
    out = tmp_path / "out"
    last = (out / "diagnostics.csv").read_text().splitlines()[-2:]
    k = int(last[0].split(",")[0])
    grid, fields, time = rd.read_snapshot(out / f"snap_{k}.fld")
    assert grid == state.grid and time == state.time
    assert [f.values.tobytes() for f in fields] == [row.tobytes() for row in state.u]
    assert [diagnostics.format_number(rd.integrate(grid, f)) for f in fields] == \
        [row.split(",")[3] for row in last]


def test_simulate_constant_data_rows_share_mass_columns(tmp_path):
    path, _ = write_cfg(tmp_path, extra="")
    text = path.read_text().replace("cosine:0.5,1.0", "constant:1.0")
    text = text.replace("cosine:-0.5,1.0", "constant:1.0")
    path.write_text(text)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
    mass_cols = {tuple(r.split(",")[3:5]) for r in rows}
    assert len(mass_cols) == 1


def test_simulate_diagnostics_match_dense_replay(tmp_path):
    path, _ = write_cfg(tmp_path, n1=4, tau=0.05, T=0.25)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    cfg = rd.parse_config(path.read_text())
    model = cfg.build_model()
    replay = dense_replay(model, cfg.scheme, 5)
    g = model.grid
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
    for row in rows:
        parts = row.split(",")
        k, species = int(parts[0]), int(parts[2])
        u_ref = replay[k][0][species - 1]
        assert float(parts[3]) == pytest.approx(g.cell_measure * u_ref.sum(), abs=1e-9)
        assert float(parts[5]) == pytest.approx(u_ref.min(), abs=1e-9)
        assert float(parts[6]) == pytest.approx(u_ref.max(), abs=1e-9)


def test_zero_mass_tolerance_turns_roundoff_into_violations():
    # with tol_mass = 0 plain summation round-off must surface as violations
    from conftest import make_grid_1d, two_species_model

    g = make_grid_1d(48)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.01, horizon=0.2)
    strict = rd.CheckTolerances(mass=0.0, positivity=0.0, monotonicity=0.0)
    state = rd.initial_state(m, cfg)
    hits = 0
    for _ in range(20):
        nxt, infos = stepper.step_with_info(state, m, cfg, cfg.tau)
        records = diagnostics.step_records(1, state, nxt, infos)
        masses = [g.integral(row) for row in state.u]
        hits += bool(rd.check_step(state, records, strict, masses))
        state = nxt
    assert hits > 0


def stalling_cfg(tmp_path, monkeypatch, mode):
    """A config whose first implicit solve stalls: 24^2 cells of random data, at
    most two CG iterations per solve.

    The grid is wider than the 2D preconditioner's exact coarse block, so the
    implicit solves need more than two iterations (a 1D implicit solve is
    exact, and does not stall).
    """
    path, outdir = write_cfg(tmp_path, n1=24, mode=mode)
    as_2d(path, 24)
    path.write_text(re.sub(r"init = cosine:-?0\.5,1\.0", "init = random:0.5,1.5",
                           path.read_text()))
    monkeypatch.setattr(stepper, "LINEAR_MAX_ITER", 2)
    return path, outdir


def test_simulate_exit_nonzero_on_solver_failure(tmp_path, capsys, monkeypatch):
    path, _ = stalling_cfg(tmp_path, monkeypatch, "simulate")
    assert cli.main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "species" in err
    assert "implicit diffusion solve stalled after 2 iterations" in err.splitlines()[-1]


def test_config_error_exit_code(tmp_path, capsys):
    path, _ = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("tau = 0.02", "taau = 0.02"))
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert "taau" in capsys.readouterr().err


# linear_tol is the one stopping setting: the solves' iteration cap and the
# Picard sweeps' stop and cap follow from it or are constants, not keys
@pytest.mark.parametrize("section, line, reason", [
    ("[scheme]", "linear_max_iter = 10000", "unknown key 'linear_max_iter' in [scheme]"),
    ("[picard]", "max_sweeps = 50", "unknown section [picard]"),
    ("[picard]", "sweep_tol = 1e-9", "unknown section [picard]"),
], ids=["linear_max_iter", "max_sweeps", "sweep_tol"])
def test_a_removed_stopping_key_is_a_config_error(tmp_path, capsys, section, line, reason):
    path, _ = write_cfg(tmp_path, mode="cross-validate")
    text = path.read_text()
    if section == "[picard]":
        text += f"\n[picard]\n{line}\n"
    else:
        text = text.replace("[scheme]\n", f"[scheme]\n{line}\n")
    path.write_text(text)
    rejected = text.splitlines().index(section if section == "[picard]" else line) + 1
    assert cli.main(["cross-validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: line {rejected}: {reason}\n"


def test_missing_config_exit_code(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_undecodable_config_exit_code(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe\x00")
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config")


def test_reproducible_bytes_across_runs_and_workers(tmp_path):
    path, _ = write_cfg(tmp_path)
    noisy = path.read_text().replace("cosine:0.5,1.0", "random:0.0,1.0")
    noisy = noisy.replace("[run]", "[run]\nseed = 11")
    path.write_text(noisy)
    outs = []
    for name, workers in (("a", None), ("b", None), ("c", 4)):
        text = noisy if workers is None else noisy.replace(
            "[scheme]", f"[scheme]\nworkers = {workers}")
        p = tmp_path / f"{name}.cfg"
        p.write_text(text)
        outdir = tmp_path / name
        assert cli.main(["simulate", "--config", str(p),
                         "--output-dir", str(outdir)]) == 0
        outs.append((outdir / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_seed_override_changes_random_data(tmp_path):
    path, _ = write_cfg(tmp_path)
    noisy = path.read_text().replace("cosine:0.5,1.0", "random:0.0,1.0")
    path.write_text(noisy)
    a = tmp_path / "sa"
    b = tmp_path / "sb"
    assert cli.main(["simulate", "--config", str(path), "--output-dir", str(a),
                     "--seed", "1"]) == 0
    assert cli.main(["simulate", "--config", str(path), "--output-dir", str(b),
                     "--seed", "2"]) == 0
    assert (a / "diagnostics.csv").read_bytes() != (b / "diagnostics.csv").read_bytes()


def test_a_run_builds_its_model_once(tmp_path, monkeypatch):
    # one build_initial call per species: the parsed config carries the model
    # its mode runs, built under the overrides, which parse_config applies first
    path, _ = write_cfg(tmp_path)
    calls = []
    build_initial = config.build_initial
    monkeypatch.setattr(config, "build_initial",
                        lambda *args: calls.append(args) or build_initial(*args))
    assert cli.run_simulate(rd.parse_config(path.read_text())) == 0
    assert len(calls) == 2
    for extra in ([], ["--seed", "5"], ["--output-dir", str(tmp_path / "other")]):
        calls.clear()
        assert cli.main(["simulate", "--config", str(path), *extra]) == 0
        assert len(calls) == 2, extra
        assert {seed for _, _, seed, _ in calls} == {5 if extra[:1] == ["--seed"] else 0}
    # so only the seed that runs is validated: the file's own seed is never built
    path.write_text(path.read_text().replace(*RANDOM_INIT)
                    .replace("mode = simulate", "mode = simulate\nseed = -1"))
    assert cli.main(["simulate", "--config", str(path), "--seed", "5"]) == 0


def test_run_config_is_frozen_and_carries_the_model_of_its_seed(tmp_path):
    path, _ = write_cfg(tmp_path)
    cfg = rd.parse_config(path.read_text().replace(*RANDOM_INIT))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 3
    # nor can the recipes the model was built from change under it
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.species[0].init = "constant:2.0"
    # nor can a field skip the check its constructor made
    for part, name, value in ((cfg.scheme, "linear_tol", 5.0), (cfg.model, "a_max", -1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, name, value)
    reseeded = dataclasses.replace(cfg, seed=cfg.seed + 1)
    assert reseeded.seed == cfg.seed + 1
    first = cfg.model.initial_data[0].values
    assert not np.array_equal(reseeded.model.initial_data[0].values, first)
    assert np.array_equal(reseeded.model.initial_data[0].values,
                          reseeded.build_model().initial_data[0].values)


def test_converge_heat_reduction_first_order(tmp_path):
    path, outdir = write_cfg(tmp_path, mode="converge", tau=0.02, T=0.1)
    single = path.read_text().replace("d_1 = 0.0\nd_2 = 1.0", "d_1 = 0.0")
    # strip species 2 to get the single-species heat reduction
    head, _, tail = single.partition("[species.2]")
    _, _, rest = tail.partition("[scheme]")
    path.write_text(head + "[scheme]" + rest)
    assert cli.main(["converge", "--config", str(path)]) == 0
    content = (tmp_path / "out" / "converge.csv").read_text()
    fit_line = [l for l in content.splitlines() if l.startswith("tau_fit")][0]
    order = float(fit_line.split(",")[-1])
    assert 0.8 <= order <= 1.3


def test_a_tiny_coefficient_and_step_take_no_implicit_iteration(tmp_path):
    # one species with A = 1e-300 (1 + u_tilde) and tau = 2e-8: the implicit
    # operator's diagonal 1 / A is near 5e299 (2.5e307 tau), and its
    # elimination is still exact, so no implicit solve iterates
    path, _ = write_cfg(tmp_path, tau=2e-8, T=4e-8)
    single = path.read_text().replace("d = 0.05\nd_1 = 0.0\nd_2 = 1.0", "d = 1e-300\nd_1 = 1e-300")
    head, _, tail = single.partition("[species.2]")
    _, _, rest = tail.partition("[scheme]")
    path.write_text(head + "[scheme]" + rest)
    proc = run_cli(path)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    column = rows[0].split(",").index("cg_iters_implicit")
    assert len(rows) == 3 and all(row.split(",")[column] == "0" for row in rows[1:])


@pytest.mark.parametrize("study, label", [("tau", "temporal"), ("h", "spatial")])
def test_study_with_one_difference_at_the_floor_is_degenerate(study, label, capsys):
    # one zero difference fits no order: its log would be -inf
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli._study(lines, study, [0.1, 0.05, 0.025], [1e-3, 0.0], 1.0)
    assert lines == [f"{study},0,0.1,0.001,", f"{study},1,0.05,0.0,"]
    assert capsys.readouterr().err == f"{label} study degenerate (zero differences)\n"


def test_converge_needs_two_halvings(tmp_path, capsys):
    # one halving gives one difference, which fits no order
    path, _ = write_cfg(tmp_path, mode="converge", extra="halvings = 1\n")
    assert cli.main(["converge", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: [run] halvings must be at least 2 for converge\n")
    assert not (tmp_path / "out" / "converge.csv").exists()


def test_converge_steady_state_degenerate(tmp_path, capsys):
    path, outdir = write_cfg(tmp_path, mode="converge")
    text = path.read_text().replace("cosine:0.5,1.0", "constant:1.0")
    text = text.replace("cosine:-0.5,1.0", "constant:2.0")
    path.write_text(text)
    assert cli.main(["converge", "--config", str(path)]) == 0
    assert "degenerate" in capsys.readouterr().err


def test_cross_validate_cli(tmp_path):
    path, outdir = write_cfg(tmp_path, n1=16, tau=0.05, T=0.25, mode="cross-validate")
    assert cli.main(["cross-validate", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "crossval.csv").read_text().splitlines()
    assert lines[0] == "tau,discrepancy,sweeps"
    assert len(lines) == 5
    gaps = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a / b >= 1.5 for a, b in zip(gaps, gaps[1:]))
    # at least one sweep per step: 5, 10, 20 and 40 steps
    sweeps = [int(l.split(",")[2]) for l in lines[1:]]
    assert all(n >= 5 * 2**k for k, n in enumerate(sweeps))


def test_picard_failure_names_its_step_and_leaves_the_csv_header(tmp_path):
    # the step of tests/test_fixedpoint.py::test_picard_nonconvergence_is_reported,
    # whose sweep map does not contract, so no cap is reached by convergence;
    # the CLI runs in a process whose fixedpoint.MAX_SWEEPS is 8, to be short
    path, outdir = write_cfg(tmp_path, tau=1.0, T=1.0, mode="cross-validate",
                             extra="halvings = 1\n")
    path.write_text(path.read_text().replace("d_2 = 1.0", "d_2 = 100.0")
                    .replace("d_1 = 1.0", "d_1 = 100.0").replace("delta = 0.01", "delta = 0.001")
                    .replace("cosine:0.5,1.0", "cosine:0.99,1.0")
                    .replace("cosine:-0.5,1.0", "cosine:-0.99,1.0"))
    capped = ("import sys; from relaxdiff import cli, fixedpoint; "
              "fixedpoint.MAX_SWEEPS = 8; sys.exit(cli.main())")
    src = str(Path(rd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", capped, "cross-validate", "--config", str(path)],
        capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(
        r"error: step from t = 0\.0 \(tau = 1\.0\): sweep loop did not converge in 8 "
        r"sweeps \(last relative change \S+\); a smaller tau may help",
        proc.stderr.splitlines()[-1]), proc.stderr
    assert (Path(outdir) / "crossval.csv").read_text() == "tau,discrepancy,sweeps\n"


@pytest.mark.parametrize("mode, name, header", [
    ("converge", "converge.csv", "study,level,step,diff_inf,order_estimate"),
    ("cross-validate", "crossval.csv", "tau,discrepancy,sweeps"),
])
def test_a_failed_study_leaves_its_csv_header(tmp_path, capsys, monkeypatch, mode, name,
                                              header):
    # a study's rows are written at the end, its header when the file opens
    path, outdir = stalling_cfg(tmp_path, monkeypatch, mode)
    assert cli.main([mode, "--config", str(path)]) == 1
    assert "solve stalled after 2 iterations" in capsys.readouterr().err.splitlines()[-1]
    assert (Path(outdir) / name).read_text() == header + "\n"


def test_cross_validate_rejects_non_lipschitz(tmp_path, capsys):
    path, _ = write_cfg(tmp_path, mode="cross-validate")
    path.write_text(path.read_text().replace("init = cosine:0.5,1.0",
                                             "p = 0.5\ninit = cosine:0.5,1.0"))
    assert cli.main(["cross-validate", "--config", str(path)]) == 2
    assert "Lipschitz" in capsys.readouterr().err


def test_invariants_mode(tmp_path):
    path, outdir = write_cfg(tmp_path, mode="invariants")
    assert cli.main(["invariants", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "invariants.csv").read_text().splitlines()
    assert lines[0] == "step,species,check,value,threshold,status"
    assert all(line.endswith("pass") for line in lines[1:])
    assert any("w_identity_residual" in line for line in lines)


def test_invariants_audit_solves_at_the_run_tolerance(tmp_path):
    # the w identity is audited at the run's linear_tol, which its solves reached;
    # at linear_tol / 100 the audit's own solve could not get below 2^-52
    path, _ = write_cfg(tmp_path, mode="invariants")
    path.write_text(path.read_text().replace("T = 0.1", "T = 0.1\nlinear_tol = 1e-14"))
    assert cli.main(["invariants", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "invariants.csv").read_text().splitlines()
    identity = [line for line in lines if ",w_identity_residual," in line]
    assert identity and all(line.endswith(",pass") for line in identity)


RANDOM_INIT = ("init = cosine:0.5,1.0", "init = random:0.0,1.0")

# case: (edits to the config text, extra command-line arguments)
REJECTED_EDITS = {
    "coupling_nan": ([("d_1 = 0.0", "d_1 = nan")], []),
    "base_inf": ([("d = 0.05\nd_1 = 0.0", "d = inf\nd_1 = 0.0")], []),
    "horizon_overflow": ([("T = 0.1", "T = 1e400")], []),
    "init_file_nan": ([("init = cosine:0.5,1.0", "init = file:{nan_file}")], []),
    "init_file_text": ([("init = cosine:0.5,1.0", "init = file:{text_file}")], []),
    "init_file_ragged": ([("init = cosine:0.5,1.0", "init = file:{ragged_file}")], []),
    "random_low_above_high": ([("init = cosine:0.5,1.0", "init = random:1.0,0.0")], []),
    "seed_negative": ([RANDOM_INIT, ("mode = simulate", "mode = simulate\nseed = -1")], []),
    "seed_override_negative": ([RANDOM_INIT], ["--seed", "-5"]),
    "steps_beyond_2_53": ([("tau = 0.02", "tau = 1e-300")], []),
    # one step, but 1 / tau is not a finite float: tau is subnormal
    "tau_reciprocal_overflows": ([("tau = 0.02", "tau = 1e-310"), ("T = 0.1", "T = 1e-310")],
                                 []),
    "output_dir_is_a_file": ([], ["--output-dir", "{text_file}"]),
    # no residual can fall below float64 rounding, so no solve could reach it
    "linear_tol_below_epsilon": ([("tau = 0.02", "tau = 0.02\nlinear_tol = 1e-300")], []),
    # the stopping rule accepts x = 0 at any tolerance of 1 or more: nothing would move
    "linear_tol_one": ([("tau = 0.02", "tau = 0.02\nlinear_tol = 1.0")], []),
    "subnormal_init": ([("init = cosine:0.5,1.0", "init = constant:5e-324")], []),
    # 1 / h^2 is not a finite float: h^2 underflows to zero, or to a subnormal
    "h1_tiny": ([("h1 = 0.0625", "h1 = 1e-300")], []),
    "h1_inverse_square_overflows": ([("h1 = 0.0625", "h1 = 1e-160")], []),
    # rejected before any cosine basis (8 n^2 bytes) is built
    "axis_too_long": ([("n1 = 16", "n1 = 100000")], []),
}


def run_cli(path, *args, mode="simulate", **env):
    src = str(Path(rd.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "relaxdiff.cli", mode, "--config", str(path), *args],
        capture_output=True, text=True, env={"PYTHONPATH": src, **env}, timeout=120)


# the spatial study refines twice: n1 = 2049 becomes 8196 cells, and h1 = 1e-154
# (1 / h^2 = 1e308) becomes 2.5e-155, whose 1 / h^2 overflows
@pytest.mark.parametrize("old, new", [("n1 = 16", "n1 = 2049"), ("h1 = 0.0625", "h1 = 1e-154")],
                         ids=["axis_too_long", "h1_too_small"])
def test_converge_rejects_a_refined_grid_before_any_run(tmp_path, capsys, old, new):
    path, _ = write_cfg(tmp_path, mode="converge", extra="spatial = on\n")
    path.write_text(path.read_text().replace(old, new))
    assert cli.main(["converge", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: [grid] refined for the spatial study")
    assert not (tmp_path / "out" / "converge.csv").exists()


@pytest.mark.parametrize("init", ["random:0.0,1.0", "file:{path}"])
def test_converge_rejects_unrefinable_data_before_any_run(tmp_path, monkeypatch, capsys,
                                                          init):
    # file: and random: data cannot be rebuilt on the spatial study's refined
    # grids; that is found before the temporal study runs anything
    data = tmp_path / "data.txt"
    data.write_text("1.0\n" * 16)
    path, _ = write_cfg(tmp_path, mode="converge", extra="spatial = on\n")
    path.write_text(path.read_text().replace("cosine:0.5,1.0", init.format(path=data)))
    runs = []
    monkeypatch.setattr(stepper, "run", lambda *args: runs.append(args))
    assert cli.main(["converge", "--config", str(path)]) == 2
    assert runs == []
    assert capsys.readouterr().err.startswith(
        f"config error: species 1: init '{init.split(':')[0]}' cannot be rebuilt")
    assert not (tmp_path / "out" / "converge.csv").exists()


@pytest.mark.parametrize("case", sorted(REJECTED_EDITS))
def test_nonfinite_input_is_a_config_error(tmp_path, case):
    # non-finite, malformed or out-of-range input all take the config-error exit
    files = {"nan_file": "1.0\n" * 15 + "nan\n", "text_file": "abc def\n",
             "ragged_file": "1 2 3\n4 5\n"}
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, content in files.items():
        paths[name].write_text(content)
    path, _ = write_cfg(tmp_path)
    edits, args = REJECTED_EDITS[case]
    text = path.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new.format(**paths))
    path.write_text(text)
    proc = run_cli(path, *(arg.format(**paths) for arg in args))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


# case: (write_cfg arguments, edits to the config text, end of the last stderr line)
OVERFLOWS = {
    # 10^400 overflows, so the coefficients of the first step are not finite
    "coefficients": ({"n1": 128}, [("init = cosine:0.5,1.0", "p = 400\ninit = constant:10"),
                                   ("init = cosine:-0.5,1.0", "p = 400\ninit = constant:10")],
                     ": coefficient evaluation produced non-finite values for species 1"),
    # A = 1e200 leaves the implicit operator diag(1 / A) - tau L singular to
    # working precision, which its elimination rejects before A * u = 1e400
    # can overflow the solve
    "solve": ({}, [("init = cosine:0.5,1.0", "init = constant:1e200"),
                   ("init = cosine:-0.5,1.0", "init = constant:1e200")],
              "species 1, step from t = 0.0: operator singular to working precision "
              "(an elimination pivot is not finite or below epsilon times the largest)"),
    # A of about 11 keeps the implicit operator regular, but z = A * u = 1.1e309
    # overflows its exact start, from which CG breaks down
    "solve_start": ({}, [("init = cosine:0.5,1.0", "init = constant:1e308"),
                         ("d = 0.05", "d = 10.0")],
                    "species 1, step from t = 0.0: conjugate-gradient breakdown at "
                    "iteration 1 (non-finite values)"),
    # a coefficient of 1e300 leaves the implicit operator singular to working
    # precision, which its elimination rejects before any CG iteration; CG on
    # it once overflowed, and its r.z once underflowed to zero
    "direction": ({}, [("d_2 = 1.0", "d_2 = 1e300")],
                  "species 1, step from t = 0.0: operator singular to working precision "
                  "(an elimination pivot is not finite or below epsilon times the largest)"),
    # A * u = 1e300 would be finite, but at tau = 1e10 the implicit operator
    # diag(1 / (tau A)) - tau L is singular to working precision, and its
    # elimination rejects it before the w update could add tau * A * u = 1e310
    "w_update": ({"tau": 1e10, "T": 1e10},
                 [("init = cosine:0.5,1.0", "init = constant:1e150"),
                  ("init = cosine:-0.5,1.0", "init = constant:1e150")],
                 "species 1, step from t = 0.0: operator singular to working precision "
                 "(an elimination pivot is not finite or below epsilon times the largest)"),
    # A = 1 keeps both operators regular at tau = 1e7, and every solve is exact,
    # but the w update adds tau * A * u = 1e309
    "w_update_regular": ({"tau": 1e7, "T": 1e7},
                         [("init = cosine:0.5,1.0", "init = constant:1e302"),
                          ("init = cosine:-0.5,1.0", "init = constant:1e302"),
                          ("d_1 = 1.0", "d_1 = 0.0"), ("d_2 = 1.0", "d_2 = 0.0"),
                          ("d = 0.05", "d = 1.0")],
                         "species 1, step from t = 0.0: the next state is not finite"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflowing_coefficients_exit_1_without_traceback(tmp_path, case):
    kwargs, edits, ending = OVERFLOWS[case]
    path, _ = write_cfg(tmp_path, **kwargs)
    text = path.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    proc = run_cli(path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    *warnings, line = proc.stderr.splitlines()
    # numpy may report the overflow first: a warning line and its source line
    assert all("RuntimeWarning" in w or w.startswith(" ") for w in warnings), warnings
    assert line.startswith("error: ") and line.endswith(ending)


# case: (edits to the config text, start of the failure in the last stderr line)
INITIAL_FAILURES = {
    # delta / h^2 = 2.6e302 against d = 1: the regularization's operator is
    # singular to working precision
    "delta_huge": ([("delta = 0.01", "delta = 1e300")],
                   "operator singular to working precision (an elimination pivot is not "
                   "finite or below epsilon times the largest)"),
}


@pytest.mark.parametrize("case", sorted(INITIAL_FAILURES))
def test_initial_regularization_failure_names_species(tmp_path, case):
    edits, failure = INITIAL_FAILURES[case]
    path, _ = write_cfg(tmp_path)
    text = path.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    proc = run_cli(path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    line = proc.stderr.splitlines()[-1]
    assert line.startswith(f"error: species 1, initial regularization: {failure}")


# a regularization of initial data near the float64 maximum overflows; every
# mode regularizes its initial data first
@pytest.mark.parametrize("mode", ["simulate", "converge", "cross-validate", "invariants"])
@pytest.mark.parametrize("species, init", [(2, "random:0,1e308"), (1, "bump:0.3,0.2,1e308")],
                         ids=["random", "bump"])
def test_overflowing_initial_regularization_exits_1_without_traceback(tmp_path, mode, species,
                                                                     init):
    path, _ = write_cfg(tmp_path, mode=mode)
    old = "cosine:0.5,1.0" if species == 1 else "cosine:-0.5,1.0"
    path.write_text(path.read_text().replace(old, init))
    proc = run_cli(path, mode=mode)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"error: species {species}, initial regularization: the regularized state is not finite")


# case: (write_cfg arguments, [run] halvings, the reason in the config error).
# The finest step tau / 2^halvings is invalid: its 1 / tau overflows, or it is
# zero after 10^20 halvings, whose levels would otherwise run without end.
FINEST_STEPS = {
    "tau_too_small": ({"tau": 1e-308, "T": 1e-308}, "2",
                      "tau 2.499999999999997e-309 is too small: 1 / tau is not a finite float"),
    "halvings_huge": ({}, "100000000000000000000", "tau must be positive and finite"),
}


@pytest.mark.parametrize("mode", ["converge", "cross-validate"])
@pytest.mark.parametrize("case", sorted(FINEST_STEPS))
def test_refinement_study_rejects_its_finest_step_before_any_run(tmp_path, case, mode):
    kwargs, halvings, reason = FINEST_STEPS[case]
    path, outdir = write_cfg(tmp_path, mode=mode, extra=f"halvings = {halvings}\n", **kwargs)
    text = path.read_text().replace("cosine:0.5,1.0", "constant:1.0")
    path.write_text(text.replace("cosine:-0.5,1.0", "constant:1.0"))
    proc = run_cli(path, mode=mode)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        f"config error: [run] halvings = {halvings} makes the finest step invalid: {reason}"]
    assert not Path(outdir).exists()


# (mode, output file): a directory in the file's place makes its open fail
# (a read-only mode would not, for root)
UNWRITABLE = [("simulate", "diagnostics.csv"), ("simulate", "snap_0.fld"),
              ("invariants", "invariants.csv"), ("converge", "converge.csv"),
              ("cross-validate", "crossval.csv")]


@pytest.mark.parametrize("mode, name", UNWRITABLE)
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, mode, name):
    path, outdir = write_cfg(tmp_path, mode=mode)
    (Path(outdir) / name).mkdir(parents=True)
    assert cli.main([mode, "--config", str(path)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("config error: cannot write output: "), last
    assert name in last


@pytest.mark.parametrize("mode, name", [("converge", "converge.csv"),
                                        ("cross-validate", "crossval.csv")])
def test_unwritable_study_file_stops_the_study_before_it_starts(tmp_path, monkeypatch, capsys,
                                                                mode, name):
    # a study takes seconds; its file is opened before the first solve
    path, outdir = write_cfg(tmp_path, mode=mode)
    (Path(outdir) / name).mkdir(parents=True)

    def study_ran(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(stepper, "run", study_ran)
    monkeypatch.setattr(fixedpoint, "cross_validate", study_ran)
    assert cli.main([mode, "--config", str(path)]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("config error: cannot write output: ") and name in last, last


# 2**-52 is only the least tolerance a config may set: the floor a solve can
# reach depends on the grid and the operator, and on BASE the first
# regularization stalls just above it
@pytest.mark.parametrize("tol, code", [("2.220446049250313e-16", 1), ("1e-15", 0)])
def test_unreachable_linear_tol_is_a_numerical_failure(tmp_path, tol, code):
    path, _ = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("T = 0.1", f"T = 0.1\nlinear_tol = {tol}"))
    proc = run_cli(path)
    assert proc.returncode == code, proc.stderr
    if code:
        [line] = proc.stderr.splitlines()
        assert re.fullmatch(r"error: species 1, initial regularization: regularization solve "
                            r"stalled after 10000 iterations \(residual \S+\)", line), line


def test_simulate_and_invariants_share_one_table(tmp_path, monkeypatch, capsys):
    # with zero tolerances round-off fails some row (on 64 cells from step 1, in
    # the mass of species 2); both modes must agree on the first
    zero = rd.CheckTolerances(mass=0.0, positivity=0.0, monotonicity=0.0)
    monkeypatch.setattr(rd.CheckTolerances, "from_linear_tol",
                        classmethod(lambda cls, linear_tol: zero))
    path, _ = write_cfg(tmp_path, n1=64, tau=0.01, T=0.2)
    assert cli.main(["invariants", "--config", str(path),
                     "--output-dir", str(tmp_path / "inv")]) == 1
    rows = (tmp_path / "inv" / "invariants.csv").read_text().splitlines()[1:]
    first_fail = next(r.split(",") for r in rows if r.endswith(",fail"))
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(path),
                     "--output-dir", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invariant violation: step ")
    match = re.search(r"step (\d+) .*?species (\d+)", err)
    assert match is not None
    assert match.groups() == (first_fail[0], first_fail[1])
    # each entry is one failing row, in the words and numbers of invariants.csv
    last = err.splitlines()[-1]
    entry = r"species \d+: \w+ \S+ > \S+"
    assert re.fullmatch(rf"error: invariant violation: step \d+ \(t = \S+\): "
                        rf"{entry}(; {entry})*", last), last
    _, species, check, value, threshold, _ = first_fail
    first_entry = last.split("): ", 1)[1].split("; ")[0]
    assert first_entry == f"species {species}: {check} {value} > {threshold}", last


# At p = 300 step 1's coefficients reach about 1e48, so w increments of order
# 1e47 dip by rounding (1.5e31) far below the absolute 10 * linear_tol slack.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: invariant slack not yet derived from the "
                          "solver's residuals")
def test_steep_power_passes_its_invariants(tmp_path):
    path, _ = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("init = cosine:0.5,1.0",
                                             "p = 300\ninit = cosine:0.5,1.0", 1))
    for mode in ("simulate", "invariants"):
        assert cli.main([mode, "--config", str(path),
                         "--output-dir", str(tmp_path / mode)]) == 0, mode


def test_invariants_rows_follow_from_the_diagnostics_rows(tmp_path):
    # every row but the w identity audit is a function of the same step's
    # diagnostics.csv columns, the totals before the step and the initial totals
    path, _ = write_cfg(tmp_path, tau=0.02, T=0.1)
    assert cli.main(["simulate", "--config", str(path),
                     "--output-dir", str(tmp_path / "sim")]) == 0
    assert cli.main(["invariants", "--config", str(path),
                     "--output-dir", str(tmp_path / "inv")]) == 0
    cfg = rd.parse_config(path.read_text())
    model = cfg.build_model()
    initial = [rd.integrate(model.grid, f) for f in model.initial_data]
    tol = rd.CheckTolerances.from_linear_tol(cfg.scheme.linear_tol)
    fmt = diagnostics.format_number

    previous = list(initial)
    expected = []
    for line in (tmp_path / "sim" / "diagnostics.csv").read_text().splitlines()[1:]:
        row = dict(zip(diagnostics.CSV_HEADER.split(","), line.split(",")))
        sp = int(row["species"])
        mass_u, mass_utilde = float(row["mass_u"]), float(row["mass_utilde"])
        m0, before = initial[sp - 1], previous[sp - 1]
        previous[sp - 1] = mass_u
        for check, value, threshold in [
            ("mass_drift_rel", abs(mass_u - m0) / max(abs(m0), 1e-300), tol.mass),
            ("mass_step_rel", abs(mass_u - before) / max(abs(before), 1e-300), tol.mass),
            ("utilde_mass_gap_rel", abs(mass_utilde - mass_u) / max(abs(m0), 1e-300),
             tol.mass),
            ("neg_u", max(0.0, -float(row["min_u"])), tol.positivity),
            ("neg_utilde", max(0.0, -float(row["min_utilde"])), tol.positivity),
            ("neg_w_increment", max(0.0, -float(row["w_min_increment"])),
             tol.monotonicity),
        ]:
            status = "pass" if value <= threshold else "fail"
            expected.append(f"{row['step']},{sp},{check},{fmt(value)},{fmt(threshold)},"
                            f"{status}")
    audited = [r for r in (tmp_path / "inv" / "invariants.csv").read_text().splitlines()[1:]
               if ",w_identity_residual," not in r]
    assert len(expected) == 5 * 2 * 6
    assert audited == expected


def readme_2d_copy(tmp_path):
    path = tmp_path / "readme-2d.cfg"
    path.write_text(readme_config_2d())
    return path


def random_128_squared(tmp_path):
    """Two steps on 128 x 128 cells of cosine and random data with p = 2 coefficients."""
    path, _ = write_cfg(tmp_path, n1=128, tau=0.01, T=0.02)
    as_2d(path, 128)
    text = path.read_text().replace("init = cosine:0.5,1.0", "p = 2\ninit = cosine:0.5,1.0")
    path.write_text(text.replace("init = cosine:-0.5,1.0", "p = 2\ninit = random:0.5,1.5"))
    return path


@pytest.mark.parametrize("config, mode", [(readme_2d_copy, "simulate"),
                                          (readme_2d_copy, "cross-validate"),
                                          (random_128_squared, "simulate")],
                         ids=["readme_2d-simulate", "readme_2d-cross-validate",
                              "random_128-simulate"])
def test_2d_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, config, mode):
    # the 24^2 copy's 144-row coarse block is factored in leaves of at most 36
    # rows, which LAPACK runs unthreaded, and the 128^2 fields are long enough
    # (16,384 cells) for BLAS ddot to split its sum across threads, where the
    # solver's fixed-order einsum does not
    path = config(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        proc = run_cli(path, "--output-dir", str(out), mode=mode, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]
