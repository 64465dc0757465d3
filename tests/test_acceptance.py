"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL lines.
The first three criteria share two reference runs (1D n=128 and 2D 32x32,
T = 1, tau = 1e-2) with bump and step initial data touching zero.
"""

import functools
import time

import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff import cli
from relaxdiff.fixedpoint import picard_step_with_info

from conftest import dense_laplacian, dense_replay, make_grid_1d, make_grid_2d, run_with_rows
from test_stepper import deflated_power_lambda1

MASS_TOL = 1e-10
POS_TOL = 1e-9
MONO_TOL = 1e-9


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL - {title}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS - {title}")
        return wrapper
    return deco


def reference_model(grid):
    """Two species with data touching zero: a bump and a step edge."""
    x = grid.cell_centers()[0]
    scale = grid.lengths[0]
    bump = np.maximum(0.0, 1.0 - ((x - 0.35 * scale) / (0.25 * scale)) ** 2) ** 2
    if grid.ndim == 2:
        y = grid.cell_centers()[1]
        bump = bump * np.maximum(
            0.0, 1.0 - ((y - 0.4 * grid.lengths[1]) / (0.3 * grid.lengths[1])) ** 2) ** 2
    stepped = np.where(x < 0.5 * scale, 0.0, 1.0)
    return rd.ModelSpec(
        grid=grid,
        delta=(0.01, 0.02),
        coefficients=(
            rd.SktCoefficients(0.1, (0.3, 0.6)),
            rd.SktCoefficients(0.05, (0.5, 0.2)),
        ),
        initial_data=(bump, stepped),
    )


@pytest.fixture(scope="module")
def reference_runs():
    runs = {}
    for label, grid in (("1d", make_grid_1d(128)), ("2d", make_grid_2d(32, 32))):
        model = reference_model(grid)
        cfg = rd.SchemeConfig(tau=1e-2, horizon=1.0)
        start = time.perf_counter()
        _, rows = run_with_rows(model, cfg)
        elapsed = time.perf_counter() - start
        runs[label] = (model, rows, elapsed)
    return runs


@criterion(1, "mass conserved to 1e-10 per step and species (1D and 2D), under 10 s")
def test_mass_conservation(reference_runs):
    for label, (model, rows, elapsed) in reference_runs.items():
        g = model.grid
        initial = [g.integral(row) for row in model.initial_data]
        for row in rows:
            ref = initial[row.species - 1]
            assert abs(row.mass_u - ref) <= MASS_TOL * ref, (label, row.step, row.species)
            assert abs(row.mass_utilde - row.mass_u) <= MASS_TOL * ref
        assert elapsed < 10.0, f"{label} run took {elapsed:.2f}s"


@criterion(2, "densities and their regularizations never drop below -1e-9")
def test_nonnegativity(reference_runs):
    for label, (model, rows, _) in reference_runs.items():
        worst_u = min(row.min_u for row in rows)
        worst_ut = min(row.min_utilde for row in rows)
        assert worst_u >= -POS_TOL, (label, worst_u)
        assert worst_ut >= -POS_TOL, (label, worst_ut)
        touched = float(model.initial_data.min())
        assert touched == 0.0  # the data really does touch zero


@criterion(3, "running w field is nondecreasing to -1e-9 componentwise")
def test_monotone_w(reference_runs):
    for label, (_, rows, _) in reference_runs.items():
        worst = min(row.w_min_increment for row in rows)
        assert worst >= -MONO_TOL, (label, worst)


@criterion(4, "iterative path matches dense-LU replay to 1e-9 over 5 steps")
def test_oracle_equivalence():
    g1 = make_grid_1d(16)
    cases = [(g1, reference_model(g1))]
    g2 = make_grid_2d(4, 4)
    cases.append((g2, reference_model(g2)))
    g3 = make_grid_1d(12)
    x = g3.cell_centers()[0]
    three = rd.ModelSpec(
        grid=g3,
        delta=(0.01, 0.03, 0.02),
        coefficients=(
            rd.SktCoefficients(0.1, (0.2, 0.4, 0.1)),
            rd.SktCoefficients(0.2, (0.3, 0.0, 0.5)),
            rd.SktCoefficients(0.15, (0.1, 0.2, 0.3)),
        ),
        initial_data=(
            1.0 + 0.5 * np.cos(np.pi * x),
            np.where(x < 0.5, 1.0, 0.0),
            np.maximum(0.0, 1.0 - ((x - 0.5) / 0.3) ** 2) ** 2,
        ),
    )
    cases.append((g3, three))
    for g, model in cases:
        cfg = rd.SchemeConfig(tau=0.02, horizon=0.1)
        replay = dense_replay(model, cfg, 5)
        state = rd.initial_state(model, cfg)
        for k in range(5):
            state = rd.step_with_info(state, model, cfg, cfg.tau)[0]
            u_ref, ut_ref, w_ref = replay[k + 1]
            for i in range(model.n_species):
                assert np.max(np.abs(state.u[i] - u_ref[i])) <= 1e-9
                assert np.max(np.abs(state.u_tilde[i] - ut_ref[i])) <= 1e-9
                assert np.max(np.abs(state.w[i] - w_ref[i])) <= 1e-9


@criterion(5, "energy-balance defect on frozen slabs scales like tau (2x per halving, 30% slack)")
def test_energy_identity_order():
    g = make_grid_1d(8)
    x = g.cell_centers()[0]
    for seed in (7, 11, 23):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-0.35, 0.35, 4)

        def A_of(t):
            return (1.0 + c[0] * np.sin(2 * np.pi * x)
                    + c[1] * np.cos(np.pi * x) * np.cos(t)
                    + c[2] * np.sin(t + 1.0) * np.cos(2 * np.pi * x)
                    + c[3] * np.sin(np.pi * x))

        b = rng.uniform(-0.5, 0.5, 3)
        w0 = (1.0 + b[0] * np.cos(np.pi * x)
              + b[1] * np.cos(2 * np.pi * x) + b[2] * np.sin(np.pi * x))
        T = 0.5
        residuals = []
        for n_steps in (16, 32, 64, 128):
            tau = T / n_steps
            A_nodes = [A_of(k * tau) for k in range(n_steps)]
            assert min(float(a.min()) for a in A_nodes) > 0.0
            trajectory = rd.solve_frozen_slab(g, A_nodes, w0, tau, tol=1e-13)
            residuals.append(rd.energy_identity_residual(g, trajectory, A_nodes, tau))
        for r1, r2 in zip(residuals, residuals[1:]):
            assert 1.4 <= r1 / r2 <= 2.6, (seed, residuals)


@criterion(6, "semi-implicit vs fully implicit gap shrinks 1.5x per halving, under 60 s")
def test_two_path_uniqueness():
    g = make_grid_1d(32)
    x = g.cell_centers()[0]
    model = rd.ModelSpec(
        grid=g,
        delta=(0.01, 0.01),
        coefficients=(
            rd.SktCoefficients(0.05, (0.0, 1.0)),
            rd.SktCoefficients(0.05, (1.0, 0.0)),
        ),
        initial_data=(
            1.0 + 0.5 * np.cos(np.pi * x),
            1.0 - 0.5 * np.cos(np.pi * x),
        ),
    )
    assert model.lipschitz
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.5)
    start = time.perf_counter()
    report = rd.cross_validate(model, cfg, halvings=3)
    elapsed = time.perf_counter() - start
    assert not report.degenerate
    for ratio in report.shrink_ratios():
        assert ratio >= 1.5, report.discrepancies
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


SKT_CONVERGE = """
[grid]
dims = 1
n1 = 32
h1 = 0.03125

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
tau = 0.0125
T = 0.25

[run]
mode = converge
output_dir = {out}
"""

HEAT_SPATIAL = """
[grid]
dims = 1
n1 = 8
h1 = 0.125

[species.1]
delta = 0.01
coeff = skt
d = 1.0
init = cosine:0.5,1.0

[scheme]
tau = 0.0001
T = 0.05
linear_tol = 1e-12

[run]
mode = converge
output_dir = {out}
spatial = on
halvings = 2
"""


def _fit_from_csv(path, prefix):
    for line in path.read_text().splitlines():
        if line.startswith(prefix):
            return float(line.split(",")[-1])
    raise AssertionError(f"{prefix} row missing in {path}")


@criterion(7, "refinement orders: tau in [0.8, 1.3] on cross-diffusion, h in [1.6, 2.4] on heat")
def test_refinement_orders(tmp_path):
    skt_out = tmp_path / "skt"
    cfg_path = tmp_path / "skt.cfg"
    cfg_path.write_text(SKT_CONVERGE.format(out=skt_out))
    assert cli.main(["converge", "--config", str(cfg_path)]) == 0
    tau_order = _fit_from_csv(skt_out / "converge.csv", "tau_fit")
    assert 0.8 <= tau_order <= 1.3, tau_order

    heat_out = tmp_path / "heat"
    heat_path = tmp_path / "heat.cfg"
    heat_path.write_text(HEAT_SPATIAL.format(out=heat_out))
    assert cli.main(["converge", "--config", str(heat_path)]) == 0
    h_order = _fit_from_csv(heat_out / "converge.csv", "h_fit")
    assert 1.6 <= h_order <= 2.4, h_order


@criterion(8, "heat-reduction decay rate within 5% of d * lambda_1 from the assembled operator")
def test_heat_decay_rate():
    n, d = 64, 1.0
    g = make_grid_1d(n)
    x = g.cell_centers()[0]
    model = rd.ModelSpec(
        grid=g,
        delta=(0.01,),
        coefficients=(rd.SktCoefficients(d, (0.0,)),),
        initial_data=(1.0 + 0.5 * np.cos(np.pi * x),),
    )
    cfg = rd.SchemeConfig(tau=1e-3, horizon=0.4)
    _, rows = run_with_rows(model, cfg)
    mean = g.integral(model.initial_data[0])  # unit measure
    times = [row.time for row in rows]
    norms = [max(abs(row.max_u - mean), abs(row.min_u - mean)) for row in rows]
    rate = -np.polyfit(times, np.log(norms), 1)[0]
    lam1 = deflated_power_lambda1(dense_laplacian(g))
    assert abs(rate - d * lam1) <= 0.05 * d * lam1, (rate, d * lam1)


@criterion(9, "sup of the scaled regularized density stays within 10% of its linear fit")
def test_linear_growth_envelope():
    g = make_grid_1d(32)
    model = reference_model(g)
    cfg = rd.SchemeConfig(tau=0.01, horizon=8.0)
    horizons = [1.0, 2.0, 4.0, 8.0]
    fit = rd.fit_linear_bound(model, cfg, horizons)
    assert fit.horizons == tuple(horizons)
    assert all(a <= b + 1e-15 for a, b in zip(fit.sup_utilde, fit.sup_utilde[1:]))
    for T, sup in zip(fit.horizons, fit.sup_utilde):
        assert sup <= 1.1 * fit.fitted(T), (T, sup, fit.fitted(T))


REPRO = """
[grid]
dims = 1
n1 = 48
h1 = 0.0208333333333333

[species.1]
delta = 0.02
coeff = skt
d = 0.1
d_1 = 0.4
d_2 = 0.3
init = random:0.0,1.0

[species.2]
delta = 0.01
coeff = skt
d = 0.08
d_1 = 0.2
d_2 = 0.5
init = bump:0.4,0.3,1.0

[scheme]
tau = 0.01
T = 0.2
workers = {workers}

[run]
mode = simulate
output_dir = {out}
seed = 42
"""


@criterion(10, "diagnostics bytes identical across repeat runs and worker counts")
def test_reproducibility(tmp_path):
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 4)):
        cfg_path = tmp_path / f"{name}.cfg"
        out = tmp_path / name
        cfg_path.write_text(REPRO.format(workers=workers, out=out))
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
        outputs.append(
            ((out / "diagnostics.csv").read_bytes(), (out / "snap_20.fld").read_bytes())
        )
    assert outputs[0] == outputs[1] == outputs[2]
