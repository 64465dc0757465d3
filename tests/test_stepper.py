import cProfile
import os
import pstats
import tracemalloc

import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff import diagnostics, stepper
from relaxdiff.errors import DimensionMismatchError, LinearSolverError
from relaxdiff.fixedpoint import picard_step_with_info
from relaxdiff.model import coefficient_fields
from relaxdiff.sparse import LINEAR_TOL
from relaxdiff.stepper import _solve_implicit, _solve_regularize, plan_steps

from conftest import (
    cosine_profile,
    dense_laplacian,
    dense_replay,
    lipschitz_cross_model,
    make_grid_1d,
    make_grid_2d,
    readme_config_2d,
    run_with_rows,
    two_species_model,
)


def heat_model(grid, d=1.0, delta=0.01, amplitude=0.5):
    return rd.ModelSpec(
        grid=grid,
        delta=(delta,),
        coefficients=(rd.SktCoefficients(d, (0.0,)),),
        initial_data=(cosine_profile(grid, amplitude),),
    )


def test_regularize_constant_fixed_point():
    g = make_grid_1d(9)
    u = np.full(g.n_cells, 2.5)
    for delta in (0.01, 1.0, 10.0):
        out = rd.regularize(g, u, delta)
        assert np.array_equal(out, u)


def test_regularize_two_cell_example():
    g = rd.Grid((2,), (1.0,))
    out = rd.regularize(g, [2.0, 0.0], 1.0, tol=1e-13)
    assert out == pytest.approx([4 / 3, 2 / 3], rel=1e-12)


def test_regularize_preserves_mean(rng):
    for g in (make_grid_1d(33, 1.7), make_grid_2d(6, 5, (1.0, 2.0))):
        for _ in range(8):
            u = rng.uniform(0.0, 3.0, g.n_cells)
            delta = float(rng.uniform(0.01, 10.0))
            out = rd.regularize(g, u, delta)
            assert g.integral(out) == pytest.approx(g.integral(u), rel=1e-13, abs=1e-13)
            assert np.min(out) >= -1e-12


def test_implicit_step_constant_state_and_coefficients():
    g = make_grid_1d(12)
    u = np.full(g.n_cells, 1.3)
    A = np.full(g.n_cells, 0.7)
    out = rd.implicit_diffusion_step(g, u, A, tau=0.5)
    assert np.array_equal(out, u)


def test_implicit_step_two_cell_examples():
    g = rd.Grid((2,), (1.0,))
    u = [2.0, 0.0]
    out = rd.implicit_diffusion_step(g, u, [1.0, 1.0], tau=1.0, tol=1e-13)
    assert out == pytest.approx([4 / 3, 2 / 3], rel=1e-12)
    out2 = rd.implicit_diffusion_step(g, u, [2.0, 1.0], tau=1.0, tol=1e-13)
    assert out2 == pytest.approx([1.0, 1.0], rel=1e-12)
    assert out2.sum() == pytest.approx(2.0, rel=1e-14)


def test_implicit_step_rejects_nonpositive_coefficients():
    g = make_grid_1d(4)
    u = np.full(g.n_cells, 1.0)
    for A, error in [([1.0, 0.0, 1.0, 1.0], ValueError), ([1.0, np.inf, 1.0, 1.0], ValueError),
                     ([1.0, np.nan, 1.0, 1.0], ValueError),
                     ([1.0, 1.0, 1.0], DimensionMismatchError)]:
        with pytest.raises(error):
            rd.implicit_diffusion_step(g, u, A, tau=0.1)


# the grid of the single operations' checks below, with 8 cells
G8 = make_grid_1d(8)


def one_implicit_step(u, tau):
    return rd.implicit_diffusion_step(G8, u, np.ones(8), tau)


def one_slab_node(u, tau):
    return rd.solve_frozen_slab(G8, [np.ones(8)], u, tau)


# an empty slab runs no solve, so only the step-size rule can reject its tau
def empty_slab(u, tau):
    return rd.solve_frozen_slab(G8, [], u, tau)


def empty_slab_energy(u, tau):
    return rd.energy_identity_residual(G8, [u], [], tau)


def one_node_slab_energy(u, tau):
    return rd.energy_identity_residual(G8, [u, u], [np.ones(8)], tau)


def heat_step(step, u, tau):
    m = heat_model(G8)
    cfg = rd.SchemeConfig(tau=0.1, horizon=1.0)
    return step(rd.initial_state(m, cfg), m, cfg, tau)


def semi_implicit_step(u, tau):
    return heat_step(rd.step_with_info, u, tau)


def picard_step(u, tau):
    return heat_step(picard_step_with_info, u, tau)


def regularize(u, delta):
    return rd.regularize(G8, u, delta)


def regularize_to_tol(u, tol):
    return rd.regularize(G8, u, 0.1, tol=tol)


def implicit_step_to_tol(u, tol):
    return rd.implicit_diffusion_step(G8, u, np.ones(8), 0.1, tol=tol)


def slab_node_to_tol(u, tol):
    return rd.solve_frozen_slab(G8, [np.ones(8)], u, 0.1, tol=tol)


def empty_slab_to_tol(u, tol):
    return rd.solve_frozen_slab(G8, [], u, 0.1, tol=tol)


def cg_to_tol(u, tol):
    op = stepper._ImplicitStepOperator(G8, np.ones(8), 1.0)
    return rd.cg_solve(op, u, tol=tol)


# the rule SchemeConfig applies to tau: positive, finite and a finite 1 / tau
BAD_TAU = [(-0.1, "tau must be positive and finite"), (0.0, "tau must be positive and finite"),
           (np.nan, "tau must be positive and finite"), (np.inf, "tau must be positive and finite"),
           (5e-324, "1 / tau is not a finite float")]
# the rule SchemeConfig applies to linear_tol: in [2**-52, 1)
AT_LEAST, BELOW = "linear tolerance must be at least", "linear tolerance must be below 1"
BAD_TOL = [(np.nan, AT_LEAST), (0.0, AT_LEAST), (np.nextafter(2**-52, 0), AT_LEAST),
           (np.inf, BELOW), (1.0, BELOW)]


@pytest.mark.parametrize("call, value, match", [
    *((call, tau, match) for call in (one_implicit_step, one_slab_node, empty_slab,
                                      empty_slab_energy, one_node_slab_energy,
                                      semi_implicit_step, picard_step)
      for tau, match in BAD_TAU),
    *((regularize, delta, "delta must be positive and finite")
      for delta in (-0.1, 0.0, np.nan, np.inf)),
    *((call, tol, match) for call in (regularize_to_tol, implicit_step_to_tol, slab_node_to_tol,
                                      empty_slab_to_tol, cg_to_tol)
      for tol, match in BAD_TOL),
])
def test_single_operations_reject_bad_scalars_before_solving(call, value, match):
    u = np.linspace(0.5, 1.5, 8)
    with pytest.raises(ValueError, match=match):
        call(u, value)


@pytest.mark.parametrize("g", [make_grid_1d(40), make_grid_1d(128), make_grid_2d(20, 24),
                               make_grid_2d(64, 64)],
                         ids=lambda g: "x".join(map(str, g.cells)))
@pytest.mark.parametrize("delta", [0.01, 0.37])
def test_regularization_is_the_implicit_step_with_unit_coefficient_bit_for_bit(g, delta, rng):
    # both solve (diag(d) - s L) z = u with (d, s) = (1 / A, tau) and (1, delta)
    u = rng.uniform(0.5, 1.5, g.n_cells)
    step = rd.implicit_diffusion_step(g, u, np.ones(g.n_cells), delta)
    assert rd.regularize(g, u, delta).tobytes() == step.tobytes()


def test_implicit_step_conserves_mass_exactly(rng):
    g = make_grid_2d(8, 8)
    for _ in range(5):
        u = rng.uniform(0.0, 2.0, g.n_cells)
        A = rng.uniform(0.3, 3.0, g.n_cells)
        out = rd.implicit_diffusion_step(g, u, A, tau=0.05)
        assert abs(out.sum() - u.sum()) <= 1e-12 * u.sum()
        assert np.min(out) >= -1e-11


def test_nonsymmetric_form_is_m_matrix():
    g = make_grid_1d(6)
    rng = np.random.default_rng(5)
    A = rng.uniform(0.2, 2.0, 6)
    tau = 0.1
    L = dense_laplacian(g)
    M = np.eye(6) / tau - L @ np.diag(A)
    off = M - np.diag(np.diag(M))
    assert np.all(off <= 1e-14)
    assert np.all(np.diag(M) > 0)
    assert np.all(np.linalg.inv(M) >= -1e-14)
    assert np.allclose(M.sum(axis=0), 1.0 / tau, rtol=1e-12)


def test_step_constant_data_is_steady_bitwise():
    g = make_grid_2d(5, 4)
    m = rd.ModelSpec(
        grid=g,
        delta=(0.05, 0.2),
        coefficients=(rd.SktCoefficients(0.3, (0.5, 0.1)), rd.SktCoefficients(0.2, (0.0, 1.0))),
        initial_data=(np.full(g.n_cells, 1.5), np.full(g.n_cells, 0.25)),
    )
    cfg = rd.SchemeConfig(tau=0.1, horizon=1.0)
    state = rd.initial_state(m, cfg)
    nxt = rd.step_with_info(state, m, cfg, cfg.tau)[0]
    for i in range(2):
        assert np.array_equal(nxt.u[i], state.u[i])
        assert np.array_equal(nxt.u_tilde[i], state.u_tilde[i])
    assert nxt.time == pytest.approx(0.1)


def test_step_heat_reduction_two_cells():
    g = rd.Grid((2,), (1.0,))
    m = rd.ModelSpec(
        grid=g,
        delta=(1.0,),
        coefficients=(rd.SktCoefficients(1.0, (0.0,)),),
        initial_data=([2.0, 0.0],),
    )
    cfg = rd.SchemeConfig(tau=1.0, horizon=1.0, linear_tol=1e-13)
    state = rd.initial_state(m, cfg)
    nxt = rd.step_with_info(state, m, cfg, cfg.tau)[0]
    assert nxt.u[0] == pytest.approx([4 / 3, 2 / 3], rel=1e-12)


def test_step_matches_dense_oracle_one_step():
    g = make_grid_1d(4)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05, linear_tol=1e-12)
    state = rd.initial_state(m, cfg)
    nxt = rd.step_with_info(state, m, cfg, cfg.tau)[0]
    replay = dense_replay(m, cfg, 1)
    u_ref, ut_ref, w_ref = replay[-1]
    for i in range(2):
        assert np.max(np.abs(nxt.u[i] - u_ref[i])) <= 1e-10
        assert np.max(np.abs(nxt.u_tilde[i] - ut_ref[i])) <= 1e-10
        assert np.max(np.abs(nxt.w[i] - w_ref[i])) <= 1e-10


def test_trajectory_matches_dense_oracle_small_grids():
    cases = [
        (make_grid_1d(16), two_species_model(make_grid_1d(16))),
        (make_grid_2d(4, 4), two_species_model(make_grid_2d(4, 4))),
    ]
    # a three-species variant on a tiny grid
    g3 = make_grid_1d(12)
    x = g3.cell_centers()[0]
    m3 = rd.ModelSpec(
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
    cases.append((g3, m3))
    for g, m in cases:
        cfg = rd.SchemeConfig(tau=0.02, horizon=0.1)
        state = rd.initial_state(m, cfg)
        replay = dense_replay(m, cfg, 5)
        for k in range(5):
            state = rd.step_with_info(state, m, cfg, cfg.tau)[0]
            u_ref, ut_ref, w_ref = replay[k + 1]
            for i in range(m.n_species):
                assert np.max(np.abs(state.u[i] - u_ref[i])) <= 1e-9
                assert np.max(np.abs(state.u_tilde[i] - ut_ref[i])) <= 1e-9
                assert np.max(np.abs(state.w[i] - w_ref[i])) <= 1e-9


def test_w_increment_resolvent_identity():
    g = make_grid_1d(24)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.01, horizon=0.1, linear_tol=1e-12)
    state = rd.initial_state(m, cfg)
    for _ in range(3):
        nxt = rd.step_with_info(state, m, cfg, cfg.tau)[0]
        residual = rd.w_increment_residual(m, state, nxt, tol=1e-13)
        assert residual <= 1e-10
        state = nxt


def test_step_first_order_in_tau():
    g = make_grid_1d(32)
    m = lipschitz_cross_model(g)
    horizon = 0.2
    finals = []
    for k in range(4):
        cfg = rd.SchemeConfig(tau=0.02 / 2**k, horizon=horizon, linear_tol=1e-12)
        finals.append(rd.run(m, cfg))
    diffs = [
        max(np.max(np.abs(a.u[i] - b.u[i])) for i in range(2))
        for a, b in zip(finals, finals[1:])
    ]
    for d1, d2 in zip(diffs, diffs[1:]):
        assert 1.6 <= d1 / d2 <= 2.4


def test_run_step_count_and_final_time():
    g = make_grid_1d(8)
    m = heat_model(g)
    tau = 0.1
    cfg = rd.SchemeConfig(tau=tau, horizon=3 * tau)
    state, rows = run_with_rows(m, cfg)
    steps = {r.step for r in rows}
    assert steps == {1, 2, 3}
    assert abs(state.time - 3 * tau) <= 1e-12
    assert plan_steps(cfg.tau, cfg.horizon) == (3, tau)


def test_run_shortened_last_step():
    g = make_grid_1d(8)
    m = heat_model(g)
    cfg = rd.SchemeConfig(tau=0.4, horizon=1.0)
    state, rows = run_with_rows(m, cfg)
    assert plan_steps(cfg.tau, cfg.horizon)[1] != cfg.tau
    assert len({r.step for r in rows}) == 3
    assert state.time == 1.0
    assert abs(g.integral(state.u[0]) - g.integral(m.initial_data[0])) <= 1e-12


def test_run_callbacks_see_every_step_and_each_snapshot_step():
    # tau = 0.3 covers T = 1 in 4 steps, the last shortened to 0.1
    g = make_grid_1d(8)
    m = heat_model(g)
    cfg = rd.SchemeConfig(tau=0.3, horizon=1.0, output_stride=3)
    steps, records, snapshots = [], [], []

    def on_step(k, before, after, rows):
        steps.append(k)
        records.extend(rows)

    final = rd.run(m, cfg, on_step=on_step,
                   on_snapshot=lambda k, state: snapshots.append((k, state)))
    assert steps == [1, 2, 3, 4]
    assert [(r.step, r.species) for r in records] == [(k, 1) for k in (1, 2, 3, 4)]
    assert [r.time for r in records] == [cfg.tau, 2 * cfg.tau, 3 * cfg.tau, 1.0]
    assert [k for k, _ in snapshots] == [0, 3, 4]
    assert snapshots[0][1].time == 0.0
    assert snapshots[-1][1] is final and final.time == 1.0
    assert plan_steps(cfg.tau, cfg.horizon)[1] != cfg.tau


def test_run_keeps_nothing_per_step():
    # run hands each step's rows to on_step and keeps none, so what it holds
    # after 1,600 steps is what it held after 400; tracing starts at step 400,
    # because it slows every allocation about fourfold
    m = two_species_model(make_grid_1d(16))
    tau = 1 / 1024
    cfg = rd.SchemeConfig(tau=tau, horizon=1600 * tau)
    held = {}

    def on_step(k, before, after, records):
        if k == 400:
            tracemalloc.start()
        if k in (400, 1600):
            held[k] = tracemalloc.get_traced_memory()[0]

    try:
        rd.run(m, cfg, on_step=on_step)
    finally:
        tracemalloc.stop()
    assert abs(held[1600] - held[400]) <= 0.1e6, held


def test_run_constant_data_rows_identical():
    g = make_grid_1d(10)
    m = rd.ModelSpec(
        grid=g,
        delta=(0.1,),
        coefficients=(rd.SktCoefficients(0.5, (0.4,)),),
        initial_data=(np.full(g.n_cells, 2.0),),
    )
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.5)
    _, rows = run_with_rows(m, cfg)
    masses = {(r.mass_u, r.mass_utilde, r.min_u, r.max_u) for r in rows}
    assert len(masses) == 1


def test_run_heat_decay_rate_matches_first_eigenvalue():
    n = 64
    g = make_grid_1d(n)
    d = 1.0
    m = heat_model(g, d=d)
    cfg = rd.SchemeConfig(tau=1e-3, horizon=0.4)
    _, rows = run_with_rows(m, cfg)
    mean = g.integral(m.initial_data[0])  # domain has measure one
    times, norms = [], []
    for r in rows:
        times.append(r.time)
        norms.append(max(abs(r.max_u - mean), abs(r.min_u - mean)))
    rate = -np.polyfit(times, np.log(norms), 1)[0]
    lam1 = deflated_power_lambda1(dense_laplacian(g))
    assert abs(rate - d * lam1) <= 0.05 * d * lam1


def deflated_power_lambda1(L, seed=1, tol=1e-12, max_iter=200_000):
    """Smallest nonzero eigenvalue of -L via shifted power iteration.

    Stage one finds the largest eigenvalue of -L; stage two runs power
    iteration on (lambda_max I + L) with the constant mode projected out,
    whose dominant eigenvalue is lambda_max - lambda_1.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(L.shape[0])
    v /= np.linalg.norm(v)
    lam_max = 0.0
    for _ in range(max_iter):
        w = -(L @ v)
        lam = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(lam - lam_max) <= tol * abs(lam):
            lam_max = lam
            break
        lam_max = lam
    v = rng.standard_normal(L.shape[0])
    v -= v.mean()
    v /= np.linalg.norm(v)
    shifted = 0.0
    for _ in range(max_iter):
        w = lam_max * v + L @ v
        w -= w.mean()
        lam = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(lam - shifted) <= tol * abs(lam):
            shifted = lam
            break
        shifted = lam
    return lam_max - shifted


def test_deflated_power_iteration_matches_analytic_eigenvalue():
    n = 32
    g = make_grid_1d(n)
    lam1 = deflated_power_lambda1(dense_laplacian(g))
    h = 1.0 / n
    analytic = (4.0 / h**2) * np.sin(np.pi / (2 * n)) ** 2
    assert lam1 == pytest.approx(analytic, rel=1e-6)


def test_step_concurrency_bit_identical():
    # the 2D grid runs the cosine-basis matrix products from two worker threads
    for g in (make_grid_1d(32), make_grid_2d(48, 40, (1.0, 0.8))):
        m = two_species_model(g)
        serial = rd.SchemeConfig(tau=0.01, horizon=0.1, workers=1)
        threaded = rd.SchemeConfig(tau=0.01, horizon=0.1, workers=4)
        state_a, rows_a = run_with_rows(m, serial)
        state_b, rows_b = run_with_rows(m, threaded)
        for i in range(2):
            assert np.array_equal(state_a.u[i], state_b.u[i])
            assert np.array_equal(state_a.w[i], state_b.w[i])
        assert [r.to_csv_row() for r in rows_a] == [r.to_csv_row() for r in rows_b]
    # a Picard step does not use workers: its sweeps run the species one after
    # another, and the result does not depend on the setting
    g = make_grid_2d(48, 40, (1.0, 0.8))
    m = two_species_model(g)
    picard = []
    for workers in (1, 4):
        cfg = rd.SchemeConfig(tau=0.01, horizon=0.1, workers=workers)
        picard.append(picard_step_with_info(rd.initial_state(m, cfg), m, cfg, cfg.tau))
    (a, sweeps_a), (b, sweeps_b) = picard
    assert sweeps_a == sweeps_b > 1
    for fa, fb in zip((a.u, a.u_tilde, a.w), (b.u, b.u_tilde, b.w)):
        assert np.array_equal(fa, fb)


@pytest.mark.parametrize("cells", [(32,), (128,), (1024,), (32, 32), (64, 64), (128, 128),
                                   (256, 256)], ids=lambda c: "x".join(map(str, c)))
def test_solve_iterations_do_not_grow_with_the_mesh(cells, rng):
    # unpreconditioned CG needs about n iterations here; the cosine-basis
    # preconditioner bounds them by max A / min A = 3 whatever the mesh, and
    # its exact coarse block takes them from 9 to 4 or 5 (at most 5 measured)
    # in 2D; a 1D implicit solve starts from its answer and takes none
    g = rd.Grid(cells, tuple(1.0 / n for n in cells))
    A = 2.0 + np.prod([np.cos(3 * np.pi * x) for x in g.cell_centers()], axis=0)
    assert np.max(A) / np.min(A) == pytest.approx(3.0, rel=1e-2)
    u = rng.uniform(0.0, 2.0, g.n_cells)
    u_new, _, implicit = _solve_implicit(g, u, A, 0.01, 1e-10)
    _, regularize = _solve_regularize(g, u_new, 0.01, 1e-10)
    assert implicit.converged and implicit.iterations <= 7
    assert regularize.converged and regularize.iterations <= 2


def counted_laplacian(monkeypatch):
    """Record every `Grid.laplacian` call from here on; returns the calls and the original."""
    apply, calls = rd.Grid.laplacian, []

    def counting(grid, values):
        calls.append(values)
        return apply(grid, values)

    monkeypatch.setattr(rd.Grid, "laplacian", counting)
    return calls, apply


@pytest.mark.parametrize("g", [make_grid_1d(40), make_grid_2d(20, 24, (1.0, 0.7))],
                         ids=lambda g: "x".join(map(str, g.cells)))
@pytest.mark.parametrize("kind", ["implicit", "regularize", "zero"])
def test_a_converged_solve_applies_the_laplacian_once_per_iteration_plus_once(
        g, kind, rng, monkeypatch):
    # CG's last residual check applies L to the iterate it returns, and the
    # flux form u + s L z reuses that Laplacian; a zero right-hand side runs
    # no check, so its flux form applies L itself
    tau = delta = 0.01
    u = rng.uniform(0.5, 1.5, g.n_cells)
    if kind == "implicit":
        A = 2.0 + np.prod([np.cos(3 * np.pi * x) for x in g.cell_centers()], axis=0)
        op = stepper._ImplicitStepOperator(g, 1.0 / A, tau)
    else:
        op = stepper._ResolventOperator(g, 1.0, delta)
        if kind == "zero":
            u = np.zeros(g.n_cells)
    s = op.s
    calls, apply = counted_laplacian(monkeypatch)
    flux, z, report = stepper._flux_solve(op, u, 1e-10)
    assert report.converged and len(calls) == 1 + report.iterations
    # a 2D implicit solve iterates; every other one starts from its answer
    assert (report.iterations > 0) == (kind == "implicit" and g.ndim == 2)
    assert flux.tobytes() == (u + s * apply(g, z)).tobytes()
    assert op._applied is None  # no field outlives the solve


@pytest.mark.parametrize("g", [make_grid_1d(40), make_grid_2d(20, 24, (1.0, 0.7))],
                         ids=lambda g: "x".join(map(str, g.cells)))
@pytest.mark.parametrize("exponent", [-1040, -1020, -60, 60, 1000])
def test_the_flux_form_of_tiny_and_huge_data_is_bit_exact(g, exponent, rng):
    # CG scales the right-hand side of tiny or huge data by a power of two, so
    # its last Laplacian is of the scaled iterate, which near the subnormal
    # range does not scale back exactly: the flux form applies L to z itself
    tau = 0.01
    u = np.ldexp(rng.uniform(0.5, 1.5, g.n_cells), exponent)
    A = 2.0 + np.prod([np.cos(3 * np.pi * x) for x in g.cell_centers()], axis=0)
    for op in (stepper._ImplicitStepOperator(g, 1.0 / A, tau),
               stepper._ResolventOperator(g, 1.0, 0.01)):
        flux, z, report = stepper._flux_solve(op, u, 1e-10)
        assert report.converged
        assert flux.tobytes() == (u + op.s * g.laplacian(z)).tobytes()


def test_sim2d_step_takes_at_most_two_implicit_iterations():
    # the sim2d benchmark setup without its perturbation: 128^2 cells, smooth
    # two-species data, p = 1, delta = tau = 0.01; the coefficients are smooth,
    # so the coarse block of the preconditioner nearly inverts the operator
    g = make_grid_2d(128, 128)
    profile = np.prod([np.cos(np.pi * x) for x in g.cell_centers()], axis=0)
    m = rd.ModelSpec(
        grid=g,
        delta=(0.01, 0.01),
        coefficients=(rd.SktCoefficients(0.05, (0.0, 1.0)),
                      rd.SktCoefficients(0.05, (1.0, 0.0))),
        initial_data=(1.0 + 0.25 * profile, 1.0 - 0.25 * profile),
    )
    cfg = rd.SchemeConfig(tau=0.01, horizon=0.1)
    _, infos = rd.step_with_info(rd.initial_state(m, cfg), m, cfg, cfg.tau)
    assert [info.cg_iters_implicit <= 2 for info in infos] == [True, True]


def test_2d_steps_of_the_readme_data_take_at_most_13_implicit_iterations():
    # the README config's rough data (species 1 a bump, species 2 a step;
    # coefficients from 0.05 to 1.06) on 24^2 cells at tau = 0.01: the coarse
    # block holds each implicit solve of the first 10 steps to 9-13 CG
    # iterations, which take 18-36 with the shift alone
    run = rd.parse_config(readme_config_2d())
    m, cfg = run.model, run.scheme
    assert run.grid.cells == (24, 24) and cfg.tau == 0.01
    assert [sp.init for sp in run.species] == ["bump:0.3,0.2,1.0", "step:0.0,1.0"]
    state, iterations = rd.initial_state(m, cfg), []
    for _ in range(10):
        state, infos = rd.step_with_info(state, m, cfg, cfg.tau)
        iterations += [info.cg_iters_implicit for info in infos]
    assert len(iterations) == 20 and max(iterations) <= 13


# numpy's Python-level wrappers: np.all, np.min, np.swapaxes, np.sum
# (fromnumeric), np.stack (shape_base) and np.linalg.norm (linalg, _linalg
# from numpy 2.0 on). On a 128-cell field each costs about as much as the
# arithmetic it wraps; the ndarray methods compute the same bits for less.
NUMPY_WRAPPER_FILES = {"fromnumeric.py", "shape_base.py", "linalg.py", "_linalg.py"}


def wrappers_entered(call):
    """The numpy Python wrappers that `call()` enters, as file:function."""
    profile = cProfile.Profile()
    profile.enable()
    call()
    profile.disable()
    return {f"{os.path.basename(path)}:{name}" for path, _, name in pstats.Stats(profile).stats
            if os.path.basename(path) in NUMPY_WRAPPER_FILES}


def step_and_check(m):
    """A step, one species' step again, and the diagnostics rows and checks of the step."""
    cfg = rd.SchemeConfig(tau=0.01, horizon=0.1)
    state = rd.initial_state(m, cfg)
    (A,), _ = coefficient_fields(m, state.u_tilde, (0,))
    masses = [m.grid.integral(row) for row in state.u]

    def call():
        after, infos = rd.step_with_info(state, m, cfg, cfg.tau)
        stepper.species_step(state, m, cfg, 0, A, cfg.tau)
        records = diagnostics.step_records(1, state, after, infos)
        diagnostics.check_step(state, records, rd.CheckTolerances(), masses)

    return call


def test_a_1d_step_calls_no_numpy_python_wrappers():
    assert sorted(wrappers_entered(step_and_check(two_species_model(make_grid_1d(128))))) == []


def test_a_2d_step_calls_no_numpy_python_wrappers_but_the_coarse_factorization():
    # the coarse block's leaves, of at most 36 rows, are factored by linalg's
    # cholesky and inverted by linalg's inv: those two, and what they enter, may remain
    square = np.eye(40) + 0.5
    allowed = wrappers_entered(lambda: (np.linalg.cholesky(square), np.linalg.inv(square)))
    entered = wrappers_entered(step_and_check(two_species_model(make_grid_2d(24, 20))))
    assert {"_linalg.py:cholesky", "linalg.py:cholesky"} & entered
    assert sorted(entered - allowed) == []


def test_a_2d_implicit_solve_of_a_constant_coefficient_starts_exactly():
    # the shift is the exact inverse of a constant diagonal, in 2D too, so the
    # solve starts from it and takes 0 CG iterations
    m = heat_model(make_grid_2d(20, 24, (1.0, 0.7)))
    cfg = rd.SchemeConfig(tau=0.01, horizon=0.1)
    _, (info,) = rd.step_with_info(rd.initial_state(m, cfg), m, cfg, cfg.tau)
    assert (info.cg_iters_implicit, info.cg_iters_regularize) == (0, 0)


def test_solver_failure_names_species(rng, monkeypatch):
    # 64 cells of random data at linear_tol = 1e-14: the exact starts of the
    # 1D implicit solves meet it, but species 2's regularization (residual
    # about 1e-13) does not within one iteration
    g = make_grid_1d(64)
    smooth = two_species_model(g)
    m = rd.ModelSpec(g, smooth.delta, smooth.coefficients,
                     tuple(rng.uniform(0.5, 1.5, g.n_cells) for _ in range(2)))
    good = rd.SchemeConfig(tau=0.01, horizon=0.1)
    state = rd.initial_state(m, good)
    crippled = rd.SchemeConfig(tau=0.01, horizon=0.1, linear_tol=1e-14)
    monkeypatch.setattr(stepper, "LINEAR_MAX_ITER", 1)
    with pytest.raises(LinearSolverError, match="species"):
        rd.step_with_info(state, m, crippled, crippled.tau)


# The exact 1D start of the implicit solve misses the relative-residual stop
# as tau / h^2 grows: with this data its residual over the threshold is 0.57
# at 4,096 cells and tau = 0.01, 2.3 at 8,192 cells, 1.75 at 1,024 cells and
# tau = 1 (1 CG iteration) and 7.1 here, where CG stalls for 10,000 iterations.
@pytest.mark.xfail(strict=True, raises=LinearSolverError,
                   reason="ROADMAP item 5: the stopping rule ignores the operator's scale")
def test_exact_1d_implicit_start_meets_the_stop_at_large_tau_over_h2(monkeypatch):
    monkeypatch.setattr(stepper, "LINEAR_MAX_ITER", 20)  # a stall fails in milliseconds
    g = make_grid_1d(2048)
    u = cosine_profile(g, 0.5)
    u_new, _, report = _solve_implicit(g, u, 0.05 + u * u, 1.0, LINEAR_TOL)
    assert report.iterations == 0
    assert abs(g.integral(u_new) - g.integral(u)) <= 1e-12 * g.integral(u)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        rd.SchemeConfig(tau=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        rd.SchemeConfig(tau=2.0, horizon=1.0)
    with pytest.raises(ValueError):
        rd.SchemeConfig(tau=0.1, horizon=1.0, linear_tol=0.0)
    with pytest.raises(ValueError, match="2\\*\\*-52"):
        rd.SchemeConfig(tau=0.1, horizon=1.0, linear_tol=np.nextafter(2**-52, 0))
    rd.SchemeConfig(tau=0.1, horizon=1.0, linear_tol=2**-52)
    with pytest.raises(ValueError):
        rd.SchemeConfig(tau=0.1, horizon=1.0, output_stride=0)
