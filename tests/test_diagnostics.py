import dataclasses
import math

import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff import stepper
from relaxdiff.diagnostics import CSV_HEADER, invariant_rows, step_records
from relaxdiff.sparse import LINEAR_TOL
from relaxdiff.stepper import step_with_info

from conftest import cosine_profile, make_grid_1d, run_with_rows, two_species_model


def run_one_step(m, cfg):
    state = rd.initial_state(m, cfg)
    nxt, infos = step_with_info(state, m, cfg, cfg.tau)
    return state, nxt, infos


def check(before, after, infos, tolerances):
    """`check_step` on the records of `after`, with the totals before as reference."""
    masses = [before.grid.integral(row) for row in before.u]
    return rd.check_step(before, step_records(1, before, after, infos), tolerances, masses)


def test_check_step_clean_on_steady_state():
    g = make_grid_1d(8)
    m = rd.ModelSpec(
        grid=g,
        delta=(0.1,),
        coefficients=(rd.SktCoefficients(0.4, (0.2,)),),
        initial_data=(np.full(g.n_cells, 1.0),),
    )
    cfg = rd.SchemeConfig(tau=0.1, horizon=0.1)
    before, after, infos = run_one_step(m, cfg)
    assert check(before, after, infos, rd.CheckTolerances()) == []


def test_check_step_clean_on_cross_diffusion_step():
    g = make_grid_1d(4)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    before, after, infos = run_one_step(m, cfg)
    tolerances = rd.CheckTolerances.from_linear_tol(cfg.linear_tol)
    assert check(before, after, infos, tolerances) == []


def test_check_step_flags_injected_mass_drift():
    g = make_grid_1d(8)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    before, after, infos = run_one_step(m, cfg)
    tampered = after.u.copy()
    tampered[1, 0] += 1e-3
    broken = dataclasses.replace(after, u=tampered)
    failed = check(before, broken, infos, rd.CheckTolerances())
    mass_rows = [row for row in failed if "mass" in row[1]]
    assert mass_rows and all(sp == 2 for sp, *_ in mass_rows)


def test_check_step_flags_negativity_and_monotonicity():
    m = two_species_model(make_grid_1d(6))
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    before, after, infos = run_one_step(m, cfg)
    bad_u, bad_w = after.u.copy(), after.w.copy()
    bad_u[0, 2] = -1e-3
    bad_u[0, 3] += 1e-3  # keep the mass unchanged
    bad_w[0, 1] = before.w[0, 1] - 1e-3
    broken = dataclasses.replace(after, u=bad_u, w=bad_w)
    checks = {row[1] for row in check(before, broken, infos, rd.CheckTolerances())}
    assert "neg_u" in checks
    assert "neg_w_increment" in checks


def test_check_step_infinite_tolerances_accept_anything():
    g = make_grid_1d(6)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    before, after, infos = run_one_step(m, cfg)
    garbled = dataclasses.replace(after, u=np.stack([-np.ones(6), after.u[1]]))
    loose = rd.CheckTolerances(mass=math.inf, positivity=math.inf, monotonicity=math.inf)
    assert check(before, garbled, infos, loose) == []


def test_default_tolerances_are_those_of_the_default_linear_tol():
    # the positivity and monotonicity slack is 10 * linear_tol, whatever its source
    assert rd.CheckTolerances() == rd.CheckTolerances.from_linear_tol(LINEAR_TOL)


def test_check_step_is_pure():
    g = make_grid_1d(6)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    before, after, infos = run_one_step(m, cfg)
    arrays = (before.u, before.u_tilde, before.w, after.u, after.u_tilde, after.w)
    snapshot = [a.copy() for a in arrays]
    check(before, after, infos, rd.CheckTolerances())
    for original, a in zip(snapshot, arrays):
        assert np.array_equal(original, a)


def test_check_step_follows_the_records():
    # the states are clean; only the record says that w decreased
    g = make_grid_1d(6)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    before, after, infos = run_one_step(m, cfg)
    records = step_records(1, before, after, infos)
    records[1] = dataclasses.replace(records[1], w_min_increment=-1e-3)
    masses = [g.integral(row) for row in before.u]
    tolerances = rd.CheckTolerances.from_linear_tol(cfg.linear_tol)
    failed = rd.check_step(before, records, tolerances, masses)
    assert [(sp, check) for sp, check, *_ in failed] == [(2, "neg_w_increment")]
    assert failed == [row for row in invariant_rows(before, records, tolerances, masses)
                      if not row[2] <= row[3]]
    assert rd.check_step(before, step_records(1, before, after, infos), tolerances,
                         masses) == []


@pytest.mark.parametrize("column, check", [("min_u", "neg_u"), ("min_utilde", "neg_utilde"),
                                           ("w_min_increment", "neg_w_increment")])
def test_check_step_fails_a_nan_minimum(column, check):
    # a NaN minimum must fail its sign row, as a NaN mass fails the mass rows
    g = make_grid_1d(6)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    before, after, infos = run_one_step(m, cfg)
    records = step_records(1, before, after, infos)
    records[0] = dataclasses.replace(records[0], **{column: math.nan})
    masses = [g.integral(row) for row in before.u]
    tolerances = rd.CheckTolerances.from_linear_tol(cfg.linear_tol)
    [(sp, name, value, _)] = rd.check_step(before, records, tolerances, masses)
    assert (sp, name) == (1, check) and math.isnan(value)


def test_step_records_shape_and_header():
    g = make_grid_1d(6)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    before, after, infos = run_one_step(m, cfg)
    records = step_records(1, before, after, infos)
    assert len(records) == 2
    assert [r.species for r in records] == [1, 2]
    lines = [CSV_HEADER] + [r.to_csv_row() for r in records]
    assert lines[0].startswith("step,time,species,")
    assert [line.count(",") for line in lines] == [CSV_HEADER.count(",")] * 3
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["1", repr(after.time), "1"], ["1", repr(after.time), "2"]]


def test_diagnostics_rows_ordered_by_time():
    g = make_grid_1d(8)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.1)
    _, rows = run_with_rows(m, cfg)
    times = [r.time for r in rows]
    assert times == sorted(times)
    pairs = {(r.step, r.species) for r in rows}
    assert len(pairs) == len(rows)


def test_fit_linear_bound_constant_data_flat():
    g = make_grid_1d(8)
    m = rd.ModelSpec(
        grid=g,
        delta=(0.2,),
        coefficients=(rd.SktCoefficients(0.4, (0.3,)),),
        initial_data=(np.full(g.n_cells, 1.5),),
    )
    cfg = rd.SchemeConfig(tau=0.05, horizon=1.0)
    fit = rd.fit_linear_bound(m, cfg, horizons=[0.25, 0.5, 1.0])
    assert fit.sup_utilde == pytest.approx((0.3, 0.3, 0.3), rel=1e-12)
    assert abs(fit.fitted_slope) <= 1e-10 * abs(fit.fitted_intercept)
    assert fit.horizons == (0.25, 0.5, 1.0)
    assert all(a <= b + 1e-15 for a, b in zip(fit.sup_utilde, fit.sup_utilde[1:]))


def test_fit_linear_bound_heat_reduction_sup_at_initial_time():
    g = make_grid_1d(32)
    m = rd.ModelSpec(
        grid=g,
        delta=(0.1,),
        coefficients=(rd.SktCoefficients(1.0, (0.0,)),),
        initial_data=(cosine_profile(g),),
    )
    cfg = rd.SchemeConfig(tau=0.01, horizon=1.0)
    fit = rd.fit_linear_bound(m, cfg, horizons=[0.25, 0.5, 1.0])
    # the sup-norm decays, so the running sup is pinned at t = 0
    initial = rd.regularize(g, m.initial_data[0], 0.1)
    expected = 0.1 * float(np.max(np.abs(initial)))
    assert fit.sup_utilde == pytest.approx((expected,) * 3, rel=1e-9)
    assert abs(fit.fitted_slope) <= 1e-9 * abs(fit.fitted_intercept)


def test_fit_linear_bound_needs_three_horizons():
    g = make_grid_1d(8)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=1.0)
    with pytest.raises(ValueError):
        rd.fit_linear_bound(m, cfg, horizons=[0.5, 1.0])


def test_fit_linear_bound_horizon_before_the_first_step_reads_the_initial_state():
    g = make_grid_1d(32)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.01, horizon=1.0)
    fit = rd.fit_linear_bound(m, cfg, horizons=[cfg.tau / 2, 0.05, 0.1])
    start = rd.initial_state(m, cfg)
    assert fit.sup_utilde[0] == max(d * float(np.max(np.abs(row)))
                                    for d, row in zip(m.delta, start.u_tilde))
    assert fit.sup_utilde[0] <= fit.sup_utilde[1] <= fit.sup_utilde[2]


@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
def test_fit_linear_bound_rejects_a_bad_horizon_before_any_run(bad, monkeypatch):
    g = make_grid_1d(8)
    m = two_species_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=1.0)

    def no_run(*args, **kwargs):
        raise AssertionError("fit_linear_bound ran the model")

    monkeypatch.setattr(stepper, "run", no_run)
    with pytest.raises(ValueError, match="horizons must be positive and finite"):
        rd.fit_linear_bound(m, cfg, horizons=[bad, 0.5, 1.0])


def test_energy_identity_residual_zero_data():
    g = make_grid_1d(8)
    A_nodes = [np.ones(8)] * 4
    w0 = np.full(g.n_cells, 0.0)
    trajectory = rd.solve_frozen_slab(g, A_nodes, w0, tau=0.1)
    assert rd.energy_identity_residual(g, trajectory, A_nodes, 0.1) == 0.0


def test_energy_identity_residual_constant_data():
    g = make_grid_1d(8)
    A_nodes = [np.ones(8)] * 5
    w0 = np.full(g.n_cells, 2.0)
    trajectory = rd.solve_frozen_slab(g, A_nodes, w0, tau=0.1)
    assert rd.energy_identity_residual(g, trajectory, A_nodes, 0.1) == 0.0


def test_energy_identity_residual_shape_check():
    g = make_grid_1d(8)
    w0 = np.full(g.n_cells, 1.0)
    trajectory = rd.solve_frozen_slab(g, [np.ones(8)] * 3, w0, tau=0.1)
    with pytest.raises(ValueError):
        rd.energy_identity_residual(g, trajectory, [np.ones(8)] * 2, 0.1)


def test_energy_identity_residual_halves_with_tau(rng):
    g = make_grid_1d(8)
    x = g.cell_centers()[0]
    c = rng.uniform(-0.35, 0.35, 4)

    def A_of(t):
        return (1.0 + c[0] * np.sin(2 * np.pi * x) + c[1] * np.cos(np.pi * x) * np.cos(t)
                + c[2] * np.sin(t + 1.0) * np.cos(2 * np.pi * x) + c[3] * np.sin(np.pi * x))

    b = rng.uniform(-0.5, 0.5, 3)
    w0 = (1.0 + b[0] * np.cos(np.pi * x) + b[1] * np.cos(2 * np.pi * x)
          + b[2] * np.sin(np.pi * x))
    T = 0.5
    residuals = []
    for n_steps in (16, 32, 64):
        tau = T / n_steps
        A_nodes = [A_of(k * tau) for k in range(n_steps)]
        trajectory = rd.solve_frozen_slab(g, A_nodes, w0, tau, tol=1e-13)
        residuals.append(rd.energy_identity_residual(g, trajectory, A_nodes, tau))
    for r1, r2 in zip(residuals, residuals[1:]):
        assert 1.4 <= r1 / r2 <= 2.6
