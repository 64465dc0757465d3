import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff import fixedpoint, stepper
from relaxdiff.errors import PicardConvergenceError
from relaxdiff.fixedpoint import picard_step_with_info

from conftest import cosine_profile, lipschitz_cross_model, make_grid_1d, make_grid_2d


def smooth_coefficient_function(grid, rng, floor=0.5, ceil=2.0):
    """Random low-mode coefficient field as a function of time."""
    x = grid.cell_centers()[0] / grid.lengths[0]
    c = rng.uniform(-0.35, 0.35, 4)

    def A_of(t):
        out = (1.0 + c[0] * np.sin(2 * np.pi * x) + c[1] * np.cos(np.pi * x) * np.cos(t)
               + c[2] * np.sin(t + 1.0) * np.cos(2 * np.pi * x)
               + c[3] * np.sin(np.pi * x))
        return np.clip(out, floor, ceil)

    return A_of


def test_slab_constant_steady_state():
    g = make_grid_1d(10)
    A_nodes = [np.ones(10)] * 6
    w0 = rd.Field.constant(g, 1.25)
    trajectory = rd.solve_frozen_slab(A_nodes, w0, tau=0.1)
    for f in trajectory:
        assert np.array_equal(f.values, w0.values)


def test_slab_single_step_reduces_to_implicit_step():
    g = make_grid_1d(8)
    rng = np.random.default_rng(2)
    A = rng.uniform(0.4, 1.6, 8)
    w0 = rd.Field(g, rng.uniform(0.0, 2.0, 8))
    trajectory = rd.solve_frozen_slab([A], w0, tau=0.05)
    direct = rd.implicit_diffusion_step(w0, A, tau=0.05)
    assert np.array_equal(trajectory[-1].values, direct.values)
    assert len(trajectory) == 2


def test_slab_discrete_energy_identity_exact(rng):
    # marching identity: bulk + final gradient + per-step gradient increments
    # balance the initial-data pairing exactly
    g = make_grid_1d(8)
    n_steps = 16
    tau = 0.5 / n_steps
    A_nodes = [rng.uniform(0.5, 2.0, 8) for _ in range(n_steps)]
    w0v = rng.uniform(0.0, 2.0, 8)
    w0 = rd.Field(g, w0v)
    trajectory = rd.solve_frozen_slab(A_nodes, w0, tau, tol=1e-14)
    meas = g.cell_measure
    lhs = rhs = extra = 0.0
    S = np.zeros(8)
    for k, A in enumerate(A_nodes):
        z = A * trajectory[k + 1].values
        lhs += tau * float(z @ trajectory[k + 1].values) * meas
        rhs += tau * float(w0v @ z) * meas
        dS = tau * z
        extra += 0.5 * float((-g.laplacian(dS)) @ dS) * meas
        S += dS
    grad = 0.5 * float((-g.laplacian(S)) @ S) * meas
    assert extra > 0.0
    assert abs(lhs + grad + extra - rhs) <= 1e-8 * abs(rhs)
    # the reported residual is exactly the positive remainder term
    residual = rd.energy_identity_residual(trajectory, A_nodes, tau)
    assert residual == pytest.approx(extra / abs(rhs), rel=1e-6)


def test_slab_l2_bound(rng):
    g = make_grid_1d(12)
    T = 0.75
    n_steps = 15
    tau = T / n_steps
    for _ in range(5):
        A_nodes = [rng.uniform(0.4, 2.5, 12) for _ in range(n_steps)]
        sup_a = max(float(a.max()) for a in A_nodes)
        inf_a = min(float(a.min()) for a in A_nodes)
        w0v = rng.uniform(0.0, 3.0, 12)
        w0 = rd.Field(g, w0v)
        trajectory = rd.solve_frozen_slab(A_nodes, w0, tau)
        meas = g.cell_measure
        norm_sq = sum(tau * float(f.values @ f.values) * meas for f in trajectory[1:])
        w0_norm = np.sqrt(float(w0v @ w0v) * meas)
        bound = (sup_a / inf_a) * np.sqrt(T) * w0_norm
        assert np.sqrt(norm_sq) <= 1.1 * bound


def test_picard_constant_data_single_sweep():
    g = make_grid_1d(14)
    m = rd.ModelSpec(
        delta=(0.02, 0.05),
        coefficients=(rd.SktCoefficients(0.3, (0.2, 0.4)), rd.SktCoefficients(0.4, (0.1, 0.3))),
        initial_data=(rd.Field.constant(g, 1.0), rd.Field.constant(g, 2.0)),
    )
    cfg = rd.SchemeConfig(tau=0.1, horizon=0.1)
    state = rd.initial_state(m, cfg)
    nxt, sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    assert sweeps == 1
    for i in range(2):
        assert np.array_equal(nxt.u[i], state.u[i])


def test_picard_state_independent_coefficients_match_semi_implicit_bitwise():
    g = make_grid_1d(16)
    m = rd.ModelSpec(
        delta=(0.05,),
        coefficients=(rd.SktCoefficients(0.3, (0.0,)),),
        initial_data=(rd.Field(g, cosine_profile(g)),),
    )
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.05)
    state = rd.initial_state(m, cfg)
    semi = rd.step_with_info(state, m, cfg, cfg.tau)[0]
    picard, sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    # the first sweep is the semi-implicit step, and with no density read it
    # is the fixed point
    assert sweeps == 1
    assert np.array_equal(semi.u[0], picard.u[0])
    assert np.array_equal(semi.u_tilde[0], picard.u_tilde[0])
    assert np.array_equal(semi.w[0], picard.w[0])


def test_picard_preserves_mass_and_positivity():
    g = make_grid_1d(32)
    m = lipschitz_cross_model(g)
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    state = rd.initial_state(m, cfg)
    nxt = picard_step_with_info(state, m, cfg, cfg.tau)[0]
    for i in range(2):
        assert abs(g.integral(nxt.u[i]) - g.integral(state.u[i])) \
            <= 1e-12 * g.integral(state.u[i])
        assert np.min(nxt.u[i]) >= -1e-11
        assert np.min(nxt.w[i] - state.w[i]) >= -1e-11


def test_picard_gap_shrinks_quadratically_per_step():
    g = make_grid_1d(16)
    m = lipschitz_cross_model(g, delta=0.05)
    gaps = []
    for tau in (0.0025, 0.00125, 0.000625, 0.0003125):
        cfg = rd.SchemeConfig(tau=tau, horizon=tau, linear_tol=1e-13)
        state = rd.initial_state(m, cfg)
        semi = rd.step_with_info(state, m, cfg, cfg.tau)[0]
        # the sweeps stop at 10 * linear_tol = 1e-12
        picard, _ = picard_step_with_info(state, m, cfg, cfg.tau)
        gaps.append(max(np.max(np.abs(semi.u[i] - picard.u[i]))
                        for i in range(2)))
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    for r in ratios:
        assert 2.8 <= r <= 5.2  # 4 with 30 percent slack


def p2_cross_model():
    """The xval1d benchmark model without its perturbation: 128 cells, p = 2."""
    g = make_grid_1d(128)
    return rd.ModelSpec(
        delta=(0.01, 0.01),
        coefficients=(rd.SktCoefficients(0.05, (0.0, 1.0), 2.0),
                      rd.SktCoefficients(0.05, (1.0, 0.0), 2.0)),
        initial_data=(rd.Field(g, cosine_profile(g, 0.25)),
                      rd.Field(g, cosine_profile(g, -0.25))),
    )


def state_independent_model():
    g = make_grid_1d(128)
    return rd.ModelSpec(
        delta=(0.01, 0.02),
        coefficients=(rd.SktCoefficients(0.3, (0.0, 0.0)), rd.SktCoefficients(0.5, (0.0, 0.0))),
        initial_data=(rd.Field(g, cosine_profile(g, 0.25)),
                      rd.Field(g, cosine_profile(g, -0.25))),
    )


def one_way_model():
    """a_2 = a_2(u_tilde_1) with a constant a_1: no sweep reads its start."""
    g = make_grid_1d(128)
    return rd.ModelSpec(
        delta=(0.01, 0.01),
        coefficients=(rd.SktCoefficients(0.05, (0.0, 0.0), 2.0),
                      rd.SktCoefficients(0.05, (1.0, 0.0), 2.0)),
        initial_data=(rd.Field(g, cosine_profile(g, 0.25)),
                      rd.Field(g, cosine_profile(g, -0.25))),
    )


def tabulated_model():
    g = make_grid_1d(8)
    spec = rd.TabulatedCoefficients(lambda r: 1.0 + r[0], lower_bound=1.0)
    return rd.ModelSpec(delta=(0.1, 0.1), coefficients=(spec, spec),
                        initial_data=(rd.Field.constant(g, 1.0),) * 2)


def skt_model(*couplings):
    g = make_grid_1d(8)
    return rd.ModelSpec(delta=(0.1,) * len(couplings),
                        coefficients=tuple(rd.SktCoefficients(0.5, c, 2.0) for c in couplings),
                        initial_data=(rd.Field.constant(g, 1.0),) * len(couplings))


@pytest.mark.parametrize("model, reads", [
    (p2_cross_model, [1]),
    (lambda: skt_model((0.0, 1.0), (1.0, 0.0)), [1]),
    (lambda: skt_model((1.0, 1.0), (1.0, 0.0)), [0, 1]),
    (lambda: skt_model((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)), [1]),
    (state_independent_model, []),
    (one_way_model, []),
    (tabulated_model, [0, 1]),
], ids=["p2_cross", "pure_cross", "self_and_cross", "one_self_coupling_of_3", "all_zero",
        "one_way", "tabulated"])
def test_sweep_reads_the_densities_some_earlier_species_depends_on(model, reads):
    # species j freezes at this sweep's u_tilde_k for k < j, so the start's
    # u_tilde_k is read only when some j <= k depends on it; a tabulated
    # coefficient is opaque and depends on every species
    assert fixedpoint._sweep_reads(model()) == reads


def plain_sweep(state, m, cfg, u_tilde, z):
    """One unmixed Gauss-Seidel sweep from `u_tilde`, warm-started from `z` (updated)."""
    u, u_tilde, w = state.u.copy(), u_tilde.copy(), state.w.copy()
    for i in range(m.n_species):
        A = fixedpoint.coefficient_fields(m, u_tilde, (i,))[0][0]
        u[i], u_tilde[i], w[i], _, z[i] = stepper.species_step(state, m, cfg, i, A, cfg.tau, z[i])
    return (u, u_tilde, w), u_tilde


@pytest.mark.parametrize("model", [state_independent_model, one_way_model])
def test_picard_empty_read_set_takes_one_sweep_that_is_the_fixed_point(model):
    # with no density read the sweep map is constant: its first output is the
    # fixed point, and a second plain sweep from it changes no bit (the
    # semi-implicit comparison is
    # test_picard_state_independent_coefficients_match_semi_implicit_bitwise)
    m = model()
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    state = rd.initial_state(m, cfg)
    picard, sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    assert sweeps == 1
    z = [None] * m.n_species
    _, u_tilde = plain_sweep(state, m, cfg, state.u_tilde, z)
    twice, _ = plain_sweep(state, m, cfg, u_tilde, z)
    for a, b in zip((picard.u, picard.u_tilde, picard.w), twice):
        assert np.array_equal(a, b)


# the p2 model takes 9 mixed sweeps and 18 plain Gauss-Seidel ones
@pytest.mark.parametrize("model, expected_sweeps", [(p2_cross_model, 9),
                                                    (state_independent_model, 1)])
def test_picard_sweeps_count_every_implicit_solve(monkeypatch, model, expected_sweeps):
    # the first sweep starts from the previous time level, so no predictor
    # solves outside the sweeps: each sweep is one implicit solve per species
    m = model()
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    state = rd.initial_state(m, cfg)
    solve = stepper.cg_solve
    operators = []

    def counting(A, b, tol, max_iter, x0=None):
        operators.append(type(A))
        return solve(A, b, tol, max_iter, x0=x0)

    monkeypatch.setattr(stepper, "cg_solve", counting)
    _, sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    assert sweeps == expected_sweeps
    assert operators.count(stepper._ImplicitStepOperator) == m.n_species * sweeps


def test_picard_sweeps_warm_start_their_implicit_solves(monkeypatch):
    # each sweep starts its implicit solves from the previous sweep's z; the
    # cold run drops that start, so the two differ only in the CG iterations.
    # 24^2 cells of random data: wider than the 2D preconditioner's exact
    # coarse block, whose solves of smooth data take one iteration warm or
    # cold (a 1D solve starts from its answer by elimination instead)
    smooth = p2_cross_model()
    g = make_grid_2d(24, 24)
    rng = np.random.default_rng(7)
    m = rd.ModelSpec(smooth.delta, smooth.coefficients,
                     tuple(rd.Field(g, rng.uniform(0.5, 1.5, g.n_cells)) for _ in range(2)))
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    solve = stepper.cg_solve
    totals = {}
    for start in ("cold", "warm"):
        iterations = []

        def counting(A, b, tol, max_iter, x0=None):
            x, report = solve(A, b, tol, max_iter, x0=x0 if start == "warm" else None)
            if isinstance(A, stepper._ImplicitStepOperator):
                iterations.append(report.iterations)
            return x, report

        monkeypatch.setattr(stepper, "cg_solve", counting)
        _, sweeps = picard_step_with_info(rd.initial_state(m, cfg), m, cfg, cfg.tau)
        totals[start] = (sum(iterations), len(iterations), sweeps)
    (cold, cold_solves, cold_sweeps), (warm, warm_solves, warm_sweeps) = (
        totals["cold"], totals["warm"])
    assert (warm_solves, warm_sweeps) == (cold_solves, cold_sweeps)
    assert cold_sweeps > 10
    assert warm <= 0.7 * cold


def test_picard_sweeps_run_in_gauss_seidel_order():
    # each species freezes at the newest regularized densities, so a_2 sees
    # this sweep's u_tilde_1; with a_1 = a_1(u_tilde_2) and a_2 = a_2(u_tilde_1)
    # that squares the contraction factor of the Jacobi order, in which every
    # species froze at the previous candidate: Jacobi sweeps took 32 on this
    # step (and 36 on the first step of the xval1d benchmark workload) and
    # plain Gauss-Seidel sweeps take 18; the Anderson mix of depth 3 of the
    # density the sweeps read, u_tilde_2, takes 9
    m = p2_cross_model()
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    _, sweeps = picard_step_with_info(rd.initial_state(m, cfg), m, cfg, cfg.tau)
    assert sweeps == 9


def state_arrays(state):
    return state.u, state.u_tilde, state.w


# p2_cross_model's step is a mixed one of 9 sweeps; the 2D model's implicit
# solves run CG from the previous sweep's z
@pytest.mark.parametrize("model, expected_sweeps", [
    (p2_cross_model, 9),
    (lambda: lipschitz_cross_model(make_grid_2d(16, 12)), 6),
], ids=["1d_p2_cross", "2d_lipschitz_cross"])
def test_no_step_writes_to_its_inputs(model, expected_sweeps):
    # a state's rows are writable views of its arrays: a step that wrote to
    # its input would change the start that every later step and study reads
    m = model()
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.04)
    fingerprint = lambda s: (s.time, [a.tobytes() for a in state_arrays(s)])  # noqa: E731
    data = [f.values.tobytes() for f in m.initial_data]
    state = rd.initial_state(m, cfg)
    start = fingerprint(state)
    semi, _ = rd.step_with_info(state, m, cfg, cfg.tau)
    assert fingerprint(state) == start
    picard, sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    assert sweeps == expected_sweeps and fingerprint(state) == start
    end = fingerprint(semi)
    rd.w_increment_residual(m, state, semi)
    assert fingerprint(state) == start and fingerprint(semi) == end
    final = rd.run(m, cfg)
    assert [f.values.tobytes() for f in m.initial_data] == data
    # no returned array shares memory with an input
    initial = [f.values for f in m.initial_data]
    for outputs, inputs in ((state, initial), (final, initial),
                            (semi, state_arrays(state)), (picard, state_arrays(state))):
        for a in state_arrays(outputs):
            assert not any(np.shares_memory(a, b) for b in inputs)


def test_picard_mix_reaches_the_plain_sweeps_fixed_point(monkeypatch):
    # both loops stop within 10 * linear_tol of one fixed point, and each
    # solve adds about linear_tol: the bound of
    # test_random_picard_steps_are_guaranteed_fixed_points
    m = p2_cross_model()
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    state = rd.initial_state(m, cfg)
    mixed, mixed_sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    monkeypatch.setattr(fixedpoint, "DEPTH", 0)
    plain, plain_sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    assert mixed_sweeps < plain_sweeps == 18
    moved = np.linalg.norm(mixed.u - plain.u)
    size = np.linalg.norm(plain.u)
    assert moved <= (10 + 10) * cfg.linear_tol * size


def test_anderson_mix_matches_the_pairwise_gram_loop():
    # the Gram matrix and its right-hand side are one einsum each; a loop
    # over pairs of residual differences is the reference, equal up to the
    # order of each sum
    rng = np.random.default_rng(5)
    history, pairs = [], []
    for _ in range(fixedpoint.DEPTH + 3):
        g, f = rng.standard_normal(300), rng.standard_normal(300)
        mixed = fixedpoint._anderson_mix(history, g, f)
        pairs = (pairs + [(g, f)])[-(fixedpoint.DEPTH + 1):]
        expected = g
        if len(pairs) > 1:
            dG = [b[0] - a[0] for a, b in zip(pairs, pairs[1:])]
            dF = [b[1] - a[1] for a, b in zip(pairs, pairs[1:])]
            gram = np.array([[float(np.dot(a, b)) for b in dF] for a in dF])
            gamma = np.linalg.solve(gram, [float(np.dot(a, f)) for a in dF])
            expected = g - sum(c * d for c, d in zip(gamma, dG))
        np.testing.assert_allclose(mixed, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("gram_solve", ["raises", "nan", "inf"])
def test_picard_mix_falls_back_to_the_plain_sweep(monkeypatch, gram_solve):
    # a Gram solve that fails or gives no finite gamma leaves the next sweep
    # at the plain sweep's output, so every sweep is a plain Gauss-Seidel one
    m = p2_cross_model()
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    state = rd.initial_state(m, cfg)
    monkeypatch.setattr(fixedpoint, "DEPTH", 0)
    plain, plain_sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    monkeypatch.setattr(fixedpoint, "DEPTH", 3)
    calls = []

    def failing(gram, rhs):
        calls.append(len(rhs))
        if gram_solve == "raises":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(len(rhs), float(gram_solve))

    monkeypatch.setattr(np.linalg, "solve", failing)
    fallen_back, sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    # the history restarts at each failure, so every solve has one difference
    assert calls == [1] * (sweeps - 2)
    assert sweeps == plain_sweeps
    for a, b in zip((fallen_back.u, fallen_back.u_tilde, fallen_back.w),
                    (plain.u, plain.u_tilde, plain.w)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("linear_tol", [1e-10, 1e-6])
def test_picard_sweeps_stop_at_ten_times_linear_tol(monkeypatch, linear_tol):
    # the stop follows the slack of the solves the sweeps iterate: the last
    # sweep is the first whose residual, the relative change of the density
    # it read (u_tilde_2 on this model), is below 10 * linear_tol, and so is
    # the relative change from each coefficient it froze to the coefficient
    # at its own u_tilde, which is evaluated only once the residual is below it
    m = p2_cross_model()
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02, linear_tol=linear_tol)
    sweeps_seen, ends = [], []
    fields, step = fixedpoint.coefficient_fields, fixedpoint.species_step

    def reading(m, u_tilde, species):
        out = fields(m, u_tilde, species)
        if tuple(species) == (0,):  # a sweep starts: species 1 freezes at its start
            # a copy: the sweep overwrites this row of its u_tilde
            sweeps_seen.append({"start": u_tilde[1].copy(), "frozen": []})
        if len(species) == 1:
            sweeps_seen[-1]["frozen"].append(out[0][0])
        else:
            sweeps_seen[-1]["again"] = out[0]
        return out

    def returning(state, m, cfg, i, A, dt, z_start):
        out = step(state, m, cfg, i, A, dt, z_start)
        if i == 1:
            ends.append(out[1])
        return out

    monkeypatch.setattr(fixedpoint, "coefficient_fields", reading)
    monkeypatch.setattr(fixedpoint, "species_step", returning)
    _, sweeps = picard_step_with_info(rd.initial_state(m, cfg), m, cfg, cfg.tau)
    relative = lambda d, ref: np.linalg.norm(d) / np.linalg.norm(ref)  # noqa: E731
    changes = []
    for seen, end in zip(sweeps_seen, ends):
        change = relative(end - seen["start"], seen["start"])
        assert ("again" in seen) == (change < 10 * linear_tol)
        if "again" in seen:
            change = max(change, *(relative(a - b, b)
                                   for a, b in zip(seen["again"], seen["frozen"])))
        changes.append(change)
    assert len(changes) == sweeps > 2
    assert changes[-1] < 10 * linear_tol <= min(changes[:-1])


def test_picard_stop_checks_the_coefficients_at_the_steps_own_u_tilde():
    # with a(u_tilde) = 0.2 + u_tilde^3 on data from 1 to 19, a relative
    # change of u_tilde moves the coefficient, and the step's u, about p = 3
    # times as much: the residual alone stopped this step after 13 sweeps,
    # where one more freeze at its own u_tilde moved u by 1.14 times the bound
    # of test_random_picard_steps_are_guaranteed_fixed_points; with the
    # coefficients checked too it takes 15 sweeps and moves u by 0.01 of it
    g = make_grid_1d(16)
    m = rd.ModelSpec(delta=(0.1,), coefficients=(rd.SktCoefficients(0.2, (1.0,), 3.0),),
                     initial_data=(rd.Field(g, cosine_profile(g, 9.0, 10.0)),))
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    state = rd.initial_state(m, cfg)
    new, sweeps = picard_step_with_info(state, m, cfg, cfg.tau)
    A = fixedpoint.coefficient_fields(m, new.u_tilde, (0,))[0][0]
    again = stepper.species_step(state, m, cfg, 0, A, cfg.tau)[0]
    assert sweeps == 15
    moved = np.linalg.norm(again - new.u[0])
    assert moved <= (10 + 10) * cfg.linear_tol * np.linalg.norm(new.u[0])


def test_picard_stalled_mix_is_not_convergence(monkeypatch):
    # a mix that returns where the sweep started repeats that sweep, so the
    # step stops changing while its residual stays put: a stop on the change
    # of u took this as converged after 2 sweeps, 1.3e-2 from the fixed point
    monkeypatch.setattr(fixedpoint, "_anderson_mix", lambda history, g, f: g - f)
    m = p2_cross_model()
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.02)
    with pytest.raises(PicardConvergenceError) as err:
        picard_step_with_info(rd.initial_state(m, cfg), m, cfg, cfg.tau)
    assert err.value.last_change >= 10 * cfg.linear_tol


def test_picard_nonconvergence_is_reported(monkeypatch):
    # at this coupling, step and near-vanishing density the sweep map does not
    # contract: its mixed sweeps still change the densities by 1e-3 after 300
    # sweeps, so no cap is reached by convergence; 8 keeps the test short
    monkeypatch.setattr(fixedpoint, "MAX_SWEEPS", 8)
    g = make_grid_1d(16)
    m = lipschitz_cross_model(g, coupling=100.0, delta=1e-3, amplitude=0.99)
    cfg = rd.SchemeConfig(tau=1.0, horizon=1.0)
    state = rd.initial_state(m, cfg)
    with pytest.raises(PicardConvergenceError) as err:
        picard_step_with_info(state, m, cfg, cfg.tau)
    assert err.value.last_change >= 10 * cfg.linear_tol
    assert str(err.value).startswith("step from t = 0.0 (tau = 1.0): ")
    assert "did not converge in 8 sweeps" in str(err.value)


def test_cross_validate_requires_lipschitz():
    g = make_grid_1d(8)
    m = rd.ModelSpec(
        delta=(0.1,),
        coefficients=(rd.SktCoefficients(0.5, (1.0,), 0.5),),
        initial_data=(rd.Field(g, cosine_profile(g)),),
    )
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.1)
    with pytest.raises(ValueError, match="Lipschitz"):
        rd.cross_validate(m, cfg)


@pytest.mark.parametrize("halvings", [0, -1])
def test_cross_validate_rejects_fewer_than_one_halving_before_any_run(halvings, monkeypatch):
    # with no halving there is no shrink ratio, and the report would pass unchecked
    m = lipschitz_cross_model(make_grid_1d(8))
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.1)

    def no_run(*args):
        raise AssertionError("cross_validate ran a step")

    monkeypatch.setattr(fixedpoint, "initial_state", no_run)
    with pytest.raises(ValueError, match="halvings must be at least 1"):
        rd.cross_validate(m, cfg, halvings=halvings)


def test_cross_validate_rejects_an_invalid_finest_step_before_any_run(monkeypatch):
    # tau / 2**60 puts 2**61 steps in the horizon, past the 2**53 that SchemeConfig allows
    m = lipschitz_cross_model(make_grid_1d(4))
    cfg = rd.SchemeConfig(tau=0.01, horizon=0.02)

    def no_run(*args):
        raise AssertionError("cross_validate ran a level")

    monkeypatch.setattr(fixedpoint, "march", no_run)
    with pytest.raises(ValueError, match=r"horizon / tau must not exceed 2\*\*53"):
        rd.cross_validate(m, cfg, halvings=60)


def test_cross_validate_constant_data_degenerate():
    g = make_grid_1d(12)
    m = rd.ModelSpec(
        delta=(0.05,),
        coefficients=(rd.SktCoefficients(0.2, (0.5,)),),
        initial_data=(rd.Field.constant(g, 1.0),),
    )
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.2)
    report = rd.cross_validate(m, cfg, halvings=2)
    assert report.degenerate
    assert report.passed()
    assert all(r.discrepancy <= 10 * cfg.linear_tol for r in report.rows)


def test_cross_validate_state_independent_coefficients_degenerate():
    g = make_grid_1d(12)
    m = rd.ModelSpec(
        delta=(0.05,),
        coefficients=(rd.SktCoefficients(0.4, (0.0,)),),
        initial_data=(rd.Field(g, cosine_profile(g)),),
    )
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.2)
    report = rd.cross_validate(m, cfg, halvings=2)
    assert report.degenerate and report.passed()


def test_cross_validate_rows_count_every_sweep_of_their_level(monkeypatch):
    g = make_grid_1d(16)
    m = lipschitz_cross_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.25)
    step = fixedpoint.picard_step_with_info
    sweeps_per_tau = {}

    def recording(state, m, cfg_k, tau=None):
        new_state, sweeps = step(state, m, cfg_k, tau=tau)
        sweeps_per_tau[cfg_k.tau] = sweeps_per_tau.get(cfg_k.tau, 0) + sweeps
        return new_state, sweeps

    monkeypatch.setattr(fixedpoint, "picard_step_with_info", recording)
    report = rd.cross_validate(m, cfg, halvings=2)
    assert [(r.tau, r.sweeps) for r in report.rows] == list(sweeps_per_tau.items())
    # at least one sweep per step: 5, 10 and 20 steps
    assert all(r.sweeps >= 5 * 2**k for k, r in enumerate(report.rows))


def test_cross_validate_discrepancy_shrinks():
    g = make_grid_1d(32)
    m = lipschitz_cross_model(g)
    cfg = rd.SchemeConfig(tau=0.05, horizon=0.5)
    report = rd.cross_validate(m, cfg, halvings=3)
    assert not report.degenerate
    assert len(report.rows) == 4
    for ratio in report.shrink_ratios():
        assert ratio >= 1.5
    assert report.passed()
