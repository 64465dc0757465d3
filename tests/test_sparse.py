import inspect

import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff import sparse
from relaxdiff.errors import DimensionMismatchError, LinearSolverError

from conftest import dense_laplacian, make_grid_1d


def random_spd(rng, n, cond=50.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return q @ np.diag(eigs) @ q.T


class DenseOperator:
    """Minimal operator wrapper so cg_solve can consume a dense test matrix."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.n_rows, self.n_cols = self.A.shape

    def matvec(self, x):
        return self.A @ x

    def precondition(self, r):
        return r


def test_cg_two_by_two():
    A = DenseOperator([[2.0, -1.0], [-1.0, 2.0]])
    x, report = rd.cg_solve(A, np.array([2.0, 0.0]), tol=1e-12)
    assert report.converged
    assert x == pytest.approx([4 / 3, 2 / 3], rel=1e-12)


def test_cg_identity_single_iteration():
    A = DenseOperator(np.eye(3))
    b = np.array([3.0, -1.0, 7.0])
    x, report = rd.cg_solve(A, b, tol=1e-12)
    assert report.iterations <= 1
    assert np.array_equal(x, b)


def test_cg_resolvent_constant_rhs():
    g = make_grid_1d(3, 3.0)
    dense = np.eye(3) - 0.7 * dense_laplacian(g)
    op = DenseOperator(dense)
    b = np.full(3, 4.25)
    x, report = rd.cg_solve(op, b, tol=1e-12)
    assert report.converged
    assert x == pytest.approx([4.25] * 3, rel=1e-13)


def test_cg_zero_rhs():
    # zero is the exact solution, whatever the start
    A = DenseOperator(2.0 * np.eye(2))
    for start in (None, np.array([1.0, -1.0])):
        x, report = rd.cg_solve(A, np.zeros(2), tol=1e-12, x0=start)
        assert report.converged and report.iterations == 0
        assert np.all(x == 0.0)


def test_cg_matches_dense_on_random_spd(rng):
    for n in (4, 8, 16, 32, 64):
        A = random_spd(rng, n)
        b = rng.standard_normal(n)
        expected = np.linalg.solve(A, b)
        x, report = rd.cg_solve(DenseOperator(A), b, tol=1e-12)
        assert report.converged
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_cg_iteration_budget(rng):
    # n iterations in exact arithmetic; 3n is the floating-point allowance
    for n in (8, 24, 64):
        A = random_spd(rng, n, cond=200.0)
        b = rng.standard_normal(n)
        x, report = rd.cg_solve(DenseOperator(A), b, tol=1e-10)
        assert report.converged
        assert report.iterations <= 3 * n


def test_cg_reports_nonconvergence(rng):
    n = 32
    A = random_spd(rng, n, cond=1e6)
    b = rng.standard_normal(n)
    x, report = rd.cg_solve(DenseOperator(A), b, tol=1e-14, max_iter=2)
    assert not report.converged
    assert report.iterations == 2


def test_cg_report_invariant(rng):
    n = 16
    A = random_spd(rng, n)
    b = rng.standard_normal(n)
    x, report = rd.cg_solve(DenseOperator(A), b, tol=1e-10)
    assert report.converged
    floor = 1e-14 * np.max(np.abs(b)) * n
    assert report.residual_norm <= 1e-10 * (np.linalg.norm(b) + floor)


def test_cg_dimension_mismatch():
    A = DenseOperator(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        rd.cg_solve(A, np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        rd.cg_solve(A, np.zeros(2), x0=np.zeros(3))


def test_cg_zero_rz_is_a_breakdown():
    # this preconditioner turns r at right angles, so r.z is 0: a breakdown, not a
    # ZeroDivisionError in the next direction's ratio
    class Turning(DenseOperator):
        def precondition(self, r):
            return np.array([-r[1], r[0]])

    with pytest.raises(LinearSolverError, match=r"iteration 1 \(r\.z not positive\)"):
        rd.cg_solve(Turning(2.0 * np.eye(2)), np.array([1.0, 2.0]))


def test_cg_non_finite_right_hand_side_is_a_breakdown():
    # an infinite b made the threshold tol * ||b|| infinite too, so x = 0
    # "converged" after 0 iterations
    A = DenseOperator(2.0 * np.eye(2))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(LinearSolverError, match=r"\(non-finite values\)"):
            rd.cg_solve(A, np.array([bad, 1.0]))


def test_cg_deterministic(rng):
    n = 20
    A = random_spd(rng, n)
    b = rng.standard_normal(n)
    x1, r1 = rd.cg_solve(DenseOperator(A), b, tol=1e-11)
    x2, r2 = rd.cg_solve(DenseOperator(A), b, tol=1e-11)
    assert np.array_equal(x1, x2)
    assert r1 == r2


def test_cg_scales_exactly_with_tiny_and_huge_data(rng):
    # a power-of-two factor on b must give the same factor on x, bit for bit,
    # where the squares of the data would underflow or overflow
    A = DenseOperator(random_spd(rng, 24))
    b = rng.uniform(0.5, 2.0, 24)
    x, report = rd.cg_solve(A, b, tol=1e-10)
    for exponent in (-600, 600):
        x_scaled, scaled = rd.cg_solve(A, np.ldexp(b, exponent), tol=1e-10)
        assert scaled.converged and scaled.iterations == report.iterations
        assert np.array_equal(x_scaled, np.ldexp(x, exponent))


def test_cg_start_at_the_solution_comes_back_unchanged(rng):
    # an exact solution, and a converged one, meet the stopping rule before
    # any iteration, so they come back bit for bit
    x, report = rd.cg_solve(DenseOperator(2.0 * np.eye(3)), np.array([2.0, 4.0, 6.0]),
                            x0=np.array([1.0, 2.0, 3.0]))
    assert report.converged and report.iterations == 0 and report.residual_norm == 0.0
    assert x.tobytes() == np.array([1.0, 2.0, 3.0]).tobytes()
    A = DenseOperator(random_spd(rng, 24))
    b = rng.standard_normal(24)
    solved, first = rd.cg_solve(A, b, tol=1e-10)
    again, second = rd.cg_solve(A, b, tol=1e-10, x0=solved)
    assert first.iterations > 0 and second.iterations == 0 and second.converged
    assert again.tobytes() == solved.tobytes()


def test_cg_warm_start_scales_exactly_with_tiny_and_huge_data(rng):
    # the start is scaled by b's power of two, so the iterates stay bit-scaled
    A = DenseOperator(random_spd(rng, 24))
    b = rng.uniform(0.5, 2.0, 24)
    start = np.linalg.solve(A.A, b) + 0.1 * rng.standard_normal(24)
    x, report = rd.cg_solve(A, b, tol=1e-10, x0=start)
    cold, _ = rd.cg_solve(A, b, tol=1e-10)
    assert report.converged and 0 < report.iterations
    assert np.linalg.norm(x - cold) <= 1e-8 * np.linalg.norm(cold)
    for exponent in (-600, 600):
        x_scaled, scaled = rd.cg_solve(A, np.ldexp(b, exponent), tol=1e-10,
                                       x0=np.ldexp(start, exponent))
        assert scaled.converged and scaled.iterations == report.iterations
        assert np.array_equal(x_scaled, np.ldexp(x, exponent))


@pytest.mark.parametrize("solve", [rd.cg_solve, rd.regularize, rd.implicit_diffusion_step,
                                   rd.solve_frozen_slab, rd.w_increment_residual])
def test_every_solve_shares_the_scheme_stopping_defaults(solve):
    scheme = inspect.signature(rd.SchemeConfig).parameters
    params = inspect.signature(solve).parameters
    assert params["tol"].default == scheme["linear_tol"].default
    # the iteration cap is no setting: only cg_solve takes one, and its default
    # is the cap of every solve the library runs
    assert "linear_max_iter" not in scheme
    if solve is rd.cg_solve:
        assert params["max_iter"].default == sparse.LINEAR_MAX_ITER
    else:
        assert "max_iter" not in params
