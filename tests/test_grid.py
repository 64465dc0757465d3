import math

import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff import stepper
from relaxdiff.errors import DimensionMismatchError, LinearSolverError
from relaxdiff.grid import (COARSE_MODES_2D, MAX_AXIS_CELLS, _cosine_tables, _inverse_factor,
                           _shift_solver)
from relaxdiff.model import coefficient_fields
from relaxdiff.stepper import _solve_implicit

from conftest import cosine_profile, dense_laplacian, make_grid_1d, make_grid_2d


def test_laplacian_interior_stencil():
    g = rd.Grid((3,), (1.0,))
    out = rd.laplacian_apply(rd.Field(g, [0.0, 1.0, 0.0]))
    assert out.values.tolist() == [1.0, -2.0, 1.0]


def test_laplacian_two_cells():
    g = rd.Grid((2,), (1.0,))
    out = rd.laplacian_apply(rd.Field(g, [2.0, 0.0]))
    assert out.values.tolist() == [-2.0, 2.0]


def test_laplacian_annihilates_constants_exactly():
    for g in (make_grid_1d(7), make_grid_2d(3, 5, (1.0, 0.7))):
        out = rd.laplacian_apply(rd.Field.constant(g, 3.7))
        assert np.all(out.values == 0.0)


def test_laplacian_zero_results_are_positive_zero():
    for g in (make_grid_1d(4), make_grid_2d(2, 2)):
        out = g.laplacian(np.array([0.0, -0.0, 0.0, -0.0]))
        assert out.tolist() == [0.0] * 4 and not np.any(np.signbit(out))


def test_integrate_rejects_wrong_grid():
    g = make_grid_1d(4)
    other = make_grid_1d(5)
    f = rd.Field(other, np.zeros(5))
    with pytest.raises(DimensionMismatchError):
        rd.integrate(g, f)


def test_integrate_examples():
    g = rd.Grid((2,), (1.0,))
    assert rd.integrate(g, rd.Field(g, [4 / 3, 2 / 3])) == pytest.approx(2.0, rel=1e-14)
    assert rd.integrate(g, rd.Field.constant(g, 0.0)) == 0.0
    g2 = rd.Grid((2, 2), (0.5, 0.5))
    assert rd.integrate(g2, rd.Field.constant(g2, 1.0)) == pytest.approx(1.0, abs=1e-15)


def test_assembled_matrix_small_cases():
    g = rd.Grid((2,), (1.0,))
    assert dense_laplacian(g).tolist() == [[-1.0, 1.0], [1.0, -1.0]]
    g3 = rd.Grid((3,), (1.0,))
    expected = [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]
    assert dense_laplacian(g3).tolist() == expected


def test_assembled_matches_matrix_free(rng):
    for g in (make_grid_1d(9, 0.8), make_grid_2d(4, 6, (1.0, 0.5))):
        L = dense_laplacian(g)
        for _ in range(5):
            f = rng.standard_normal(g.n_cells)
            direct = g.laplacian(f)
            assembled = L @ f
            scale = np.max(np.abs(direct)) + 1.0
            assert np.max(np.abs(direct - assembled)) <= 1e-13 * scale


def test_assembled_structure(rng):
    for g in (make_grid_1d(8), make_grid_2d(3, 4, (0.9, 1.1))):
        dense = dense_laplacian(g)
        assert np.array_equal(dense, dense.T)
        max_entry = np.max(np.abs(dense))
        assert np.max(np.abs(dense.sum(axis=1))) <= 1e-12 * max_entry
        off = dense - np.diag(np.diag(dense))
        assert np.all(off >= 0.0)
        assert np.all(np.diag(dense) <= 0.0)


def test_conservation_symmetry_negative_semidefinite(rng):
    for g in (make_grid_1d(17, 2.0), make_grid_2d(5, 7, (1.3, 0.4))):
        for _ in range(10):
            f = rd.Field(g, rng.standard_normal(g.n_cells))
            v = rd.Field(g, rng.standard_normal(g.n_cells))
            norm = float(np.linalg.norm(f.values)) + 1e-30
            lap_f = rd.laplacian_apply(f)
            lap_v = rd.laplacian_apply(v)
            assert abs(rd.integrate(g, lap_f)) <= 1e-12 * norm * g.n_cells
            sym_gap = abs(float(lap_f.values @ v.values) - float(f.values @ lap_v.values))
            scale = abs(float(lap_f.values @ v.values)) + norm
            assert sym_gap <= 1e-12 * scale
            assert float(lap_f.values @ f.values) <= 1e-12 * norm**2


def test_grid_validation():
    with pytest.raises(ValueError):
        rd.Grid((0,), (1.0,))
    with pytest.raises(ValueError):
        rd.Grid((4,), (-1.0,))
    with pytest.raises(ValueError):
        rd.Grid((4, 4, 4), (1.0, 1.0, 1.0))
    # the solver's cosine basis of an axis takes 8 n^2 bytes: rejected before it is built
    rd.Grid((MAX_AXIS_CELLS, 1), (1.0, 1.0))
    with pytest.raises(ValueError, match="cells per axis"):
        rd.Grid((MAX_AXIS_CELLS + 1,), (1.0,))
    with pytest.raises(ValueError, match="cells per axis"):
        rd.Grid((4, 10**5), (1.0, 1.0))
    # 1 / h^2 must be a finite float: h^2 underflows to zero, or to a subnormal
    rd.Grid((4,), (1e-154,))
    for h in (1e-300, 1e-160):
        with pytest.raises(ValueError, match="1 / h\\^2"):
            rd.Grid((4, 4), (1.0, h))
    g = rd.Grid((4, 2), (0.5, 0.25))
    twin = rd.Grid((4, 2), (0.5, 0.25))
    assert g.n_cells == 8
    # the count is kept on the instance once read, outside the fields
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert g.refined().n_cells == 32
    assert g.cell_measure == pytest.approx(0.125)
    assert g.lengths == (2.0, 0.5)


def test_field_validation():
    g = make_grid_1d(3)
    with pytest.raises(DimensionMismatchError):
        rd.Field(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        rd.Field(g, [1.0, np.nan, 2.0])


def test_row_major_axis1_fastest():
    # flat index i2 * n1 + i1: stepping along the first axis is contiguous
    g = rd.Grid((3, 2), (1.0, 1.0))
    x1, x2 = g.cell_centers()
    assert x1.tolist() == [0.5, 1.5, 2.5, 0.5, 1.5, 2.5]
    assert x2.tolist() == [0.5, 0.5, 0.5, 1.5, 1.5, 1.5]


def coarsened_by_hand(dense):
    """Mean of each 2 x 2 (or, in 1D, 2-cell) block of a field indexed [i1, i2]."""
    if dense.ndim == 1:
        return np.array([(dense[2 * i] + dense[2 * i + 1]) / 2 for i in range(dense.size // 2)])
    n1, n2 = dense.shape
    return np.array([[sum(dense[2 * i + a, 2 * j + b] for a in (0, 1) for b in (0, 1)) / 4
                      for j in range(n2 // 2)] for i in range(n1 // 2)])


@pytest.mark.parametrize("cells, spacing", [
    ((2,), (0.5,)), ((12,), (0.1,)), ((2, 2), (0.5, 0.25)), ((6, 2), (0.3, 0.7)),
    ((4, 10), (0.25, 0.1)),
], ids=lambda v: "x".join(map(str, v)))
def test_coarsen_averages_cell_pairs(cells, spacing, rng):
    g = rd.Grid(cells, spacing)
    assert g.refined() == rd.Grid(tuple(2 * n for n in cells), tuple(h / 2 for h in spacing))
    # the flat field, indexed by cell: (i1, i2) at flat index i2 * n1 + i1
    dense = rng.standard_normal(cells)
    flat = dense.T.reshape(-1) if g.ndim == 2 else dense
    coarse = coarsened_by_hand(dense)
    expected = coarse.T.reshape(-1) if g.ndim == 2 else coarse
    assert g.coarsen(flat) == pytest.approx(expected, rel=1e-14, abs=1e-15)
    # the integral of the field is kept: the coarse cells are twice as wide per axis
    coarse_measure = g.cell_measure * 2**g.ndim
    assert coarse_measure * g.coarsen(flat).sum() == pytest.approx(g.cell_measure * flat.sum())


def test_coarsen_rejects_odd_counts_and_wrong_lengths():
    with pytest.raises(DimensionMismatchError):
        rd.Grid((4, 3), (1.0, 1.0)).coarsen(np.ones(12))
    with pytest.raises(DimensionMismatchError):
        rd.Grid((4, 2), (1.0, 1.0)).coarsen(np.ones(6))


SHIFTED_SOLVE_GRIDS = [
    rd.Grid((1,), (0.3,)),
    rd.Grid((2,), (0.5,)),
    rd.Grid((7,), (0.1,)),
    make_grid_1d(128),
    make_grid_2d(96, 40, (1.0, 0.7)),
    make_grid_2d(1, 16, (0.3, 0.8)),
]


def solve_of(g, d, s=1.0):
    """The solve of `Grid.solver(d, s)`, without its start flag."""
    return g.solver(d, s)[0]


@pytest.mark.parametrize("g", SHIFTED_SOLVE_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
def test_shifted_solve_matches_dense(g, rng):
    L = dense_laplacian(g)
    # (1, delta): the regularization; (1 / (tau a), 1): an implicit step of constant a
    for c, s in ((1.0, 0.01), (1.0, 1e-4), (100.0, 1.0), (37.0, 1.0)):
        r = rng.standard_normal(g.n_cells)
        x = solve_of(g, c, s)(r)
        residual = r - (c * x - s * (L @ x))
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(r)


def test_shifted_solve_constant_field_bitwise():
    # a constant field is in the kernel of L: values / c is the exact answer of
    # the 1D elimination and of the 2D cosine shift, and both return it
    for g in (make_grid_1d(1), make_grid_1d(9), make_grid_2d(6, 5, (1.0, 0.3))):
        for c, s in ((1.0, 0.05), (3.0, 10.0)):
            out = solve_of(g, c, s)(np.full(g.n_cells, 2.5))
            assert np.array_equal(out, np.full(g.n_cells, 2.5 / c))


def test_shifted_solve_rejects_wrong_length():
    g = make_grid_2d(3, 4)
    with pytest.raises(DimensionMismatchError):
        solve_of(g, 1.0)(np.ones(11))
    # a diagonal is one value per cell, or a scalar
    with pytest.raises(DimensionMismatchError):
        g.solver(np.ones(11), 1.0)


def tables_of(g):
    return _cosine_tables(g.cells, g.spacing)


def test_a_square_grid_holds_one_basis():
    t = tables_of(make_grid_2d(20, 20, (1.0, 0.7)))
    assert t.bases[0] is t.bases[1] and t.cosines[0] is t.cosines[1]
    assert t.pair_weights[0] is t.pair_weights[1]
    # the spacings differ, so the axes' eigenvalues do
    assert not np.array_equal(t.lam[0], t.lam[:, 0])


def test_cosine_tables_are_read_only():
    t = tables_of(make_grid_2d(20, 24))
    for a in (*t.bases, *t.cosines, *t.pair_weights, t.lam, t.low):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


@pytest.mark.parametrize("g", [make_grid_2d(7, 20), make_grid_2d(24, 20)],
                         ids=lambda g: "x".join(map(str, g.cells)))
def test_coarse_block_keeps_the_lowest_modes_per_axis(g):
    t = tables_of(g)
    kept = [min(n, COARSE_MODES_2D) for n in g.cells]
    assert t.low.shape == tuple(kept[::-1])
    assert np.array_equal(t.low, t.lam[tuple(slice(0, k) for k in kept[::-1])])
    assert [K.shape for K in t.cosines] == [(2 * k - 1, n) for k, n in zip(kept, g.cells)]
    assert [T.shape for T in t.pair_weights] == [(2 * k - 1, k * k) for k in kept]
    # column a * k + b of the weights spreads the product of kept basis rows
    # a and b over the cosine rows
    for C, K, T, k in zip(t.bases, t.cosines, t.pair_weights, kept):
        products = (C[:k, None] * C[None, :k]).reshape(k * k, -1)
        assert np.max(np.abs(T.T @ K - products)) <= 1e-15


def test_both_solvers_of_a_grid_build_its_tables_once():
    g = make_grid_2d(19, 23, (0.31, 0.29))  # a grid no other test uses
    r = np.cos(np.arange(g.n_cells))
    misses = _cosine_tables.cache_info().misses
    solve_of(g, 1.0, 0.5)(r)
    solve_of(g, smooth_diagonal(g))(r)
    assert _cosine_tables.cache_info().misses == misses + 1


def test_a_1d_solve_builds_no_cosine_basis():
    # every 1D solve is elimination: a scalar, a constant and a varying d, the
    # last one so large that its scan runs in one segment per cell
    g = rd.Grid((37,), (0.29,))  # a grid no other test uses
    r = np.cos(np.arange(g.n_cells))
    misses = _cosine_tables.cache_info().misses
    for d, s in ((1.0, 0.5), (np.full(g.n_cells, 37.5), 1.0), (smooth_diagonal(g), 1.0),
                 (np.geomspace(1e290, 1e300, g.n_cells), 1.0)):
        solve_of(g, d, s)(r)
    assert _cosine_tables.cache_info().misses == misses


def dense_of(solve, n):
    """The matrix of a linear map of flat fields, built column by column."""
    return np.column_stack([solve(e) for e in np.eye(n)])


def smooth_diagonal(g, scale=100.0):
    """1 / (tau A) for a smooth A of spread 3: the implicit operator divided by tau."""
    return scale / (2.0 + np.prod([np.cos(3 * np.pi * x / length)
                                   for x, length in zip(g.cell_centers(), g.lengths)], axis=0))


def assert_spd(P):
    assert np.max(np.abs(P - P.T)) <= 1e-12 * np.max(np.abs(P))
    np.linalg.cholesky(P)  # raises unless positive definite


def shift_of(d):
    return math.sqrt(np.min(d)) * math.sqrt(np.max(d))


@pytest.mark.parametrize("g", [make_grid_1d(40), make_grid_2d(20, 24, (1.0, 0.7))],
                         ids=lambda g: "x".join(map(str, g.cells)))
def test_coarse_corrected_solve_is_spd_beyond_the_coarse_block(g, rng):
    # the 2D grid has more cells per axis than the coarse block has modes;
    # the 1D solve is elimination, whatever the grid
    assert g.ndim == 1 or min(g.cells) > COARSE_MODES_2D
    # s = 1: an implicit step; s = 0.01: a varying d under a scaled Laplacian
    for d, s in ((smooth_diagonal(g), 1.0), (rng.uniform(1.0, 1e3, g.n_cells), 1.0),
                 (smooth_diagonal(g), 0.01)):
        P = dense_of(solve_of(g, d, s), g.n_cells)
        assert_spd(P)
        # it is not the plain shift, whose coarse modes ignore d's variation
        assert not np.allclose(P, dense_of(solve_of(g, shift_of(d), s), g.n_cells))


@pytest.mark.parametrize("g", [rd.Grid((1,), (0.3,)), make_grid_1d(5), make_grid_1d(16),
                               make_grid_1d(40), make_grid_1d(1024),
                               make_grid_2d(7, COARSE_MODES_2D, (1.0, 0.7)),
                               make_grid_2d(COARSE_MODES_2D, COARSE_MODES_2D),
                               make_grid_2d(COARSE_MODES_2D, 1)],
                         ids=lambda g: "x".join(map(str, g.cells)))
def test_coarse_corrected_solve_is_exact_within_the_coarse_block(g, rng):
    # in 1D (elimination) and on a 2D grid whose every mode is coarse, the
    # preconditioner is the inverse of the operator
    d = smooth_diagonal(g)
    for s in (1.0, 0.01):
        P = dense_of(solve_of(g, d, s), g.n_cells)
        inverse = np.linalg.inv(np.diag(d) - s * dense_laplacian(g))
        assert np.max(np.abs(P - inverse)) <= 1e-10 * np.max(np.abs(inverse))
    # so the 1D solve starts from its answer, which the stopping rule accepts
    # after 0 iterations, and 2D CG converges in one iteration
    A = 1.0 / (0.01 * d)
    _, _, report = _solve_implicit(g, rng.uniform(0.5, 1.5, g.n_cells), A, 0.01, 1e-10)
    assert report.converged and report.iterations == (0 if g.ndim == 1 else 1)


@pytest.mark.parametrize("n", [1, 36, 37, 100, 144])
def test_inverse_factor_inverts_the_cholesky_factor_from_leaves_of_at_most_36_rows(
        n, rng, monkeypatch):
    # LAPACK factors leaves this small on one thread, so no bit of the factor
    # depends on the BLAS thread count; 144 rows is the 2D coarse block
    M = rng.standard_normal((n, n))
    E = M @ M.T + n * np.eye(n)
    cholesky, leaves = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: leaves.append(len(a)) or cholesky(a))
    W = _inverse_factor(E)
    assert max(leaves) <= 36 and sum(leaves) == n
    reference = np.linalg.inv(cholesky(E))
    assert np.max(np.abs(W - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert np.max(np.abs(W @ E @ W.T - np.eye(n))) <= 1e-12


def test_coarse_corrected_solve_matches_its_dense_formula():
    # B = kron(C2, C1) maps a flat field to its cosine coefficients; the
    # preconditioner is B^T M B, where M inverts the Galerkin block
    # E = B_l diag(d) B_l^T + s Lambda_l on the lowest COARSE_MODES_2D modes
    # per axis and divides every other mode by c + s mu. On 7 x 20 cells the
    # block takes all 7 modes of the short axis, which has fewer cells than
    # the 2 * 7 - 1 cosine rows the block is built from.
    for g in (make_grid_2d(20, 24, (1.0, 0.7)), make_grid_2d(7, 20)):
        t = tables_of(g)
        B = np.kron(t.bases[1], t.bases[0])
        kept = [min(n, COARSE_MODES_2D) for n in g.cells]
        low = np.zeros(t.lam.shape, dtype=bool)
        low[:kept[1], :kept[0]] = True
        low = low.reshape(-1)
        assert low.sum() == math.prod(kept) < g.n_cells
        d = smooth_diagonal(g)
        for s in (1.0, 0.01):
            M = np.diag(1.0 / (shift_of(d) + s * t.lam.reshape(-1)))
            E = B[low] @ np.diag(d) @ B[low].T + s * np.diag(t.lam.reshape(-1)[low])
            M[np.ix_(low, low)] = np.linalg.inv(E)
            reference = B.T @ M @ B
            solve = solve_of(g, d, s)
            P = dense_of(solve, g.n_cells)
            assert np.max(np.abs(P - reference)) <= 1e-10 * np.max(np.abs(reference))
            # a constant right-hand side takes the block too, not values / c
            r = np.full(g.n_cells, 2.5)
            x = solve(r)
            assert np.max(np.abs(x - reference @ r)) <= 1e-10 * np.max(np.abs(reference @ r))
            assert not np.allclose(x, r / shift_of(d))


def test_coarse_corrected_solve_is_spd_or_the_shift_at_extreme_spreads(rng):
    def spd_or_shift(g, d):
        P = dense_of(solve_of(g, d), g.n_cells)
        if not np.array_equal(P, dense_of(solve_of(g, shift_of(d)), g.n_cells)):
            assert_spd(P)

    # a coefficient spread of 1e12, smooth and cell by cell; a 1D solve is
    # elimination, with no shift to fall back to, so it is the exact inverse
    for g in (make_grid_1d(40), make_grid_2d(20, 24)):
        for d in (np.geomspace(1.0, 1e12, g.n_cells), 10.0 ** rng.uniform(0.0, 12.0, g.n_cells)):
            if g.ndim == 1:
                assert_spd(dense_of(solve_of(g, d), g.n_cells))
            else:
                spd_or_shift(g, d)
    # the first implicit operator of the p = 300 case of tests/test_cli.py's
    # BASE config: its coefficient reaches 4.8e48
    g = make_grid_1d(16)
    m = rd.ModelSpec(
        delta=(0.01, 0.01),
        coefficients=(rd.SktCoefficients(0.05, (0.0, 1.0), 300.0),
                      rd.SktCoefficients(0.05, (1.0, 0.0))),
        initial_data=(rd.Field(g, cosine_profile(g, 0.5)),
                      rd.Field(g, cosine_profile(g, -0.5))),
    )
    cfg = rd.SchemeConfig(tau=0.02, horizon=0.1)
    (A,), _ = coefficient_fields(m, rd.initial_state(m, cfg).u_tilde, [0])
    assert np.max(A) / np.min(A) > 1e48
    assert_spd(dense_of(solve_of(g, 1.0 / (cfg.tau * A)), g.n_cells))
    # the constant operator at the geometric mean of that diagonal, the 2D
    # shift, is singular to working precision in 1D
    with pytest.raises(LinearSolverError, match="^operator singular to working precision"):
        g.solver(shift_of(1.0 / (cfg.tau * A)), 1.0)


def test_coarse_corrected_solve_falls_back_to_the_shift():
    # a diagonal of 1e-300 leaves the last pivot of the elimination below
    # epsilon times the others: the operator is singular to working precision,
    # and a 1D solve has no shift to fall back to, only the 2D coarse block has
    g = make_grid_1d(24)
    d = np.linspace(1e-300, 3e-300, g.n_cells)
    with pytest.raises(LinearSolverError, match="^operator singular to working precision"):
        g.solver(d, 1.0)


@pytest.mark.parametrize("n", [16, 1024, 4096])
@pytest.mark.parametrize("k", [305, 306, 307, 308])
def test_elimination_of_a_diagonal_near_the_float64_maximum_is_exact(n, k, rng):
    # up to 4096 such pivots sum past the float64 maximum, but each one is finite
    g = make_grid_1d(n)
    d = 10.0**k * rng.uniform(1.0, 1.5, n)
    assert g.solver(d, 1.0)[1]
    u = rng.uniform(0.5, 1.5, n)
    _, _, report = stepper._flux_solve(stepper._ImplicitStepOperator(g, d, 1.0), u, 1e-10)
    assert report.converged and report.iterations == 0


@pytest.mark.parametrize("g", [make_grid_1d(40), make_grid_2d(20, 24, (1.0, 0.7))],
                         ids=lambda g: "x".join(map(str, g.cells)))
def test_coarse_corrected_solve_of_a_constant_diagonal_is_the_shift(g):
    # the shift is the exact inverse of diag(c) - L, so no coarse block is built
    d = np.full(g.n_cells, 37.5)
    r = np.cos(np.arange(g.n_cells)) + 2.0
    shift = solve_of(g, 37.5)
    assert np.array_equal(solve_of(g, d)(r), shift(r))


def test_every_constant_diagonal_of_an_operator_shares_one_shift_solve():
    # a scalar and a constant array of one value build one cached solve, on
    # grids that no other test uses
    for g in (rd.Grid((29,), (0.31,)), make_grid_2d(17, 13, (0.31, 0.29))):
        misses = _shift_solver.cache_info().misses
        for d in (2.0, np.full(g.n_cells, 2.0)):
            assert g.solver(d, 0.5)[1]
        assert _shift_solver.cache_info().misses == misses + 1


def test_solver_starts_cg_from_every_1d_and_every_constant_solve():
    r = np.cos(np.arange(480)) + 2.0
    g = make_grid_1d(24)
    for d, s in ((smooth_diagonal(g), 1.0), (np.full(g.n_cells, 37.5), 1.0), (1.0, 0.01)):
        assert g.solver(d, s)[1]
    # an operator singular to working precision has no solve to start from
    tiny = np.linspace(1e-300, 3e-300, g.n_cells)
    with pytest.raises(LinearSolverError, match="^operator singular to working precision"):
        g.solver(tiny, 1.0)
    g = make_grid_2d(20, 24, (1.0, 0.7))
    assert g.solver(1.0, 0.01)[1] and g.solver(np.full(g.n_cells, 37.5), 1.0)[1]
    # a varying 2D diagonal only preconditions: with its coarse block, and
    # with the shift where the block is singular to working precision
    assert not g.solver(smooth_diagonal(g), 1.0)[1]
    tiny = np.linspace(1e-300, 3e-300, g.n_cells)
    solve, starts = g.solver(tiny, 1.0)
    assert not starts
    assert np.array_equal(solve(r), solve_of(g, shift_of(tiny))(r))
