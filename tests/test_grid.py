import numpy as np
import pytest

import relaxdiff as rd
from relaxdiff.errors import DimensionMismatchError

from conftest import dense_laplacian, make_grid_1d, make_grid_2d


def test_laplacian_interior_stencil():
    g = rd.Grid((3,), (1.0,))
    out = rd.laplacian_apply(g, rd.Field(g, [0.0, 1.0, 0.0]))
    assert out.values.tolist() == [1.0, -2.0, 1.0]


def test_laplacian_two_cells():
    g = rd.Grid((2,), (1.0,))
    out = rd.laplacian_apply(g, rd.Field(g, [2.0, 0.0]))
    assert out.values.tolist() == [-2.0, 2.0]


def test_laplacian_annihilates_constants_exactly():
    for g in (make_grid_1d(7), make_grid_2d(3, 5, (1.0, 0.7))):
        out = rd.laplacian_apply(g, rd.Field.constant(g, 3.7))
        assert np.all(out.values == 0.0)


def test_laplacian_rejects_wrong_grid():
    g = make_grid_1d(4)
    other = make_grid_1d(5)
    f = rd.Field(other, np.zeros(5))
    with pytest.raises(DimensionMismatchError):
        rd.laplacian_apply(g, f)


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
            lap_f = rd.laplacian_apply(g, f)
            lap_v = rd.laplacian_apply(g, v)
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
    g = rd.Grid((4, 2), (0.5, 0.25))
    assert g.n_cells == 8
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


SHIFTED_SOLVE_GRIDS = [
    rd.Grid((1,), (0.3,)),
    rd.Grid((2,), (0.5,)),
    rd.Grid((7,), (0.1,)),
    make_grid_1d(128),
    make_grid_2d(96, 40, (1.0, 0.7)),
    make_grid_2d(1, 16, (0.3, 0.8)),
]


@pytest.mark.parametrize("g", SHIFTED_SOLVE_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
def test_shifted_solve_matches_dense(g, rng):
    L = dense_laplacian(g)
    # (1, delta): the regularization; (1 / (tau a), 1): an implicit-step shift
    for c, s in ((1.0, 0.01), (1.0, 1e-4), (100.0, 1.0), (37.0, 1.0)):
        r = rng.standard_normal(g.n_cells)
        x = g.shifted_solve(r, c, s)
        residual = r - (c * x - s * (L @ x))
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(r)


def test_shifted_solve_constant_field_bitwise():
    for g in (make_grid_1d(1), make_grid_1d(9), make_grid_2d(6, 5, (1.0, 0.3))):
        for c, s in ((1.0, 0.05), (3.0, 10.0)):
            out = g.shifted_solve(np.full(g.n_cells, 2.5), c, s)
            assert np.array_equal(out, np.full(g.n_cells, 2.5 / c))


def test_shifted_solve_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        make_grid_2d(3, 4).shifted_solve(np.ones(11), 1.0, 1.0)
