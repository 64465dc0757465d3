"""Property tests: random small models keep the scheme's guarantees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import relaxdiff as rd

LINEAR_TOL = 1e-10


@st.composite
def models(draw):
    """A 1D or 2D grid of 1..24 cells per axis with its own spacing per axis,
    one to three species with random delta and polynomial coefficients, and
    nonnegative initial data that may vanish on whole cells."""
    cells = tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=2)))
    spacing = tuple(draw(st.floats(0.01, 1.0)) for _ in cells)
    grid = rd.Grid(cells, spacing)
    n_species = draw(st.integers(1, 3))
    coefficients = tuple(
        rd.SktCoefficients(draw(st.floats(0.01, 1.0)),
                           tuple(draw(st.floats(0.0, 2.0)) for _ in range(n_species)),
                           draw(st.floats(0.5, 3.0)))
        for _ in range(n_species))
    data = arrays(np.float64, grid.n_cells,
                  elements=st.floats(0.0, 10.0) | st.just(0.0))
    return rd.ModelSpec(
        delta=tuple(draw(st.floats(1e-3, 1.0)) for _ in range(n_species)),
        coefficients=coefficients,
        initial_data=tuple(rd.Field(grid, draw(data)) for _ in range(n_species)),
    )


@settings(max_examples=60, deadline=None)
@given(models(), st.floats(1e-3, 0.1))
def test_random_models_keep_the_guarantees(m, tau):
    assert rd.validate_model(m) == []
    cfg = rd.SchemeConfig(tau=tau, horizon=3 * tau, linear_tol=LINEAR_TOL)
    first = rd.run(m, cfg)
    initial = [rd.integrate(m.grid, f) for f in m.initial_data]
    slack = -10 * LINEAR_TOL
    for row in first.report.rows:
        assert abs(row.mass_u - initial[row.species - 1]) <= 1e-12 * initial[row.species - 1]
        assert row.min_u >= slack and row.min_utilde >= slack
        assert row.w_min_increment >= slack

    again = rd.run(m, cfg)
    assert again.report.to_csv() == first.report.to_csv()
    for a, b in zip(first.state.u + first.state.u_tilde + first.state.w,
                    again.state.u + again.state.u_tilde + again.state.w):
        assert a.values.tobytes() == b.values.tobytes()
