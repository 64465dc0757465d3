"""Property tests: random small models keep the scheme's guarantees, and a
config with one bad value is rejected only as a ConfigError."""

import numpy as np
from hypothesis import example, given, settings
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


TINY_GRID = rd.Grid((4,), (0.25,))


@settings(max_examples=60, deadline=None)
@given(models(), st.floats(1e-3, 0.1))
# data of 1e-155 squares below the smallest normal float; CG used to break down on it
@example(rd.ModelSpec(
    delta=(1.0, 1.0, 1.0),
    coefficients=(rd.SktCoefficients(1.0, (0.0, 0.0, 0.0)),
                  rd.SktCoefficients(1.0, (0.0, 0.0, 0.0)),
                  rd.SktCoefficients(1.0, (1.0, 0.0, 0.0))),
    initial_data=(rd.Field(TINY_GRID, np.array([0.0, 1.0, 1.0, 1.0])),
                  rd.Field(TINY_GRID, np.zeros(4)),
                  rd.Field(TINY_GRID, np.full(4, 1.92688797e-155)))), 0.0625)
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


INITS = ("constant:1.0", "step:0.0,1.0", "bump:0.5,0.3,1.0", "cosine:0.5,1.0",
         "random:0.0,1.0")
TOKENS = ("-1", "0", "1.5", "1e400", "nan", "abc", "", "1,0")


@st.composite
def config_lines(draw):
    """A valid config with every key set: a 1D or 2D grid of 1..24 cells per
    axis and one or two species with drawn init recipes."""
    dims = draw(st.integers(1, 2))
    lines = ["[grid]", f"dims = {dims}"]
    for axis in range(1, dims + 1):
        n = draw(st.integers(1, 24))
        lines += [f"n{axis} = {n}", f"h{axis} = {1.0 / n!r}"]
    n_species = draw(st.integers(1, 2))
    for i in range(1, n_species + 1):
        lines += [f"[species.{i}]", "delta = 0.01", "coeff = skt", "d = 0.05",
                  *(f"d_{j} = 0.5" for j in range(1, n_species + 1)), "p = 2",
                  f"init = {draw(st.sampled_from(INITS))}"]
    return lines + [
        "[scheme]", "tau = 0.01", "T = 0.05", "linear_tol = 1e-10",
        "linear_max_iter = 100", "output_stride = 1", "workers = 1", "a_max = 10.0",
        "[run]", "mode = simulate", "output_dir = out", "seed = 3", "spatial = off",
        "halvings = 2",
        "[picard]", "max_sweeps = 20", "sweep_tol = 1e-9",
    ]


@settings(max_examples=300, deadline=None)
@given(config_lines(), st.data())
def test_one_bad_value_is_accepted_or_a_config_error(lines, data):
    rd.parse_config("\n".join(lines))
    index = data.draw(st.sampled_from([k for k, line in enumerate(lines) if " = " in line]))
    key, _, value = lines[index].partition(" = ")
    token = data.draw(st.sampled_from(TOKENS))
    kind, colon, numbers = value.partition(":")
    if colon and data.draw(st.booleans()):
        # one number of an init recipe
        parts = numbers.split(",")
        parts[data.draw(st.integers(0, len(parts) - 1))] = token
        value = f"{kind}:{','.join(parts)}"
    else:
        value = token
    text = "\n".join(lines[:index] + [f"{key} = {value}"] + lines[index + 1:])
    try:
        rd.parse_config(text).build_model()
    except rd.ConfigError:
        pass
