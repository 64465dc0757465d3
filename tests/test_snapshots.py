"""Property tests for the text snapshot format."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import relaxdiff as rd
from relaxdiff.errors import ConfigError

finite = st.floats(allow_nan=False, allow_infinity=False)
# a grid needs a finite 1 / h^2: (2^-511)^2 is the smallest normal float
spacing = st.floats(min_value=2.0**-511, allow_infinity=False)


@st.composite
def snapshots(draw):
    """A grid of 1 or 2 axes, one to three species of finite values, and a time."""
    cells = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    grid = rd.Grid(cells, tuple(draw(spacing) for _ in cells))
    special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                               1.7976931348623157e308])
    fields = [
        rd.Field(grid, draw(st.lists(finite | special, min_size=grid.n_cells,
                                     max_size=grid.n_cells)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return grid, fields, draw(finite)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(snapshots())
def test_write_read_reproduces_fields_bit_for_bit(snap):
    grid, fields, time = snap
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.fld"
        rd.write_snapshot(path, grid, fields, time)
        grid2, fields2, time2 = rd.read_snapshot(path)
    assert grid2 == grid
    assert bits([time2]) == bits([time])
    assert [bits(f.values) for f in fields2] == [bits(f.values) for f in fields]


@settings(max_examples=150, deadline=None)
@given(snapshots(), st.data())
def test_mutated_token_raises_only_config_error(snap, data):
    grid, fields, time = snap
    lines = [line.split() for line in
             rd.snapshots.format_snapshot(grid, fields, time).splitlines()]
    row = data.draw(st.integers(0, len(lines) - 1))
    col = data.draw(st.integers(0, len(lines[row]) - 1))
    lines[row][col] = data.draw(
        st.sampled_from(["", "x", "nan", "inf", "-1", "0", "3", "1e999", "1.5.2", "--"])
        | st.text(max_size=6))
    text = "\n".join(" ".join(tokens) for tokens in lines) + "\n"
    try:
        rd.parse_snapshot(text)
    except ConfigError:
        pass
