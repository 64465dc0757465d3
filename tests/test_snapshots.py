"""Tests of the snapshot format: a text header, then raw little-endian float64 values."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
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
        rd.write_snapshot(path, fields, time)
        grid2, fields2, time2 = rd.read_snapshot(path)
    assert grid2 == grid
    assert bits([time2]) == bits([time])
    assert [bits(f.values) for f in fields2] == [bits(f.values) for f in fields]


@settings(max_examples=150, deadline=None)
@given(snapshots(), st.data())
def test_damaged_file_raises_only_config_error(snap, data):
    """A truncated or extended file is rejected; a file with one header token
    replaced may still parse, but nothing other than a ConfigError escapes."""
    grid, fields, time = snap
    raw = rd.snapshots.format_snapshot(fields, time)
    damage = data.draw(st.sampled_from(["truncate", "extend", "mutate"]))
    if damage == "truncate":
        with pytest.raises(ConfigError):
            rd.parse_snapshot(raw[:data.draw(st.integers(0, len(raw) - 1))])
    elif damage == "extend":
        with pytest.raises(ConfigError):
            rd.parse_snapshot(raw + data.draw(st.binary(min_size=1, max_size=24)))
    else:
        lines = raw.split(b"\n", 2)
        row = data.draw(st.integers(0, 1))
        tokens = lines[row].split(b" ")
        col = data.draw(st.integers(0, len(tokens) - 1))
        tokens[col] = data.draw(
            st.sampled_from([b"", b"x", b"nan", b"inf", b"-1", b"0", b"3", b"1e999",
                             b"1.5.2", b"--", b"v1", b"\n"])
            | st.binary(max_size=6))
        lines[row] = b" ".join(tokens)
        try:
            rd.parse_snapshot(b"\n".join(lines))
        except ConfigError:
            pass


@pytest.mark.parametrize("header, body, match", [
    (b"1 4 0.25 -1 0.0", b"", "species count -1"),
    (b"1 4 0.25 0 0.0", b"", "species count 0"),
    (b"1 4 0.25 1 nan", bytes(32), "time nan"),
    (b"1 4 0.25 1 -inf", bytes(32), "time -inf"),
    (b"1 4 inf 1 0.0", bytes(32), "spacings"),
    (b"1 4 0.25 1 0.0", bytes(40), "40 bytes, expected 32"),
    (b"1 4 0.25 2 0.0", bytes(32), "32 bytes, expected 64"),
    (b"1 4 0.25 1 0.0", np.array([0.0, np.nan, 1.0, 2.0], "<f8").tobytes(), "species 1"),
])
def test_out_of_range_header_or_body_is_a_config_error(header, body, match):
    with pytest.raises(ConfigError, match=match):
        rd.parse_snapshot(b"RELAXDIFF v2\n" + header + b"\n" + body)


def test_v1_text_snapshot_is_rejected(tmp_path):
    path = tmp_path / "snap_0.fld"
    path.write_text("RELAXDIFF v1\n1 4 0.25 1 0.0\n1.0 2.0 3.0 4.0\n")
    with pytest.raises(ConfigError, match="RELAXDIFF v2"):
        rd.read_snapshot(path)


def test_writer_refuses_what_the_reader_rejects():
    grid = rd.Grid((2,), (0.5,))
    with pytest.raises(ConfigError):
        rd.snapshots.format_snapshot([], 0.0)
    with pytest.raises(ConfigError):
        rd.snapshots.format_snapshot([rd.Field.constant(grid, 1.0)], float("nan"))


def test_writer_rejects_fields_on_two_grids(tmp_path):
    # the header records one grid, the first field's; a field on another grid
    # of the same size would be written as if it were on that one
    grid, other = rd.Grid((4,), (0.25,)), rd.Grid((4,), (0.5,))
    fields = [rd.Field.constant(grid, 1.0), rd.Field.constant(other, 2.0)]
    with pytest.raises(ConfigError, match="share one grid"):
        rd.snapshots.format_snapshot(fields, 0.0)
    with pytest.raises(ConfigError, match="share one grid"):
        rd.write_snapshot(tmp_path / "snap.fld", fields[::-1], 0.0)


def test_rejected_snapshot_leaves_no_file(tmp_path):
    path = tmp_path / "snap.fld"
    with pytest.raises(ConfigError):
        rd.write_snapshot(path, [], 0.0)
    assert not path.exists()
