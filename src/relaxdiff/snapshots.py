"""Snapshot files: a two-line text header, then the raw float64 values.

Format v2, one file per snapshot:

    RELAXDIFF v2
    dims n1 [n2] h1 [h2] species time
    <species * n_cells little-endian float64 values>

The two header lines are ASCII and end in a newline, so `head -n 2` shows
them. The body follows the second newline with no separators: each species'
values in species order, each field flat with the first axis fastest, as
`Grid` lays it out. A file is therefore exactly `8 * n_cells * species` bytes
longer than its header. Raw doubles round-trip bit for bit, including -0.0
and subnormals, and cost no decimal formatting.

The reader accepts v2 only. A wrong first line, a malformed header (including
a species count below 1 or a non-finite time) or a body of the wrong length
is a `ConfigError`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grid import Grid

MAGIC = b"RELAXDIFF v2"
_VALUE = np.dtype("<f8")


def format_snapshot(grid: Grid, values: np.ndarray, time: float) -> bytes:
    """The snapshot of `values`, one flat field of `grid` per species row, at `time`.

    Each row is checked by `Grid.field`. No species or a time that is not
    finite, which the reader rejects, is a `ConfigError`.
    """
    rows = [grid.field(row) for row in values]
    if not rows or not math.isfinite(time):
        raise ConfigError("a snapshot holds at least one species at a finite time")
    header = [str(grid.ndim)]
    header += [str(n) for n in grid.cells]
    header += [repr(float(h)) for h in grid.spacing]
    header += [str(len(rows)), repr(float(time))]
    parts = [MAGIC, b"\n", " ".join(header).encode("ascii"), b"\n"]
    parts += [row.astype(_VALUE).tobytes() for row in rows]
    return b"".join(parts)


def write_snapshot(path, grid: Grid, values: np.ndarray, time: float) -> None:
    data = format_snapshot(grid, values, time)  # a rejected snapshot creates no file
    with open(path, "wb") as fh:
        fh.write(data)


def parse_snapshot(data: bytes) -> tuple[Grid, np.ndarray, float]:
    """The grid, the (species x cells) float64 values and the time of a snapshot."""
    magic, _, rest = data.partition(b"\n")
    if magic != MAGIC:
        raise ConfigError(f"not a {MAGIC.decode()} snapshot (first line {magic[:40]!r})")
    header, newline, body = rest.partition(b"\n")
    if not newline:
        raise ConfigError("snapshot header line missing")
    try:
        tokens = header.decode("ascii").split()
        dims = int(tokens[0])
        if len(tokens) != 3 + 2 * dims:
            raise ValueError("wrong token count")
        cells = tuple(int(t) for t in tokens[1 : 1 + dims])
        spacing = tuple(float(t) for t in tokens[1 + dims : 1 + 2 * dims])
        n_species = int(tokens[1 + 2 * dims])
        time = float(tokens[2 + 2 * dims])
        if n_species < 1:
            raise ValueError(f"species count {n_species} is below 1")
        if not math.isfinite(time):
            raise ValueError(f"time {time!r} is not finite")
        grid = Grid(cells, spacing)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"malformed snapshot header {header[:80]!r}: {exc}") from exc
    expected = _VALUE.itemsize * grid.n_cells * n_species
    if len(body) != expected:
        raise ConfigError(f"snapshot body has {len(body)} bytes, expected {expected} "
                          f"for {n_species} species of {grid.n_cells} cells")
    values = np.frombuffer(body, _VALUE).astype(np.float64).reshape(n_species, -1)
    for i, row in enumerate(values):
        if not np.isfinite(row).all():
            raise ConfigError(f"species {i + 1}: snapshot values must be finite")
    return grid, values, time


def read_snapshot(path) -> tuple[Grid, np.ndarray, float]:
    with open(path, "rb") as fh:
        return parse_snapshot(fh.read())
