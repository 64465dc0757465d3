"""Text snapshot files: diffable, bit-exact round trips.

Format, one file per snapshot:

    RELAXDIFF v1
    dims n1 [n2] h1 [h2] species time
    <row-major values of species 1>
    <row-major values of species 2>
    ...

Values use the shortest decimal form that round-trips to the same double, so
parse(write(state)) reproduces the state exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .grid import Field, Grid

MAGIC = "RELAXDIFF v1"


def format_snapshot(grid: Grid, fields: list[Field], time: float) -> str:
    header = [str(grid.ndim)]
    header += [str(n) for n in grid.cells]
    header += [repr(float(h)) for h in grid.spacing]
    header += [str(len(fields)), repr(float(time))]
    lines = [MAGIC, " ".join(header)]
    for f in fields:
        if f.grid != grid:
            raise ConfigError("snapshot fields must share the snapshot grid")
        lines.append(" ".join(map(repr, f.values.tolist())))
    return "\n".join(lines) + "\n"


def write_snapshot(path, grid: Grid, fields: list[Field], time: float) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_snapshot(grid, fields, time))


def parse_snapshot(text: str) -> tuple[Grid, list[Field], float]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ConfigError("not a snapshot file (missing header line)")
    if len(lines) < 2:
        raise ConfigError("snapshot header line missing")
    tokens = lines[1].split()
    try:
        dims = int(tokens[0])
        cells = tuple(int(t) for t in tokens[1 : 1 + dims])
        spacing = tuple(float(t) for t in tokens[1 + dims : 1 + 2 * dims])
        n_species = int(tokens[1 + 2 * dims])
        time = float(tokens[2 + 2 * dims])
        if len(tokens) != 3 + 2 * dims:
            raise ValueError("wrong token count")
        grid = Grid(cells, spacing)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"malformed snapshot header: {lines[1]!r}") from exc
    fields = []
    for i in range(n_species):
        if 2 + i >= len(lines):
            raise ConfigError(f"snapshot ends before species {i + 1}")
        try:
            values = np.array([float(t) for t in lines[2 + i].split()])
            if values.size != grid.n_cells:
                raise ValueError(f"{values.size} values, expected {grid.n_cells}")
            fields.append(Field(grid, values))
        except ValueError as exc:
            raise ConfigError(f"species {i + 1}: {exc}") from exc
    return grid, fields, time


def read_snapshot(path) -> tuple[Grid, list[Field], float]:
    with open(path, "r") as fh:
        return parse_snapshot(fh.read())
