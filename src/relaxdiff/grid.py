"""Cell-centered rectangular grids with the zero-flux discrete Laplacian.

The Laplacian is applied in flux-difference form, summing
(neighbor - cell) / h^2 over existing neighbors. That form annihilates
constant fields exactly in floating point, which is what makes the discrete
mass balance of the time stepper exact rather than approximate.

The same Laplacian is diagonal in the orthonormal cosine (DCT-II) basis of
each axis (Strang, "The Discrete Cosine Transform", SIAM Review 41(1), 1999),
so shifted systems (c I - s L) x = r are solved exactly by two basis changes
and one division.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on a rectangle in 1 or 2 dimensions.

    `cells` holds the cell count per axis, `spacing` the (uniform) cell width
    per axis. Fields are flattened row-major with the first axis fastest:
    in 2D the cell (i1, i2) lives at flat index i2 * n1 + i1.
    """

    cells: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        if len(self.cells) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if len(self.spacing) != len(self.cells):
            raise ValueError("one spacing per axis required")
        if any(n < 1 for n in self.cells):
            raise ValueError("cell counts must be positive")
        if any(not (h > 0) for h in self.spacing):
            raise ValueError("spacings must be positive")

    @property
    def ndim(self) -> int:
        return len(self.cells)

    @property
    def n_cells(self) -> int:
        return math.prod(self.cells)

    @property
    def cell_measure(self) -> float:
        return float(math.prod(self.spacing))

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(n * h for n, h in zip(self.cells, self.spacing))

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Center coordinate along each axis, as flat per-cell arrays."""
        axes = [h * (np.arange(n) + 0.5) for n, h in zip(self.cells, self.spacing)]
        if self.ndim == 1:
            return (axes[0],)
        x2, x1 = np.meshgrid(axes[1], axes[0], indexing="ij")
        return (x1.ravel(), x2.ravel())

    def _flat_cells(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_cells,):
            raise DimensionMismatchError(
                f"field has {values.shape} values, grid has {self.n_cells} cells"
            )
        return values

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Apply the zero-flux Laplacian to a flat cell array."""
        values = self._flat_cells(values)
        if self.ndim == 1:
            return _axis_fluxes(values, self.spacing[0])
        n1, n2 = self.cells
        arr = values.reshape(n2, n1)
        out = _axis_fluxes(arr, self.spacing[0], axis=1)
        out += _axis_fluxes(arr, self.spacing[1], axis=0)
        return out.reshape(-1)

    def shifted_solve(self, values: np.ndarray, c: float, s: float) -> np.ndarray:
        """Solve (c I - s L) x = values exactly, for c > 0 and s >= 0; see `shifted_solver`."""
        return self.shifted_solver(c, s)(values)

    def shifted_solver(self, c: float, s: float) -> Callable[[np.ndarray], np.ndarray]:
        """The exact solve of (c I - s L) x = values, as a function of values.

        Works in the cosine eigenbasis of each axis, whose dense matrix is
        built on first use and cached per axis length (8 n^2 bytes). The
        shifted spectrum c + s mu is built once here, so an operator that
        applies one shift on every iteration pays for it once. A constant
        field is in the kernel of L and comes back as values / c, bit for bit.
        """
        axes = [_cosine_basis(n) for n in self.cells]
        # eigenvalues of -L per axis: 4 sin^2(pi k / 2n) / h^2
        mu = [4.0 * sin2 / (h * h) for (_, sin2), h in zip(axes, self.spacing)]
        if self.ndim == 1:
            C, _ = axes[0]
            spectrum = c + s * mu[0]
        else:
            (C1, _), (C2, _) = axes
            n1, n2 = self.cells
            spectrum = c + s * (mu[1][:, None] + mu[0][None, :])

        def solve(values: np.ndarray) -> np.ndarray:
            values = self._flat_cells(values)
            if np.all(values == values[0]):
                return values / c
            if self.ndim == 1:
                return C.T @ ((C @ values) / spectrum)
            spectral = C2 @ values.reshape(n2, n1) @ C1.T
            spectral /= spectrum
            return (C2.T @ spectral @ C1).reshape(-1)

        return solve


@functools.lru_cache(maxsize=8)
def _cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix of length n and sin^2(pi k / 2n) per row k.

    Row k of the matrix is the k-th eigenvector of the 1D zero-flux
    Laplacian, cos(pi k (j + 1/2) / n) scaled to unit length. Both arrays are
    read-only, because every caller shares them.
    """
    k = np.arange(n)
    C = np.cos(np.pi / n * np.outer(k, k + 0.5)) * math.sqrt(2.0 / n)
    C[0] = math.sqrt(1.0 / n)
    sin2 = np.sin(np.pi / (2 * n) * k) ** 2
    C.flags.writeable = False
    sin2.flags.writeable = False
    return C, sin2


def _axis_fluxes(arr: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    out = np.zeros_like(arr)
    if arr.shape[axis] > 1:
        d = np.diff(arr, axis=axis)
        lower = [slice(None)] * arr.ndim
        upper = [slice(None)] * arr.ndim
        lower[axis] = slice(None, -1)
        upper[axis] = slice(1, None)
        out[tuple(lower)] += d
        out[tuple(upper)] -= d
    out /= h * h
    return out


@dataclass(eq=False)
class Field:
    """Scalar values sampled on the cells of one grid, flattened row-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=np.float64).reshape(-1)
        if self.values.shape != (self.grid.n_cells,):
            raise DimensionMismatchError(
                f"{self.values.size} values for a grid of {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.n_cells, float(value)))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def _require_on_grid(g: Grid, f: Field) -> None:
    if f.grid != g:
        raise DimensionMismatchError("field does not live on this grid")


def laplacian_apply(g: Grid, f: Field) -> Field:
    """Zero-flux Laplacian of a field; returns a fresh field."""
    _require_on_grid(g, f)
    return Field(g, g.laplacian(f.values))


def integrate(g: Grid, f: Field) -> float:
    """Cell-measure weighted sum, the discrete integral over the domain."""
    _require_on_grid(g, f)
    return g.cell_measure * float(np.sum(f.values))
