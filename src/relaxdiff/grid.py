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


# The solver keeps a dense n x n cosine basis per axis length (8 n^2 bytes):
# 512 MiB at this cap, which still admits a 1024-cell axis refined twice.
MAX_AXIS_CELLS = 2**13


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on a rectangle in 1 or 2 dimensions.

    `cells` holds the cell count per axis, `spacing` the (uniform) cell width
    per axis. Fields are flat arrays with the first axis fastest: in 2D the
    cell (i1, i2) lives at flat index i2 * n1 + i1. This class is the only
    place that maps a flat field onto its axes (`_axes_view`).
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
        if any(n > MAX_AXIS_CELLS for n in self.cells):
            raise ValueError(f"at most {MAX_AXIS_CELLS} cells per axis, the size of the "
                             "largest cosine basis the solver builds")
        for h in self.spacing:
            if not (h > 0 and math.isfinite(h)):
                raise ValueError("spacings must be positive and finite")
            if not (h * h > 0 and math.isfinite(1.0 / (h * h))):
                raise ValueError(f"spacing {h!r} is too small: 1 / h^2 is not a finite float")

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

    def refined(self) -> "Grid":
        """The grid with twice the cells per axis at half the spacing."""
        return Grid(tuple(2 * n for n in self.cells), tuple(h / 2 for h in self.spacing))

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Center coordinate along each axis, as flat per-cell arrays."""
        index = np.indices(self.cells[::-1]).reshape(self.ndim, -1)[::-1]
        return tuple(h * (i + 0.5) for i, h in zip(index, self.spacing))

    def _axes_view(self, values: np.ndarray) -> np.ndarray:
        """A flat field viewed with one array axis per grid axis, of shape cells[::-1].

        The first grid axis is the fastest, so grid axis k is array axis -1 - k.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_cells,):
            raise DimensionMismatchError(
                f"field has {values.shape} values, grid has {self.n_cells} cells"
            )
        return values.reshape(self.cells[::-1])

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Apply the zero-flux Laplacian to a flat cell array: one 1D stencil per axis."""
        arr = self._axes_view(values)
        out = _axis_fluxes(arr, -1, self.spacing[0])
        for k in range(1, self.ndim):
            out += _axis_fluxes(arr, -1 - k, self.spacing[k])
        return out.reshape(-1)

    def coarsen(self, values: np.ndarray) -> np.ndarray:
        """Average cell pairs along each axis: a field of this grid on the grid it refines."""
        if any(n % 2 for n in self.cells):
            raise DimensionMismatchError(f"cannot coarsen {self.cells} cells: a count is odd")
        arr = self._axes_view(values)
        for axis in range(self.ndim):
            pairs = np.swapaxes(arr, 0, axis)
            arr = np.swapaxes(0.5 * (pairs[0::2] + pairs[1::2]), 0, axis)
        return arr.reshape(-1)

    def shifted_solver(self, c: float, s: float) -> Callable[[np.ndarray], np.ndarray]:
        """The exact solve of (c I - s L) x = values, as a function of values.

        Works in the cosine eigenbasis of each axis, whose dense matrix is
        built on first use and cached per axis length (8 n^2 bytes). The
        shifted spectrum c + s mu is built once here, so an operator that
        applies one shift on every iteration pays for it once. A constant
        field is in the kernel of L and comes back as values / c, bit for bit.
        """
        bases, lam = _cosine_spectrum(self.cells, self.spacing)
        spectrum = c + s * lam

        def divide(spectral: np.ndarray) -> None:
            spectral /= spectrum

        def solve(values: np.ndarray) -> np.ndarray:
            arr = self._axes_view(values)
            if np.all(arr == arr.flat[0]):
                return arr.reshape(-1) / c
            return self._in_cosine_basis(arr, bases, divide)

        return solve

    def coarse_corrected_solver(self, d: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """An SPD approximate solve of (diag(d) - L) x = values, exact on the lowest modes.

        In the cosine basis the lowest `COARSE_MODES_*` modes per axis are
        solved with the Galerkin block E = C_l diag(d) C_l^T + Lambda_l of the
        operator, and every other mode is divided by c + mu, as
        `shifted_solver(c, 1)` does with c = sqrt(min d) sqrt(max d) (Nicolaides,
        SIAM J. Numer. Anal. 24(2), 1987). A smooth `d` couples only the few
        lowest modes strongly, so this is close to the exact inverse. E is
        factored as L L^T once here and applied as W^T (W y) with W = L^{-1},
        which is SPD whatever the rounding in W. A constant `d` (whose exact
        inverse the shift is) or an E that is singular to working precision or
        fails to factor gives the plain shift.
        """
        d = self._axes_view(d)
        lo, hi = float(np.min(d)), float(np.max(d))
        c = math.sqrt(lo) * math.sqrt(hi)
        if lo == hi:
            return self.shifted_solver(c, 1.0)
        bases, lam = _cosine_spectrum(self.cells, self.spacing)
        m = COARSE_MODES_1D if self.ndim == 1 else COARSE_MODES_2D
        block = tuple(slice(0, min(n, m)) for n in self.cells[::-1])
        low = lam[block]
        W = _coarse_inverse_factor(d, low)
        if W is None:
            return self.shifted_solver(c, 1.0)
        spectrum = c + lam

        def correct(spectral: np.ndarray) -> None:
            exact = W.T @ (W @ spectral[block].reshape(-1))
            spectral /= spectrum
            spectral[block] = exact.reshape(low.shape)

        def solve(values: np.ndarray) -> np.ndarray:
            return self._in_cosine_basis(self._axes_view(values), bases, correct)

        return solve

    def _in_cosine_basis(self, arr: np.ndarray, bases: tuple[np.ndarray, ...],
                         act: Callable[[np.ndarray], None]) -> np.ndarray:
        """Map a field to cosine coefficients, let `act` change them in place, map back."""
        if self.ndim == 1:
            (C,) = bases
            spectral = C @ arr
            act(spectral)
            return C.T @ spectral
        C1, C2 = bases
        spectral = C2 @ arr @ C1.T
        act(spectral)
        return (C2.T @ spectral @ C1).reshape(-1)


# The coarse block of `Grid.coarse_corrected_solver` has prod(m) rows, m modes
# per axis. Per solve, its assembly costs about 2 N m^2 multiply-adds for N
# cells in 2D (N m^2 in 1D), and its factoring and inversion (prod m)^3 / 3
# each; each CG iteration applies it for 2 (prod m)^2. At 128^2 (a 144-row
# block) that is 7 M once per solve (about 1 ms) and 41 k per iteration,
# against the 8 M of the four basis products of every iteration.
COARSE_MODES_1D = 16
COARSE_MODES_2D = 12


def _coarse_inverse_factor(d: np.ndarray, lam: np.ndarray) -> np.ndarray | None:
    """W = L^{-1} for the Cholesky factor L L^T of the coarse Galerkin block, or None.

    `d` is the diagonal and `lam` the eigenvalues of -L on the coarse modes,
    both on the field's layout (grid axis k along array axis -1 - k), so
    `lam` has the shape of the coarse modes kept. The block is assembled one
    axis at a time, by contracting `d` with that axis' `_basis_products`. Its
    rows are the coarse cosine coefficients in the order of the field's layout.
    """
    coarse = lam.shape[::-1]
    pairs = [_basis_products(n, m) for n, m in zip(d.shape[::-1], coarse)]
    with np.errstate(over="ignore", invalid="ignore"):
        if len(coarse) == 1:
            (m1,) = coarse
            E = (pairs[0] @ d).reshape(m1, m1)
        else:
            m1, m2 = coarse
            E = (pairs[1] @ d @ pairs[0].T).reshape(m2, m2, m1, m1)
            E = E.transpose(0, 2, 1, 3).reshape(m2 * m1, m2 * m1)
    E.flat[::E.shape[0] + 1] += lam.reshape(-1)
    if not np.all(np.isfinite(E)):
        return None
    try:
        factor = np.linalg.cholesky(E)
    except np.linalg.LinAlgError:
        return None
    # a pivot below epsilon times the largest one: E is singular to working
    # precision, and no factor of it solves the coarse modes
    pivots = np.diag(factor) ** 2
    if not np.min(pivots) > np.finfo(np.float64).eps * np.max(pivots):
        return None
    W = _lower_inverse(factor)
    return W if np.all(np.isfinite(W)) else None


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """The inverse of a lower-triangular matrix, by 2 x 2 blocks.

    inv([[A, 0], [B, C]]) = [[inv A, 0], [-inv C B inv A, inv C]]: n^3 / 3
    flops, mostly in matrix products, where `np.linalg.inv` solves a full LU
    system for 8 n^3 / 3 (0.35 ms against 1.2 ms at n = 144, one thread).
    """
    n = L.shape[0]
    if n <= 36:  # leaves of 18 and 36 rows timed alike at n = 144, 72 slower
        return np.linalg.inv(L)
    k = n // 2
    A, C = _lower_inverse(L[:k, :k]), _lower_inverse(L[k:, k:])
    W = np.zeros_like(L)
    W[:k, :k], W[k:, k:] = A, C
    W[k:, :k] = -C @ (L[k:, :k] @ A)
    return W


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


@functools.lru_cache(maxsize=8)
def _cosine_spectrum(cells: tuple[int, ...], spacing: tuple[float, ...]) -> tuple:
    """Each axis' cosine basis, and the eigenvalues of -L on the field's layout.

    Entry (j, i) of the 2D table is mu2[j] + mu1[i], mu_k = 4 sin^2 / h_k^2
    along grid axis k. Read-only, because every solver of the grid shares it.
    """
    bases = tuple(_cosine_basis(n)[0] for n in cells)
    mu = [4.0 * _cosine_basis(n)[1] / (h * h) for n, h in zip(cells, spacing)]
    lam = functools.reduce(np.add.outer, mu[::-1])  # grid axis k along array axis -1 - k
    lam.flags.writeable = False
    return bases, lam


@functools.lru_cache(maxsize=8)
def _basis_products(n: int, m: int) -> np.ndarray:
    """Products c_a * c_b of the first m rows of the length-n cosine basis.

    Row a * m + b holds the cellwise product of basis rows a and b, so a
    contraction with a diagonal d gives the Galerkin entries c_a diag(d) c_b^T.
    Read-only, like the basis it is made from.
    """
    C, _ = _cosine_basis(n)
    pairs = (C[:m, None] * C[None, :m]).reshape(m * m, n)
    pairs.flags.writeable = False
    return pairs


def _axis_fluxes(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """The 1D zero-flux stencil along one array axis: sum of (neighbor - cell) / h^2.

    A zero result is always +0.0, whatever the signs of zeros in `arr`.
    """
    a = np.swapaxes(arr, 0, axis)
    d = a[1:] - a[:-1]  # the difference across each interior face
    out = np.empty_like(arr)
    o = np.swapaxes(out, 0, axis)
    np.add(d, 0.0, out=o[:-1])  # each cell's face above, with -0.0 made +0.0
    o[-1] = 0.0  # the last cell has no face above
    o[1:] -= d  # each cell's face below
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


def laplacian_apply(f: Field) -> Field:
    """Zero-flux Laplacian of a field; returns a fresh field on its grid."""
    return Field(f.grid, f.grid.laplacian(f.values))


def integrate(g: Grid, f: Field) -> float:
    """Cell-measure weighted sum, the discrete integral over the domain."""
    if f.grid != g:
        raise DimensionMismatchError("field does not live on this grid")
    return g.cell_measure * float(np.sum(f.values))
