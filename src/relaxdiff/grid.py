"""Cell-centered rectangular grids with the zero-flux discrete Laplacian.

The Laplacian is applied in flux-difference form, summing
(neighbor - cell) / h^2 over existing neighbors. That form annihilates
constant fields exactly in floating point, which is what makes the discrete
mass balance of the time stepper exact rather than approximate.

Both solves of the time stepper have the operator diag(d) - s L (`Grid.solver`): in 1D
exact elimination, in 2D the cosine (DCT-II) basis of each axis (Strang, SIAM Review, 1999).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, LinearSolverError


# A 2D grid's cosine tables hold a dense n x n basis per distinct axis length
# (8 n^2 bytes): 512 MiB at this cap, which still admits a 1024-cell axis refined twice.
MAX_AXIS_CELLS = 2**13

_EPS = float(np.finfo(np.float64).eps)


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

    @functools.cached_property
    def n_cells(self) -> int:
        # kept in the instance __dict__, not a field: equality, hash and repr ignore it
        return math.prod(self.cells)

    @property
    def cell_measure(self) -> float:
        return float(math.prod(self.spacing))

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(n * h for n, h in zip(self.cells, self.spacing))

    def integral(self, values: np.ndarray) -> float:
        """The discrete integral of a flat cell array: its cell-measure weighted sum."""
        return self.cell_measure * float(values.sum())

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

    def field(self, values: np.ndarray) -> np.ndarray:
        """`values` as one flat float64 field of this grid, checked as a library entry checks it.

        A wrong length raises `DimensionMismatchError` (`_axes_view`), a value
        that is not finite `ValueError`. The result may share memory with `values`.
        """
        values = self._axes_view(values).reshape(-1)
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        return values

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Apply the zero-flux Laplacian to a flat cell array: one 1D stencil per axis."""
        x = self._axes_view(values).reshape(-1)
        n1 = self.cells[0]
        out = _axis_fluxes(x, 1, n1, self.spacing[0])
        if self.ndim == 2:
            out += _axis_fluxes(x, n1, self.cells[1], self.spacing[1])
        return out

    def coarsen(self, values: np.ndarray) -> np.ndarray:
        """Average cell pairs along each axis: a field of this grid on the grid it refines."""
        if any(n % 2 for n in self.cells):
            raise DimensionMismatchError(f"cannot coarsen {self.cells} cells: a count is odd")
        arr = self._axes_view(values)
        for axis in range(self.ndim):
            pairs = np.swapaxes(arr, 0, axis)
            arr = np.swapaxes(0.5 * (pairs[0::2] + pairs[1::2]), 0, axis)
        return arr.reshape(-1)

    def solver(self, d, s: float) -> tuple[Callable[[np.ndarray], np.ndarray], bool]:
        """A solve of (diag(d) - s L) x = values, and whether CG starts from it.

        `d` > 0 is a scalar or one value per cell, s > 0. A constant `d` (a scalar,
        or an array whose least and largest values are equal) takes the exact
        `_shift_solver` of its value; a varying one exact elimination in 1D, which
        raises `LinearSolverError` for an operator singular to working precision,
        and in 2D `_coarse_solver`, the one solve that CG does not start from.
        """
        d = np.asarray(d, dtype=np.float64)
        d = self._axes_view(d) if d.ndim else d
        lo, hi = (float(d.min()), float(d.max())) if d.ndim else (float(d),) * 2
        if lo == hi:
            solve = _shift_solver(self.cells, self.spacing, lo, s)
        elif self.ndim == 1:
            solve = _elimination_solver(d.tolist(), s / (self.spacing[0] * self.spacing[0]))
        else:
            solve = _coarse_solver(self.cells, self.spacing, d, s, math.sqrt(lo) * math.sqrt(hi))
        return (lambda values: solve(self._axes_view(values))), lo == hi or self.ndim == 1


def _elimination_solver(d: list[float], w: float) -> Callable[[np.ndarray], np.ndarray]:
    """The exact solve of (diag(d) - s L) x = r on a 1D grid with w = s / h^2.

    The operator is a tridiagonal, diagonally dominant M-matrix: elimination
    without pivoting is stable (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002, section 9.5). Row i keeps e_i = d_i + t_{i-1}, passes
    t_i = w (e_i / (e_i + w)) on and has the pivot p_i = e_i + w (e_i in the
    last row), with no subtraction. Pivots lie between the extreme eigenvalues:
    one not finite or below epsilon times the largest raises. With g_i = w / p_i
    the sweeps v_i = r_i / p_i + g_i v_{i-1} and x_i = v_i + g_i x_{i+1} make no
    BLAS call (`_recurrence`), and a nonnegative r gives a nonnegative x.
    """
    pivots, t = [], 0.0
    for di in d[:-1]:
        e = di + t
        pivot = e + w
        pivots.append(pivot)
        t = w * (e / pivot)
    pivots.append(d[-1] + t)
    p = np.array(pivots, dtype=np.float64)
    if not (p.max() < np.inf and p.min() > _EPS * p.max()):
        raise LinearSolverError("operator singular to working precision (an elimination "
                                "pivot is not finite or below epsilon times the largest)")
    forward, back = _recurrence(w / p[1:], p), _recurrence((w / p[:-1])[::-1], 1.0)
    # the back sweep runs on the reversed cells, into a reversed view of x
    return lambda r: back(forward(r, np.empty(r.size))[::-1], np.empty(r.size)[::-1])[::-1]


def _recurrence(gains: np.ndarray, p) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A solve of y_k = c_k / p_k + gains[k - 1] y_{k-1} into y, by prefix sums.

    On a segment from cell a, y = G cumsum(c / (p G)), G_k = gains[k - 1] G_{k-1},
    its first term carrying gains[a - 1] y_{a-1} / G_a (Blelloch, "Prefix sums and
    their applications", CMU-CS-90-190, 1990). A segment ends where G would fall
    below 2^-40 times its first (one vectorized search per segment), and is
    scaled to least 1: no term or sum exceeds c / p or y, and one rounded below
    the smallest normal float grows by at most 2^40 (1 / epsilon at a last gain
    above 1).
    """
    n, floor = gains.size + 1, 2.0**-40
    G, segments, a = np.empty(n), [], 0
    while a < n:
        products = G[a:]
        products[0] = 1.0
        gains[a:].cumprod(out=products[1:])
        if products.min() < floor:
            products = products[:(products < floor).argmax()]
        products /= products.min()
        segments.append((a, a + products.size, float(gains[a - 1] / G[a]) if a else 0.0))
        a += products.size
    weights = 1.0 / (p * G)

    def solve(c: np.ndarray, y: np.ndarray) -> np.ndarray:
        terms = c * weights
        for a, b, carry in segments:
            if a:
                terms[a] += carry * y[a - 1]
            np.multiply(terms[a:b].cumsum(), G[a:b], out=y[a:b])
        return y

    return solve


@functools.lru_cache(maxsize=8)
def _shift_solver(cells: tuple[int, ...], spacing: tuple[float, ...], c: float,
                  s: float) -> Callable[[np.ndarray], np.ndarray]:
    """The exact solve of (c - s L) x = values on a field's axes view, once per operator.

    In 1D `_elimination_solver` of d = c; in 2D the cosine coefficients divided
    by c + s mu, where an overflow solves a mode to 0, below the others' rounding.
    A constant field, in the kernel of L, gives values / c, bit for bit.
    """
    if len(cells) == 1:
        solve = _elimination_solver([c] * cells[0], s / (spacing[0] * spacing[0]))
    else:
        (C1, C2), lam = _cosine_tables(cells, spacing)[:2]
        with np.errstate(over="ignore"):
            spectrum = c + s * lam

        def solve(arr: np.ndarray) -> np.ndarray:
            spectral = C2 @ arr @ C1.T
            spectral /= spectrum
            return (C2.T @ spectral @ C1).reshape(-1)

    return lambda arr: arr.reshape(-1) / c if (arr == arr.flat[0]).all() else solve(arr)


# The coarse block of `Grid.solver` on a 2D grid has prod(m) rows, m modes
# per axis. Per solve, its assembly costs about 2 m N + 2 m^5 multiply-adds
# for N cells (`_coarse_solver`), and its inverse factor about
# 2 (prod m)^3 / 3; each CG iteration applies it for 2 (prod m)^2. At 128^2
# (a 144-row block) that is 1 M for the assembly and 2 M for the rest, once
# per solve, and 41 k per iteration, against the 8 M of the four basis
# products of every iteration.
COARSE_MODES_2D = 12


def _coarse_solver(cells: tuple[int, ...], spacing: tuple[float, ...], d: np.ndarray, s: float,
                   c: float) -> Callable[[np.ndarray], np.ndarray]:
    """The coarse-corrected solve of a varying 2D `d` on a field's axes view.

    The lowest m = `COARSE_MODES_2D` cosine modes per axis take the solve of
    the Galerkin block E = C_l diag(d) C_l^T + s Lambda_l, which G = K2 d K1^T,
    the 2m - 1 lowest cosine coefficients of `d` per axis, spreads over each
    axis's basis products (`_cosine_tables`), as W^T (W y), W = L^{-1} for
    E = L L^T (SPD whatever the rounding in W; Nicolaides, SIAM J. Numer. Anal.
    24(2), 1987). The others, and all where E is not finite or a pivot diag(L)^2
    is not above epsilon times the largest, take `_shift_solver` at c, the
    geometric mean sqrt(min d) sqrt(max d).
    """
    t = _cosine_tables(cells, spacing)
    (C1, C2), (K1, K2), (T1, T2), (m2, m1) = t.bases, t.cosines, t.pair_weights, t.low.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        E = (T2.T @ (K2 @ d @ K1.T) @ T1).reshape(m2, m2, m1, m1)
        E = E.transpose(0, 2, 1, 3).reshape(m2 * m1, m2 * m1)
        E.flat[::E.shape[0] + 1] += s * t.low.reshape(-1)
        try:
            W = _inverse_factor(E)  # a leaf that is not positive definite raises
        except np.linalg.LinAlgError:
            return _shift_solver(cells, spacing, c, s)
        pivots = W.diagonal() ** -2.0
        if not (np.isfinite(E).all() and np.isfinite(W).all()
                and pivots.min() > _EPS * pivots.max()):
            return _shift_solver(cells, spacing, c, s)
        spectrum = c + s * t.lam

    def solve(arr: np.ndarray) -> np.ndarray:
        spectral = C2 @ arr @ C1.T
        coarse = W.T @ (W @ spectral[:m2, :m1].reshape(-1))
        spectral /= spectrum
        spectral[:m2, :m1] = coarse.reshape(m2, m1)
        return (C2.T @ spectral @ C1).reshape(-1)

    return solve


def _inverse_factor(E: np.ndarray) -> np.ndarray:
    """W = L^{-1} for E = L L^T, SPD, by 2 x 2 blocks (Higham, 2002, chapter 10).

    W = [[A, 0], [-C L21 A, C]], with A from E11, L21 = E21 A^T and C from
    the Schur complement E22 - L21 L21^T. Leaves of at most 36 rows take
    linalg's `cholesky` and `inv`, which LAPACK runs unthreaded at that size,
    so no bit of W depends on the BLAS thread count. A leaf that is not
    positive definite raises `LinAlgError`.
    """
    n = E.shape[0]
    if n <= 36:  # leaves of 18 and 36 rows timed alike at n = 144, 72 slower
        return np.linalg.inv(np.linalg.cholesky(E))
    k = n // 2
    A = _inverse_factor(E[:k, :k])
    L21 = E[k:, :k] @ A.T
    C = _inverse_factor(E[k:, k:] - L21 @ L21.T)
    W = np.zeros_like(E)
    W[:k, :k], W[k:, k:] = A, C
    W[k:, :k] = -C @ (L21 @ A)
    return W


# The read-only data of one 2D grid's cosine solves (see `_cosine_tables`)
_CosineTables = namedtuple("_CosineTables", "bases lam low cosines pair_weights")


@functools.lru_cache(maxsize=8)
def _cosine_tables(cells: tuple[int, ...], spacing: tuple[float, ...]) -> _CosineTables:
    """The cosine tables of a 2D grid, built once and shared by all of its solvers.

    `bases`, `cosines` and `pair_weights` hold one read-only array per axis,
    one for axes of one length. Basis row k is the k-th eigenvector of the 1D
    zero-flux Laplacian, c_k = s_k cos(pi k (j + 1/2) / n), s_0 = sqrt(1 / n)
    and s_k = sqrt(2 / n) else, of eigenvalue mu_k = 4 sin^2(pi k / 2n) / h^2
    of -L. `lam` is mu2[j] + mu1[i] at (j, i), and `low` its corner of the
    lowest m = `COARSE_MODES_2D` modes per axis, the coarse block's. As
    c_a c_b = (s_a s_b / 2)(K_|a-b| + K_a+b), K_k = cos(pi k (j + 1/2) / n)
    (Strang, SIAM Review 41(1), 1999), `cosines` holds K_0 .. K_2m-2 and column
    a * m + b of `pair_weights` the weights of c_a c_b on them.
    """
    axes = {}  # per distinct axis length: basis, sin^2(pi k / 2n), cosine rows, pair weights
    for n in dict.fromkeys(cells):
        k = np.arange(n)
        C = np.cos(np.pi / n * np.outer(k, k + 0.5)) * math.sqrt(2.0 / n)
        C[0] = math.sqrt(1.0 / n)
        m = min(n, COARSE_MODES_2D)
        K = np.cos(np.pi / n * np.outer(np.arange(2 * m - 1), k + 0.5))
        scale = np.where(np.arange(m) == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
        pair = np.arange(m * m)
        a, b = np.divmod(pair, m)
        T = np.zeros((2 * m - 1, m * m))
        T[np.abs(a - b), pair] += scale[a] * scale[b] / 2
        T[a + b, pair] += scale[a] * scale[b] / 2  # a second time for a = b = 0
        for table in (C, K, T):
            table.flags.writeable = False
        axes[n] = C, np.sin(np.pi / (2 * n) * k) ** 2, K, T
    (C1, sin1, K1, T1), (C2, sin2, K2, T2) = (axes[n] for n in cells)
    h1, h2 = spacing
    lam = np.add.outer(4.0 * sin2 / (h2 * h2), 4.0 * sin1 / (h1 * h1))  # axis k along -1 - k
    lam.flags.writeable = False  # its low corner holds all modes of a shorter axis
    return _CosineTables((C1, C2), lam, lam[:COARSE_MODES_2D, :COARSE_MODES_2D],
                         (K1, K2), (T1, T2))


def _axis_fluxes(x: np.ndarray, stride: int, n: int, h: float) -> np.ndarray:
    """The 1D zero-flux stencil along one grid axis: sum of (neighbor - cell) / h^2.

    `x` is a flat field, whose neighbors along the axis lie `stride` cells
    apart, and the axis has `n` cells. Every step runs over the whole field
    at once: in 2D the fast axis differences each row's last cell with the
    next row's first too, and those differences, which cross no face, are
    set to zero. A zero result is always +0.0, whatever the signs of zeros
    in `x`.
    """
    d = x[stride:] - x[:-stride]  # the difference across each interior face
    if stride == 1 and n < x.size:
        d[n - 1::n] = 0.0  # from a row's last cell to the next row's first
    out = np.empty_like(x)
    np.add(d, 0.0, out=out[:-stride])  # each cell's face above, with -0.0 made +0.0
    out[-stride:] = 0.0  # the last cells have no face above
    out[stride:] -= d  # each cell's face below
    out /= h * h
    return out


def integrate(g: Grid, values: np.ndarray) -> float:
    """`Grid.integral` of one flat field of `g`, whose length `_axes_view` checks."""
    return g.integral(g._axes_view(values).reshape(-1))
