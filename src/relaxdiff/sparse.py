"""Deterministic preconditioned conjugate gradients for matrix-free SPD operators.

Repeated solves of the same data are bit-identical. Every inner product,
each norm's included, is `np.einsum("i,i->", x, y)`, which sums in one
fixed order on one thread, so the bits do not depend on the BLAS thread
count (BLAS `ddot` splits its sum across threads on long vectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, LinearSolverError

# The default tolerance of every solve, which `SchemeConfig` and each library
# call that solves take from here, and the iteration cap of every solve the
# library runs: a constant, not a setting (only `cg_solve` takes its own).
LINEAR_TOL = 1e-10
LINEAR_MAX_ITER = 10_000


def check_step_size(tau: float) -> None:
    """Reject a step size that is not positive and finite or whose 1 / tau is not."""
    if not (0 < tau < np.inf):
        raise ValueError("tau must be positive and finite")
    # 1 / tau overflows only for a subnormal tau, one of fewer than 53 significant bits
    if not math.isfinite(1.0 / float(tau)):
        raise ValueError(f"tau {tau!r} is too small: 1 / tau is not a finite float")


def check_tolerance(tol: float) -> None:
    """Reject a CG tolerance outside [2**-52, 1), NaN included."""
    # no residual can fall below float64 rounding relative to ||b||
    if not (tol >= 2**-52):
        raise ValueError("linear tolerance must be at least 2**-52, the float64 epsilon")
    # at tol >= 1 the stopping rule accepts x = 0 for every right-hand side
    if not (tol < 1):
        raise ValueError("linear tolerance must be below 1")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one iterative solve."""

    iterations: int
    residual_norm: float
    converged: bool


def cg_solve(
    A, b: np.ndarray, tol: float = LINEAR_TOL, max_iter: int = LINEAR_MAX_ITER,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Preconditioned conjugate gradients for a symmetric positive-definite operator.

    `A` is any object exposing `n_rows`, `n_cols`, `matvec(x)` and
    `precondition(r)`, which applies a symmetric positive-definite
    approximation of A^{-1} (the identity gives plain CG). The iteration
    starts from `x0` when given (a warm start), else from zero; a zero `b`
    has the exact solution zero, whatever `x0`. Convergence is declared when
    the true residual satisfies ||b - A x||_2 <= tol * (||b||_2 + floor), so
    an `x0` that already meets it comes back unchanged after 0 iterations;
    non-convergence is reported, not raised, so the caller decides. A
    breakdown, a non-finite `b` included, raises `LinearSolverError`.
    """
    check_tolerance(tol)
    b = np.asarray(b, dtype=np.float64)
    if A.n_rows != A.n_cols:
        raise DimensionMismatchError("cg_solve requires a square operator")
    n = A.n_cols
    if b.shape != (n,):
        raise DimensionMismatchError(f"right-hand side must have length {n}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n,):
            raise DimensionMismatchError(f"starting iterate must have length {n}")

    # Scaling b by a power of two is exact, so the iterates are those of the
    # unscaled problem, but the inner products of tiny or huge data no longer
    # underflow or overflow. A b that peaks in [2^-64, 2^64) is far from
    # either and runs as given; any other is scaled to peak in [0.5, 1), and
    # a start by the same power of two. CG updates only its own copy of a
    # start and makes each residual anew, so `b` and `x0` stay as given, and
    # an unscaled iterate comes back as the very array that A was last
    # applied to, if CG ended on a residual check.
    top = float(np.abs(b).max(initial=0.0))
    if not math.isfinite(top):
        # else the threshold tol * ||b|| is infinite (any x meets it) or NaN
        raise LinearSolverError("conjugate-gradient breakdown at iteration 1 (non-finite values)")
    exponent = math.frexp(top)[1]
    if -64 < exponent <= 64:
        exponent = 0
    x = None if x0 is None or top == 0.0 else np.ldexp(x0, -exponent)
    b = np.ldexp(b, -exponent) if exponent else b
    x, iterations, res, converged = _pcg(A, b, x, math.ldexp(top, -exponent), tol, max_iter)
    if exponent:
        x, res = np.ldexp(x, exponent), math.ldexp(res, exponent)
    return x, SolverReport(iterations, res, converged)


@np.errstate(over="ignore", invalid="ignore")  # `_positive` reports non-finite values
def _pcg(A, b: np.ndarray, x: np.ndarray | None, peak: float, tol: float,
         max_iter: int) -> tuple[np.ndarray, int, float, bool]:
    # the floor keeps the stopping rule meaningful for b close to (or exactly) zero
    threshold = tol * (math.sqrt(float(np.einsum("i,i->", b, b))) + 1e-14 * peak * b.size)
    if x is None:
        x, r = np.zeros(A.n_cols), b
    else:
        r = b - A.matvec(x)
    res = math.sqrt(float(np.einsum("i,i->", r, r)))
    if res <= threshold:
        return x, 0, res, True

    iterations = 0
    p = A.precondition(r)
    rz = _positive(r, p, iterations + 1, "r.z not positive")
    while iterations < max_iter:
        iterations += 1
        Ap = A.matvec(p)
        alpha = rz / _positive(p, Ap, iterations, "operator not positive definite?")
        x += alpha * p
        r = r - alpha * Ap
        res = math.sqrt(float(np.einsum("i,i->", r, r)))
        if res <= threshold:
            # confirm against the true residual before declaring victory
            r = b - A.matvec(x)
            res = math.sqrt(float(np.einsum("i,i->", r, r)))
            if res <= threshold:
                return x, iterations, res, True
            # recurrence drifted: restart the search direction from here
            p = A.precondition(r)
            rz = _positive(r, p, iterations + 1, "r.z not positive")
            continue
        z = A.precondition(r)
        rz_new = _positive(r, z, iterations + 1, "r.z not positive")
        p = z + (rz_new / rz) * p
        rz = rz_new

    return x, iterations, res, False


def _positive(x: np.ndarray, y: np.ndarray, iterations: int, not_positive: str) -> float:
    """p.Ap or r.z, which CG divides by: not positive and finite is a breakdown.

    r.z can underflow to zero; its breakdown is charged to the iteration that
    would have used the direction it scales.
    """
    product = float(np.einsum("i,i->", x, y))
    if not 0.0 < product < np.inf:
        raise LinearSolverError(
            f"conjugate-gradient breakdown at iteration {iterations} "
            + (f"({not_positive})" if product <= 0.0 else "(non-finite values)"))
    return product
