"""Deterministic preconditioned conjugate gradients for matrix-free SPD operators.

Repeated solves of the same data with the same BLAS thread count are
bit-identical. The inner products and norms are numpy's BLAS calls, whose
OpenBLAS reductions split across threads from 16,384 entries on, so on such
grids the last bits can change with `OPENBLAS_NUM_THREADS`.
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
    # the implicit operator divides by tau
    if not math.isfinite(1.0 / float(tau)):
        raise ValueError(f"tau {tau!r} is too small: 1 / tau is not a finite float")


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
    if tol <= 0:
        raise ValueError("tol must be positive")
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
    # underflow or overflow. The scaled b peaks at `peak`, in [0.5, 1); a
    # start is scaled by the same power of two.
    peak, exponent = math.frexp(float(np.max(np.abs(b), initial=0.0)))
    if not math.isfinite(peak):
        # else the threshold tol * ||b|| is infinite (any x meets it) or NaN
        raise LinearSolverError("conjugate-gradient breakdown at iteration 1 (non-finite values)")
    x = None if x0 is None or peak == 0.0 else np.ldexp(x0, -exponent)
    x, iterations, res, converged = _pcg(A, np.ldexp(b, -exponent), x, peak, tol, max_iter)
    return np.ldexp(x, exponent), SolverReport(iterations, math.ldexp(res, exponent), converged)


def _pcg(A, b: np.ndarray, x: np.ndarray | None, peak: float, tol: float,
         max_iter: int) -> tuple[np.ndarray, int, float, bool]:
    # the floor keeps the stopping rule meaningful for b close to (or exactly) zero
    threshold = tol * (float(np.linalg.norm(b)) + 1e-14 * peak * b.size)
    if x is None:
        x, r = np.zeros(A.n_cols), b.copy()
    else:
        r = b - A.matvec(x)
    res = float(np.linalg.norm(r))
    if res <= threshold:
        return x, 0, res, True

    iterations = 0
    p = A.precondition(r)
    rz = _positive(float(r @ p), iterations + 1, "r.z not positive")
    while iterations < max_iter:
        iterations += 1
        Ap = A.matvec(p)
        alpha = rz / _positive(float(p @ Ap), iterations, "operator not positive definite?")
        x = x + alpha * p
        r = r - alpha * Ap
        res = float(np.linalg.norm(r))
        if res <= threshold:
            # confirm against the true residual before declaring victory
            r = b - A.matvec(x)
            res = float(np.linalg.norm(r))
            if res <= threshold:
                return x, iterations, res, True
            # recurrence drifted: restart the search direction from here
            p = A.precondition(r)
            rz = _positive(float(r @ p), iterations + 1, "r.z not positive")
            continue
        z = A.precondition(r)
        rz_new = _positive(float(r @ z), iterations + 1, "r.z not positive")
        p = z + (rz_new / rz) * p
        rz = rz_new

    return x, iterations, res, False


def _positive(product: float, iterations: int, not_positive: str) -> float:
    """p.Ap or r.z, which CG divides by: not positive and finite is a breakdown.

    r.z can underflow to zero; its breakdown is charged to the iteration that
    would have used the direction it scales.
    """
    if not 0.0 < product < np.inf:
        raise LinearSolverError(
            f"conjugate-gradient breakdown at iteration {iterations} "
            + (f"({not_positive})" if product <= 0.0 else "(non-finite values)"))
    return product
