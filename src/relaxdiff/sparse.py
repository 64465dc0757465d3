"""Deterministic preconditioned conjugate gradients for matrix-free SPD operators.

The solver is written from scratch with a fixed accumulation order so that
repeated solves are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, LinearSolverError


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one iterative solve."""

    iterations: int
    residual_norm: float
    converged: bool
    tolerance_used: float


def _residual_floor(b: np.ndarray) -> float:
    # Keeps the stopping rule meaningful for b close to (or exactly) zero.
    if b.size == 0:
        return 0.0
    return 1e-14 * float(np.max(np.abs(b))) * b.size


def cg_solve(
    A, b: np.ndarray, tol: float = 1e-10, max_iter: int | None = None
) -> tuple[np.ndarray, SolverReport]:
    """Preconditioned conjugate gradients for a symmetric positive-definite operator.

    `A` is any object exposing `n_rows`, `n_cols`, `matvec(x)` and
    `precondition(r)`, which applies a symmetric positive-definite
    approximation of A^{-1} (the identity gives plain CG); the iteration
    starts from zero. Convergence is declared when the true residual
    satisfies ||b - A x||_2 <= tol * (||b||_2 + floor); non-convergence is
    reported, not raised, so the caller decides.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=np.float64)
    if A.n_rows != A.n_cols:
        raise DimensionMismatchError("cg_solve requires a square operator")
    n = A.n_cols
    if b.shape != (n,):
        raise DimensionMismatchError(f"right-hand side must have length {n}")
    if max_iter is None:
        max_iter = max(50, 10 * n)

    threshold = tol * (float(np.linalg.norm(b)) + _residual_floor(b))
    x = np.zeros(n)
    r = b.copy()
    res = float(np.linalg.norm(r))
    if res <= threshold:
        return x, SolverReport(0, res, True, tol)

    p = A.precondition(r)
    rz = float(r @ p)
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        Ap = A.matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0 or not np.isfinite(pAp):
            raise LinearSolverError(
                f"conjugate-gradient breakdown at iteration {iterations} "
                "(operator not positive definite?)"
            )
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        res = float(np.linalg.norm(r))
        if res <= threshold:
            # confirm against the true residual before declaring victory
            r = b - A.matvec(x)
            res = float(np.linalg.norm(r))
            if res <= threshold:
                return x, SolverReport(iterations, res, True, tol)
            # recurrence drifted: restart the search direction from here
            p = A.precondition(r)
            rz = float(r @ p)
            continue
        z = A.precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    return x, SolverReport(iterations, res, False, tol)
