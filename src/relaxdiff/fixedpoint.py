"""Independent solution paths used to cross-check the semi-implicit stepper.

`solve_frozen_slab` marches the linear problem in which the coefficient field
is fixed data, the building block behind the scheme's well-posedness.
`picard_step_with_info` turns one time step into a fully implicit one by
successive coefficient freezing. Its sweeps run in Gauss-Seidel order from
the previous time level: each species freezes its coefficient at the newest
regularized densities, those this sweep has already updated included, so the
first sweep freezes species 1 exactly as the semi-implicit step does. For two
species with a_1 = a_1(u_tilde_2) and a_2 = a_2(u_tilde_1) the sweep's
linearization is 2-cyclic, and this order squares the contraction factor of
the Jacobi order, in which every species froze at the previous candidate
(Varga, Matrix Iterative Analysis, ch. 4): it reaches the same fixed point in
about half the sweeps. Because the two paths approximate the same (unique,
for locally Lipschitz coefficients) solution, their end-of-horizon
discrepancy must shrink as tau does; that is what `cross_validate` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import PicardConvergenceError
from .grid import Field
from .model import ModelSpec, coefficient_fields
from .sparse import LINEAR_TOL, check_step_size
from .stepper import (
    SchemeConfig,
    SystemState,
    implicit_diffusion_step,
    initial_state,
    march,
    species_step,
    step_with_info,
)


# the sweep loop gives up after this many sweeps of one step
MAX_SWEEPS = 50


def solve_frozen_slab(
    A_nodes: Sequence[np.ndarray],
    w0: Field,
    tau: float,
    *,
    tol: float = LINEAR_TOL,
) -> list[Field]:
    """Time-march the linear problem with per-node frozen coefficients on the grid of `w0`.

    Returns the whole trajectory [w0, w1, ..., wN] with one implicit
    diffusion solve per node; N = len(A_nodes).
    """
    check_step_size(tau)
    trajectory = [w0.copy()]
    for A in A_nodes:
        trajectory.append(implicit_diffusion_step(trajectory[-1], A, tau, tol))
    return trajectory


def _relative_l2_change(new: Sequence[Field], old: Sequence[Field]) -> float:
    num = np.sqrt(sum(float(np.sum((a.values - b.values) ** 2)) for a, b in zip(new, old)))
    den = np.sqrt(sum(float(np.sum(b.values**2)) for b in old))
    return num / max(den, 1e-300)


def picard_step_with_info(
    state: SystemState,
    m: ModelSpec,
    cfg: SchemeConfig,
    tau: float,
) -> tuple[SystemState, int]:
    """One fully implicit step of size `tau` via successive coefficient freezing.

    Each sweep redoes the frozen-coefficient step from `state` species by
    species, in Gauss-Seidel order: species i freezes its coefficient at the
    newest regularized densities, u_tilde_1..u_tilde_{i-1} from this sweep and
    the rest from the previous candidate, which is `state` itself before the
    first sweep. In 2D the first sweep starts its implicit solves from zero,
    every later one from the z that species solved in the sweep before; a 1D
    implicit solve always starts from its exact answer. The loop stops when
    the candidate's relative L2 change across a sweep falls below
    10 * cfg.linear_tol, the slack of the solves it iterates; with
    state-independent coefficients that is the second sweep, and the result
    is bit for bit the semi-implicit step. After MAX_SWEEPS sweeps it raises
    `PicardConvergenceError`. Returns the step and its sweeps, the first
    included: the implicit solves per species.
    """
    candidate = state
    z = [None] * state.n_species
    for sweeps in range(1, MAX_SWEEPS + 1):
        u, u_tilde, w = list(candidate.u), list(candidate.u_tilde), list(candidate.w)
        for i in range(state.n_species):
            A = coefficient_fields(m, u_tilde, (i,))[0][0]
            # from the previous sweep's z (zero in the first sweep): only A has changed
            u[i], u_tilde[i], w[i], _, z[i] = species_step(state, m, cfg, i, A, tau, z[i])
        refreshed = SystemState(state.time + tau, u, u_tilde, w)
        change = _relative_l2_change(refreshed.u, candidate.u)
        candidate = refreshed
        if change < 10 * cfg.linear_tol:
            return candidate, sweeps
    raise PicardConvergenceError(
        f"step from t = {state.time!r} (tau = {tau!r}): sweep loop did not converge "
        f"in {MAX_SWEEPS} sweeps (last relative change {change:.3e}); a smaller tau may help",
        sweeps=MAX_SWEEPS,
        last_change=float(change),
    )


# cross-validation passes when each halving of tau shrinks the discrepancy this much
MIN_SHRINK_RATIO = 1.5


@dataclass(frozen=True)
class CrossValidationRow:
    tau: float
    discrepancy: float
    sweeps: int  # Picard sweeps over every step of this level


@dataclass
class CrossValidationReport:
    """End-of-horizon gap between the two solution paths, per step size."""

    rows: list[CrossValidationRow]
    degeneracy_floor: float

    @property
    def discrepancies(self) -> list[float]:
        return [r.discrepancy for r in self.rows]

    @property
    def degenerate(self) -> bool:
        return all(d <= self.degeneracy_floor for d in self.discrepancies)

    def shrink_ratios(self) -> list[float]:
        d = self.discrepancies
        return [d[k] / max(d[k + 1], 1e-300) for k in range(len(d) - 1)]

    def passed(self) -> bool:
        if self.degenerate:
            return True
        return all(r >= MIN_SHRINK_RATIO for r in self.shrink_ratios())


def cross_validate(
    m: ModelSpec,
    cfg: SchemeConfig,
    halvings: int = 3,
) -> CrossValidationReport:
    """Run both paths to the horizon at tau, tau/2, ... and compare.

    Requires coefficients flagged locally Lipschitz: only then do the two
    discretizations share a unique limit, making the shrinking discrepancy a
    meaningful consistency check.
    """
    if halvings < 1:
        raise ValueError("halvings must be at least 1: no shrink ratio to check otherwise")
    if not m.lipschitz:
        raise ValueError(
            "cross-validation requires locally Lipschitz coefficients; the two "
            "paths are only guaranteed to approximate one solution in that case"
        )
    # the finest level first: an invalid step is rejected before any run
    levels = [replace(cfg, tau=math.ldexp(cfg.tau, -k)) for k in range(halvings, -1, -1)]
    rows = []
    scale = 0.0
    start = initial_state(m, cfg)  # independent of tau, never mutated
    for cfg_k in reversed(levels):
        semi = march(start, cfg_k, lambda s, dt: step_with_info(s, m, cfg_k, tau=dt), None)
        sweeps = []
        picard = march(start, cfg_k,
                       lambda s, dt: picard_step_with_info(s, m, cfg_k, tau=dt),
                       lambda k, before, after, n: sweeps.append(n))
        gap = max(
            float(np.max(np.abs(semi.u[i].values - picard.u[i].values)))
            for i in range(m.n_species)
        )
        scale = max(scale, *(float(np.max(np.abs(f.values))) for f in semi.u))
        rows.append(CrossValidationRow(tau=cfg_k.tau, discrepancy=gap, sweeps=sum(sweeps)))
    floor = 10 * cfg.linear_tol * max(1.0, scale)
    return CrossValidationReport(rows=rows, degeneracy_floor=floor)
