"""Independent solution paths used to cross-check the semi-implicit stepper.

`solve_frozen_slab` marches the linear problem in which the coefficient field
is fixed data, the building block behind the scheme's well-posedness.
`picard_step` turns one time step into a fully implicit one by successive
coefficient freezing. Its sweeps run in Gauss-Seidel order from the previous
time level: each species freezes its coefficient at the newest regularized
densities, those this sweep has already updated included, so the first
sweep freezes species 1 exactly as the semi-implicit step does. For two
species with a_1 = a_1(u_tilde_2) and a_2 = a_2(u_tilde_1) the sweep's
linearization is 2-cyclic, and this order squares the contraction factor of
the Jacobi order, in which every species froze at the previous candidate
(Varga, Matrix Iterative Analysis, ch. 4): it reaches the same fixed point in
about half the sweeps. Because the two paths approximate the same (unique,
for locally Lipschitz coefficients) solution, their end-of-horizon
discrepancy must shrink as tau does; that is what `cross_validate` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import PicardConvergenceError
from .grid import Field
from .model import ModelSpec, coefficient_fields
from .stepper import (
    SchemeConfig,
    SystemState,
    implicit_diffusion_step,
    initial_state,
    march,
    species_step,
    step_with_info,
)


@dataclass(frozen=True)
class PicardConfig:
    """Stopping rule for the coefficient-freezing sweep loop."""

    max_sweeps: int = 50
    sweep_tol: float = 1e-9

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if not (self.sweep_tol > 0):
            raise ValueError("sweep_tol must be positive")


def solve_frozen_slab(
    A_nodes: Sequence[np.ndarray],
    w0: Field,
    tau: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> list[Field]:
    """Time-march the linear problem with per-node frozen coefficients on the grid of `w0`.

    Returns the whole trajectory [w0, w1, ..., wN] with one implicit
    diffusion solve per node; N = len(A_nodes).
    """
    trajectory = [w0.copy()]
    for A in A_nodes:
        trajectory.append(implicit_diffusion_step(trajectory[-1], A, tau, tol, max_iter))
    return trajectory


def _relative_l2_change(new: Sequence[Field], old: Sequence[Field]) -> float:
    num = np.sqrt(sum(float(np.sum((a.values - b.values) ** 2)) for a, b in zip(new, old)))
    den = np.sqrt(sum(float(np.sum(b.values**2)) for b in old))
    return num / max(den, 1e-300)


def picard_step_with_info(
    state: SystemState,
    m: ModelSpec,
    cfg: SchemeConfig,
    p: PicardConfig,
    tau: float | None = None,
) -> tuple[SystemState, int]:
    """One fully implicit step via successive coefficient freezing.

    Each sweep redoes the frozen-coefficient step from `state` species by
    species, in Gauss-Seidel order: species i freezes its coefficient at the
    newest regularized densities, u_tilde_1..u_tilde_{i-1} from this sweep and
    the rest from the previous candidate, which is `state` itself before the
    first sweep. The first sweep starts its implicit solves from zero, every
    later one from the z that species solved in the sweep before. The loop
    stops when the candidate's relative L2 change across a sweep falls below
    `sweep_tol`; with state-independent coefficients that is the second sweep,
    and the result is bit for bit the semi-implicit step. Returns the step and
    its sweeps, the first included: the implicit solves per species.
    """
    dt = cfg.tau if tau is None else float(tau)
    candidate = state
    z = [None] * state.n_species
    for sweeps in range(1, p.max_sweeps + 1):
        u, u_tilde, w = list(candidate.u), list(candidate.u_tilde), list(candidate.w)
        for i in range(state.n_species):
            A = coefficient_fields(m, u_tilde, (i,))[0][0]
            # from the previous sweep's z (zero in the first sweep): only A has changed
            u[i], u_tilde[i], w[i], _, z[i] = species_step(state, m, cfg, i, A, dt, z[i])
        refreshed = SystemState(state.time + dt, u, u_tilde, w)
        change = _relative_l2_change(refreshed.u, candidate.u)
        candidate = refreshed
        if change < p.sweep_tol:
            return candidate, sweeps
    raise PicardConvergenceError(
        f"sweep loop did not converge in {p.max_sweeps} sweeps "
        f"(last relative change {change:.3e}); a smaller tau may help",
        sweeps=p.max_sweeps,
        last_change=float(change),
    )


def picard_step(
    state: SystemState, m: ModelSpec, cfg: SchemeConfig, p: PicardConfig
) -> SystemState:
    """Fully implicit step; see `picard_step_with_info`."""
    new_state, _ = picard_step_with_info(state, m, cfg, p)
    return new_state


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
    p: PicardConfig,
    halvings: int = 3,
) -> CrossValidationReport:
    """Run both paths to the horizon at tau, tau/2, ... and compare.

    Requires coefficients flagged locally Lipschitz: only then do the two
    discretizations share a unique limit, making the shrinking discrepancy a
    meaningful consistency check.
    """
    if not m.lipschitz:
        raise ValueError(
            "cross-validation requires locally Lipschitz coefficients; the two "
            "paths are only guaranteed to approximate one solution in that case"
        )
    rows = []
    scale = 0.0
    start = initial_state(m, cfg)  # independent of tau, never mutated
    for k in range(halvings + 1):
        cfg_k = replace(cfg, tau=cfg.tau / (2**k))
        semi = march(start, cfg_k, lambda s, dt: step_with_info(s, m, cfg_k, tau=dt), None)
        sweeps = []
        picard = march(start, cfg_k,
                       lambda s, dt: picard_step_with_info(s, m, cfg_k, p, tau=dt),
                       lambda k, before, after, n: sweeps.append(n))
        gap = max(
            float(np.max(np.abs(semi.u[i].values - picard.u[i].values)))
            for i in range(m.n_species)
        )
        scale = max(scale, *(float(np.max(np.abs(f.values))) for f in semi.u))
        rows.append(CrossValidationRow(tau=cfg_k.tau, discrepancy=gap, sweeps=sum(sweeps)))
    floor = 10 * cfg.linear_tol * max(1.0, scale)
    return CrossValidationReport(rows=rows, degeneracy_floor=floor)
