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
about half the sweeps. In that order a sweep reads the density u_tilde_k it
starts from only if some species j <= k has a coefficient that depends on
it (`_sweep_reads`; for the benchmark model only u_tilde_2): the rest it
overwrites before any species reads them. A sweep steps a copy of the
previous time level's arrays, its start written into their u_tilde rows. It
is a map G from the read densities it starts from to those it returns, and
the next sweep starts from the Anderson mix of the last DEPTH + 1 sweeps
rather than from G's last output (Anderson, J. ACM 12(4), 1965; Walker & Ni,
SIAM J. Numer. Anal. 49(4), 2011). The loop stops on G's relative residual,
the quantity the mix minimises, once the coefficients at the step's own
regularized densities also match those it froze; with no density read, G is
constant and one sweep is the fixed point. Only the frozen densities are mixed: every
candidate is still the output of a frozen step, so mass, positivity and the
monotone w hold whatever the mix is.
Because the two paths approximate the same (unique, for locally Lipschitz
coefficients) solution, their end-of-horizon discrepancy must shrink as tau
does; that is what `cross_validate` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import PicardConvergenceError
from .grid import Field
from .model import ModelSpec, coefficient_fields
from .sparse import LINEAR_TOL, check_step_size, check_tolerance
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
# the Anderson mix combines the last DEPTH + 1 sweeps; 0 is plain Gauss-Seidel
DEPTH = 3


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
    check_tolerance(tol)
    trajectory = [w0.copy()]
    for A in A_nodes:
        trajectory.append(implicit_diffusion_step(trajectory[-1], A, tau, tol))
    return trajectory


def _sweep_reads(m: ModelSpec) -> list[int]:
    """The species (0-based) whose regularized density a sweep reads where it starts.

    Species j freezes at u_tilde_k of this sweep for k < j and at the start's
    for k >= j, so the start's u_tilde_k is read when some species j <= k has
    a coefficient that depends on it.
    """
    return [k for k in range(m.n_species)
            if any(m.coefficients[j].depends_on(k) for j in range(k + 1))]


def _relative_norm(d: np.ndarray, ref: np.ndarray) -> float:
    """||d||_2 / ||ref||_2 over all entries, each a fixed-order `einsum` sum."""
    d, ref = d.ravel(), ref.ravel()
    size = math.sqrt(np.einsum("i,i->", ref, ref))
    return math.sqrt(np.einsum("i,i->", d, d)) / max(size, 1e-300)


def _anderson_mix(history: list, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Where the next sweep starts: the Anderson mix of the sweeps so far.

    `g` holds the read densities a sweep returned and `f` its residual, g
    minus those it started from, each stacked over the read species.
    `history` holds the (g, f) pairs of the last sweeps, oldest first; this
    sweep's pair is appended and at most DEPTH + 1 are kept. Returns
    g - dG gamma, where dG and dF are the differences of consecutive g and f
    and gamma minimises ||f - dF gamma||_2 through its Gram system, whose
    matrix and right-hand side are one fixed-order `einsum` each. With no
    earlier sweep this is g. When the Gram solve fails or the mix is not
    finite it is g too, and the history restarts from this sweep.
    """
    history.append((g, f))
    del history[:-(DEPTH + 1)]
    if len(history) == 1:
        return g
    dG = np.diff([pair[0] for pair in history], axis=0)
    dF = np.diff([pair[1] for pair in history], axis=0)
    gram = np.einsum("ji,ki->jk", dF, dF)
    rhs = np.einsum("ji,i->j", dF, f)
    with np.errstate(all="ignore"):
        try:
            gamma = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            gamma = np.full(len(dF), np.nan)  # falls back below, as a non-finite gamma does
        mixed = g.copy()
        for c, d in zip(gamma, dG):
            mixed -= c * d
    if np.isfinite(mixed).all():
        return mixed
    del history[:-1]
    return g


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
    the rest from where the sweep starts. Of the start, a sweep reads only the
    densities `_sweep_reads` names, worked out once per step. The first sweep
    starts from `state.u_tilde`, every later one from the Anderson mix
    (`_anderson_mix`, depth DEPTH) of the read densities the sweeps so far
    started from and returned; the first mix has no history and is the last
    sweep's output. Each sweep writes its start into a copy of `state.u_tilde`,
    and no sweep writes to `state`. The first sweep starts its implicit solves
    from zero, every later one from the z that species solved in the sweep
    before, unless `Grid.solver` starts them from its own solve (in 1D, and for
    a constant coefficient). The loop stops when a sweep changes the densities
    it read by less than 10 * cfg.linear_tol relative to them in the L2 norm,
    the slack of the solves it iterates (the residual G(x) - x the mix
    minimises), and each species' coefficient at the sweep's own u_tilde,
    evaluated only once the residual is that small, lies as close to the one it
    froze: a(u_tilde) ~ u_tilde^p moves about p times as much as u_tilde, and u
    with it, so a small residual alone can leave u further from the fixed
    point. With no density read (state-independent coefficients, or
    a_2(u_tilde_1) with a constant a_1) the first sweep is the fixed point and
    the loop stops there; for state-independent coefficients it is bit for bit
    the semi-implicit step. After MAX_SWEEPS sweeps it raises
    `PicardConvergenceError`. Returns the step and its sweeps, the first
    included: the implicit solves per species.
    """
    check_step_size(tau)
    read = _sweep_reads(m)
    x = state.u_tilde[read]  # where the sweep starts, a copy
    history = []
    z, frozen = [None] * state.n_species, [None] * state.n_species
    for sweeps in range(1, MAX_SWEEPS + 1):
        u, u_tilde, w = state.u.copy(), state.u_tilde.copy(), state.w.copy()
        u_tilde[read] = x
        for i in range(state.n_species):
            A = frozen[i] = coefficient_fields(m, u_tilde, (i,))[0][0]
            # from the previous sweep's z (zero in the first sweep): only A has changed
            u[i], u_tilde[i], w[i], _, z[i] = species_step(state, m, cfg, i, A, tau, z[i])
        g = u_tilde[read]
        f = g - x
        change = _relative_norm(f, x)
        if change < 10 * cfg.linear_tol:
            # a(u_tilde) ~ u_tilde^p moves about p times as much as u_tilde: the
            # coefficients at the step's own u_tilde must match those it froze too
            again = coefficient_fields(m, u_tilde, range(state.n_species))[0]
            change = max(change, *(_relative_norm(a - b, b) for a, b in zip(again, frozen)))
            if change < 10 * cfg.linear_tol:
                return SystemState(state.time + tau, state.grid, u, u_tilde, w), sweeps
        x = _anderson_mix(history, g.ravel(), f.ravel()).reshape(x.shape)
    raise PicardConvergenceError(
        f"step from t = {state.time!r} (tau = {tau!r}): sweep loop did not converge "
        f"in {MAX_SWEEPS} sweeps (last relative change {change:.3e}); a smaller tau may help",
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
    start = initial_state(m, cfg)  # independent of tau; no step writes to its input
    for cfg_k in reversed(levels):
        semi = march(start, cfg_k, lambda s, dt: step_with_info(s, m, cfg_k, tau=dt), None)
        sweeps = []
        picard = march(start, cfg_k,
                       lambda s, dt: picard_step_with_info(s, m, cfg_k, tau=dt),
                       lambda k, before, after, n: sweeps.append(n))
        gap = float(np.max(np.abs(semi.u - picard.u)))
        scale = max(scale, float(np.max(np.abs(semi.u))))
        rows.append(CrossValidationRow(tau=cfg_k.tau, discrepancy=gap, sweeps=sum(sweeps)))
    floor = 10 * cfg.linear_tol * max(1.0, scale)
    return CrossValidationReport(rows=rows, degeneracy_floor=floor)
