"""Time stepping for the relaxed cross-diffusion system, and the studies that run it.

Each step freezes the diffusion coefficients at the clamped regularization of
the previous densities, advances every species through one implicit diffusion
solve, and regularizes the result (a screened-Poisson solve). `species_step`
is one species' part of such a step for a given coefficient:
`step_with_info` runs it for every species, frozen at the previous time
level, and the Picard sweeps of `fixedpoint` run it species by species, each
frozen at the newest regularized densities or, for the species this sweep
has not yet updated, at the Anderson mix the sweep starts from. `run` marches the scheme to the
horizon and hands every step's `diagnostics` rows to its callbacks. The two
diagnostics that need solves of their own live here too:
`w_increment_residual` re-solves the w identity of one step, and
`fit_linear_bound` runs the growth-in-time study of u_tilde.

Both linear solves are CG solves of one symmetric positive-definite system,
(diag(d) - s L) z = u: the implicit step with (d, s) = (1 / A, tau), and the
regularization, one backward heat step of length delta, with (1, delta), so
the implicit step with A = 1 and tau = delta, bit for bit. `Grid.solver`
preconditions it and says whether CG starts from its solve, exact for every 1D
and every constant d: that start meets the stopping rule after 0 iterations.
For a varying 2D d the geometric-mean shift bounds the iterations by
max A / min A whatever the mesh, the coarse block to about one for smooth A.

Two structural choices make the scheme's invariants hold at solver accuracy
rather than "up to discretization":

* The implicit system is symmetrized by substituting z = A * u_new, and the
  update is then applied in flux form, u_new = u_old + tau * L z. Because the
  discrete Laplacian L annihilates nothing but adds fluxes that cancel in
  pairs, the total of u_new equals the total of u_old exactly, whatever the
  iterative solver returned for z.
* The regularization is likewise re-expressed as u + delta * L z after the
  solve, so the regularized field carries exactly the mass of its source.

The running auxiliary field w accumulates delta * u_tilde plus the
left-endpoint quadrature of A * u; with the flux-form update its per-step
increment equals tau * (I - delta L)^{-1} (A * u_new) algebraically, which is
the discrete form of its monotonicity in time.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

# `run` calls `diagnostics.step_records` through the module, so that a wrapper
# installed on that attribute sees every call
from . import diagnostics
from .diagnostics import SpeciesStepInfo
from .errors import LinearSolverError, RelaxdiffError
from .grid import Field, Grid
from .model import ModelSpec, coefficient_fields
from .sparse import (
    LINEAR_MAX_ITER, LINEAR_TOL, SolverReport, cg_solve, check_step_size, check_tolerance,
)


@dataclass(frozen=True)
class SchemeConfig:
    """Time-scheme parameters shared by every run mode."""

    tau: float
    horizon: float
    linear_tol: float = LINEAR_TOL
    output_stride: int = 1
    workers: int = 1

    def __post_init__(self):
        check_step_size(self.tau)
        if not (0 < self.horizon < np.inf):
            raise ValueError("horizon must be positive and finite")
        if self.tau > self.horizon * (1 + 1e-12):
            raise ValueError("tau must not exceed the horizon")
        # beyond 2**53 steps the pinned times k * tau stop being distinct
        if self.horizon / self.tau > 2**53:
            raise ValueError("horizon / tau must not exceed 2**53")
        check_tolerance(self.linear_tol)
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


class _StepOperator:
    """Matrix-free diag(d) - s L, the operator of both solves; SPD for d, s > 0.

    `matvec` computes d * x - s * L x; the regularization's d of 1 multiplies
    bit for bit. `Grid.solver(d, s)` preconditions it and says whether CG
    starts from its solve (`starts`). The subclasses only name the solve, for
    its errors and the benchmark's CG spans.
    """

    def __init__(self, grid: Grid, d, s: float):
        self.grid, self.d, self.s = grid, d, s
        self.n_rows = self.n_cols = grid.n_cells
        self.precondition, self.starts = grid.solver(d, s)
        self._applied = None  # the last matvec's argument and its Laplacian

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self._applied = None  # freed before the next Laplacian is made
        Lx = self.grid.laplacian(x)
        self._applied = x, Lx
        out = self.d * x
        out -= self.s * Lx
        return out

    def laplacian(self, z: np.ndarray) -> np.ndarray:
        """L z as an array of its own, and drop what `matvec` kept.

        Where z is the very array of the last matvec, as the iterate that
        `cg_solve` returns after its final residual check is unless it scaled
        the data, that matvec's Laplacian is returned instead of applying L
        again. CG changes no iterate between its last apply and its return,
        so that Laplacian is the one of z, bit for bit.
        """
        applied, self._applied = self._applied, None
        if applied is not None and applied[0] is z:
            return applied[1]
        return self.grid.laplacian(z)


class _ImplicitStepOperator(_StepOperator):
    name = "implicit diffusion"  # (d, s) = (1 / A, tau)


class _ResolventOperator(_StepOperator):
    name = "regularization"  # (d, s) = (1, delta)


def _flux_solve(
    op, u: np.ndarray, tol: float, z_start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, SolverReport]:
    """Solve op z = u by CG; return u + op.s * L z, z and the report.

    An operator that starts from its preconditioner (`op.starts`) starts
    from it applied to u, which the stopping rule accepts after 0 iterations
    unless rounding leaves it short; any other starts from `z_start`, else
    from zero. The flux form equals op.d * z up to the solver residual, but
    it carries exactly the total of `u`. Its L z is the one CG's last
    residual check computed (`op.laplacian`), so a converged solve applies L
    once per iteration plus once. A solve that has not converged after
    LINEAR_MAX_ITER iterations (read at each call) raises.
    """
    if op.starts:
        z_start = op.precondition(u)
    z, report = cg_solve(op, u, tol, LINEAR_MAX_ITER, x0=z_start)
    if not report.converged:
        raise LinearSolverError(
            f"{op.name} solve stalled after {report.iterations} iterations "
            f"(residual {report.residual_norm:.3e})"
        )
    flux = op.laplacian(z)
    flux *= op.s
    flux += u
    return flux, z, report


def _solve_regularize(
    g: Grid, u: np.ndarray, delta: float, tol: float
) -> tuple[np.ndarray, SolverReport]:
    u_tilde, _, report = _flux_solve(_ResolventOperator(g, 1.0, delta), u, tol)
    return u_tilde, report


def _solve_implicit(
    g: Grid, u_n: np.ndarray, A: np.ndarray, tau: float, tol: float,
    z_start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, SolverReport]:
    """u_new, the solved z = A * u_new, and the report; see `_flux_solve` for the start."""
    if not (A > 0).all():
        raise ValueError("implicit step requires strictly positive coefficients")
    return _flux_solve(_ImplicitStepOperator(g, 1.0 / A, tau), u_n, tol, z_start)


def regularize(u: Field, delta: float, tol: float = LINEAR_TOL) -> Field:
    """Solve (I - delta L) v = u with zero-flux boundaries, on the grid of `u`.

    The result has exactly the mean of `u` and maps nonnegative input to
    nonnegative output up to solver round-off.
    """
    if not (0 < delta < np.inf):
        raise ValueError("delta must be positive and finite")
    values, _ = _solve_regularize(u.grid, u.values, delta, tol)
    return Field(u.grid, values)


def implicit_diffusion_step(u_n: Field, A: np.ndarray, tau: float,
                            tol: float = LINEAR_TOL) -> Field:
    """One backward step of u_t = L(A * u) with the per-cell coefficients A frozen.

    Solves (I - tau L diag(A)) u_new = u_n on the grid of `u_n` through the
    symmetric substitution z = A * u_new. The column sums of the step matrix
    all equal 1, so the cell total of u is conserved; the M-matrix structure
    keeps nonnegative data nonnegative.
    """
    check_step_size(tau)
    g = u_n.grid
    A = Field(g, A).values  # one finite coefficient per cell, or the error of a field
    values, _, _ = _solve_implicit(g, u_n.values, A, tau, tol)
    return Field(g, values)


@dataclass
class SystemState:
    """Densities, their regularizations, and the running w field at one time."""

    time: float
    u: tuple[Field, ...]
    u_tilde: tuple[Field, ...]
    w: tuple[Field, ...]

    def __post_init__(self):
        self.u = tuple(self.u)
        self.u_tilde = tuple(self.u_tilde)
        self.w = tuple(self.w)

    @property
    def n_species(self) -> int:
        return len(self.u)

    @property
    def grid(self) -> Grid:
        return self.u[0].grid


@contextmanager
def _prefix_solver_errors(where: str):
    """Prefix a linear-solver failure inside the block with `where`."""
    try:
        yield
    except LinearSolverError as exc:
        raise LinearSolverError(f"{where}: {exc}") from exc


def initial_state(m: ModelSpec, cfg: SchemeConfig) -> SystemState:
    """State at t = 0: regularized initial data and w = delta * u_tilde."""
    g = m.grid
    u = tuple(f.copy() for f in m.initial_data)
    u_tilde, w = [], []
    for i, (f, d) in enumerate(zip(u, m.delta)):
        where = f"species {i + 1}, initial regularization"
        with _prefix_solver_errors(where):
            ut, _ = _solve_regularize(g, f.values, d, cfg.linear_tol)
        w_i = d * ut
        # delta > 0, so w is finite only if u_tilde is
        if not np.isfinite(w_i).all():
            raise RelaxdiffError(f"{where}: the regularized state is not finite")
        u_tilde.append(Field(g, ut))
        w.append(Field(g, w_i))
    return SystemState(0.0, u, u_tilde, w)


def species_step(
    state: SystemState, m: ModelSpec, cfg: SchemeConfig, i: int, A: np.ndarray,
    dt: float, z_start: np.ndarray | None = None,
) -> tuple[Field, Field, Field, tuple[SolverReport, SolverReport], np.ndarray]:
    """Species `i`'s part of a step of size `dt` with its coefficient frozen at `A`.

    The implicit diffusion solve from `state.u[i]` (started from `z_start`
    when given, see `_flux_solve`), then the regularization of the result,
    then the w update. Returns the next u, u_tilde and w of species `i`, its
    (implicit, regularize) solve reports and its solved z.
    """
    g = m.grid
    where = f"species {i + 1}, step from t = {state.time!r}"
    with _prefix_solver_errors(where):
        u_new, z, rep_impl = _solve_implicit(g, state.u[i].values, A, dt, cfg.linear_tol,
                                             z_start)
        ut_new, rep_reg = _solve_regularize(g, u_new, m.delta[i], cfg.linear_tol)
    # w = delta * u_tilde plus the running sum of dt * A * u
    delta = m.delta[i]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        w_new = delta * ut_new
        w_new += state.w[i].values - delta * state.u_tilde[i].values
        w_new += dt * A * u_new
    # w sums positive multiples of u_new and ut_new, so it is finite only if they are
    if not np.isfinite(w_new).all():
        raise RelaxdiffError(f"{where}: the next state is not finite")
    return Field(g, u_new), Field(g, ut_new), Field(g, w_new), (rep_impl, rep_reg), z


def step_with_info(
    state: SystemState, m: ModelSpec, cfg: SchemeConfig, tau: float
) -> tuple[SystemState, list[SpeciesStepInfo]]:
    """Advance one semi-implicit step of size `tau` and report solve stats.

    Every species freezes its coefficient at `state.u_tilde` and runs
    `species_step` without a warm start, under the `workers` pool.
    """
    check_step_size(tau)
    A_fields, clamp_counts = coefficient_fields(m, state.u_tilde, range(state.n_species))

    def advance(i: int):
        return species_step(state, m, cfg, i, A_fields[i], tau)

    indices = range(state.n_species)
    if cfg.workers > 1 and state.n_species > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(advance, indices))
    else:
        results = [advance(i) for i in indices]

    u, u_tilde, w, reports, _ = zip(*results)
    return SystemState(state.time + tau, u, u_tilde, w), [
        SpeciesStepInfo(
            species=i + 1,
            cg_iters_implicit=implicit.iterations,
            cg_iters_regularize=regularize.iterations,
            clamp_count=clamp_counts[i],
            coefficient_min=float(A_fields[i].min()),
            coefficient_max=float(A_fields[i].max()),
        )
        for i, (implicit, regularize) in enumerate(reports)
    ]


def plan_steps(tau: float, horizon: float) -> tuple[int, float]:
    """Number of steps covering [0, horizon] and the size of the last one.

    Every step but the last has size tau; the last is shortened if needed.
    """
    n_full = int(np.floor(horizon / tau + 1e-9))
    remainder = horizon - n_full * tau
    if remainder > 1e-9 * tau:
        return n_full + 1, remainder
    return max(n_full, 1), tau


def march(state: SystemState, cfg: SchemeConfig, advance: Callable,
          on_step: Callable | None) -> SystemState:
    """The time loop of every run mode: step `state` to cfg.horizon.

    `advance(state, dt)` returns the next state and a per-step report;
    `on_step(k, before, after, report)`, when given, sees every step. Times
    are pinned to the step grid instead of accumulating round-off.
    """
    n_steps, last_step = plan_steps(cfg.tau, cfg.horizon)
    for k in range(1, n_steps + 1):
        before = state
        state, report = advance(before, last_step if k == n_steps else cfg.tau)
        state.time = cfg.horizon if k == n_steps else k * cfg.tau
        if on_step is not None:
            on_step(k, before, state, report)
    return state


def run(m: ModelSpec, cfg: SchemeConfig, on_step: Callable | None = None,
        on_snapshot: Callable | None = None) -> SystemState:
    """March the semi-implicit scheme to the horizon and return the final state.

    `on_step(step_index, before, after, records)`, when given, fires after
    each step with the diagnostics rows of that step; `run` keeps no rows, so
    a caller that wants them collects them there. `on_snapshot(step_index,
    state)`, when given, fires at step 0, every `output_stride` steps, and at
    the final step.
    """
    n_steps, _ = plan_steps(cfg.tau, cfg.horizon)

    def after_step(k, before, after, infos):
        if on_step is not None:
            on_step(k, before, after, diagnostics.step_records(k, before, after, infos))
        if on_snapshot is not None and (k % cfg.output_stride == 0 or k == n_steps):
            on_snapshot(k, after)

    def start() -> SystemState:
        state = initial_state(m, cfg)
        if on_snapshot is not None:
            on_snapshot(0, state)
        return state

    # passed straight through, so no local keeps the initial state alive
    return march(start(), cfg, lambda s, dt: step_with_info(s, m, cfg, tau=dt), after_step)


def w_increment_residual(
    m: ModelSpec, before: SystemState, after: SystemState, tol: float = LINEAR_TOL
) -> float:
    """Max-norm mismatch between the w increment and its resolvent identity.

    The increment should equal tau * (I - delta L)^{-1} (A * u_new) with tau
    the step from `before` to `after` and A the coefficients frozen at
    `before`; the mismatch is bounded by solver error.
    """
    g = after.grid
    tau = after.time - before.time
    A_fields, _ = coefficient_fields(m, before.u_tilde, range(after.n_species))
    worst = 0.0
    for i in range(after.n_species):
        expected, _ = _solve_regularize(g, tau * A_fields[i] * after.u[i].values, m.delta[i], tol)
        actual = after.w[i].values - before.w[i].values
        worst = max(worst, float(np.max(np.abs(actual - expected))))
    return worst


@dataclass(frozen=True)
class BoundFit:
    """Least-squares line through sup_{t <= T} of the scaled sup-norm of u_tilde."""

    horizons: tuple[float, ...]
    sup_utilde: tuple[float, ...]
    fitted_intercept: float
    fitted_slope: float
    max_rel_residual: float

    def fitted(self, horizon: float) -> float:
        return self.fitted_intercept + self.fitted_slope * horizon


def fit_linear_bound(
    m: ModelSpec, cfg: SchemeConfig, horizons: Sequence[float]
) -> BoundFit:
    """Empirical growth study: run once to the largest horizon and fit a line.

    Records, for each requested horizon T, the supremum over 0 <= t <= T of
    max_i delta_i * ||u_tilde_i||_inf, then fits sup(T) ~ intercept + slope * T.
    The theory predicts at most linear growth; the fit quality (max relative
    residual) indicates how far the run is from that envelope.
    """
    horizons = sorted(float(T) for T in horizons)
    if len(horizons) < 3:
        raise ValueError("at least three horizons required for a meaningful fit")
    if not all(0 < T < np.inf for T in horizons):
        raise ValueError("horizons must be positive and finite")

    times, scaled_sups = [], []

    def on_snapshot(k, state):
        times.append(state.time)
        scaled_sups.append(max(m.delta[i] * float(np.max(np.abs(state.u_tilde[i].values)))
                               for i in range(state.n_species)))

    run(m, replace(cfg, horizon=horizons[-1], output_stride=1), on_snapshot=on_snapshot)
    # the last state with t <= T, up to round-off in the pinned times
    last = np.searchsorted(times, [T * (1 + 1e-12) for T in horizons], side="right") - 1
    sups = [float(s) for s in np.maximum.accumulate(scaled_sups)[last]]
    coeffs = np.polyfit(horizons, sups, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    residuals = [
        abs(s - (intercept + slope * T)) / max(abs(s), 1e-300)
        for T, s in zip(horizons, sups)
    ]
    return BoundFit(
        horizons=tuple(horizons),
        sup_utilde=tuple(sups),
        fitted_intercept=intercept,
        fitted_slope=slope,
        max_rel_residual=max(residuals),
    )
