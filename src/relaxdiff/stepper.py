"""Semi-implicit time stepping for the relaxed cross-diffusion system.

Each step freezes the diffusion coefficients at the clamped regularization of
the previous densities, advances every species through one implicit diffusion
solve, and regularizes the result (a screened-Poisson solve). `frozen_step`
is that step for given coefficients; the Picard sweeps of `fixedpoint` reuse
it with the coefficients frozen at their candidate. Both linear solves are
symmetric positive definite and handled by conjugate gradients,
preconditioned with exact solves of constant-coefficient shifts of the
Laplacian in its cosine eigenbasis: the regularization operator is such a
shift, so its solve needs one iteration, and the implicit operator is
preconditioned by the shift with the geometric mean of its diagonal, which
bounds the iteration count by max A / min A whatever the mesh.

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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import LinearSolverError, RelaxdiffError
from .grid import Field, Grid
from .model import ModelSpec, coefficient_fields
from .sparse import SolverReport, cg_solve


@dataclass
class SchemeConfig:
    """Time-scheme parameters shared by every run mode."""

    tau: float
    horizon: float
    linear_tol: float = 1e-10
    linear_max_iter: int = 10_000
    output_stride: int = 1
    workers: int = 1

    def __post_init__(self):
        if not (0 < self.tau < np.inf):
            raise ValueError("tau must be positive and finite")
        if not (0 < self.horizon < np.inf):
            raise ValueError("horizon must be positive and finite")
        if self.tau > self.horizon * (1 + 1e-12):
            raise ValueError("tau must not exceed the horizon")
        # beyond 2**53 steps the pinned times k * tau stop being distinct
        if self.horizon / self.tau > 2**53:
            raise ValueError("horizon / tau must not exceed 2**53")
        if not (self.linear_tol > 0):
            raise ValueError("linear tolerance must be positive")
        if self.linear_max_iter < 1:
            raise ValueError("linear_max_iter must be at least 1")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


class _ResolventOperator:
    """Matrix-free I - delta * L; symmetric positive definite."""

    def __init__(self, grid: Grid, delta: float):
        self.grid = grid
        self.delta = float(delta)
        self.n_rows = self.n_cols = grid.n_cells

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return x - self.delta * self.grid.laplacian(x)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        # the exact inverse
        return self.grid.shifted_solve(r, 1.0, self.delta)


class _ImplicitStepOperator:
    """Matrix-free diag(1 / (tau A)) - L; symmetric positive definite."""

    def __init__(self, grid: Grid, A: np.ndarray, tau: float):
        self.grid = grid
        self.scale = 1.0 / (tau * A)
        self.n_rows = self.n_cols = grid.n_cells
        # the geometric mean of the diagonal puts the preconditioned spectrum
        # in [sqrt(min / max), sqrt(max / min)] of that diagonal
        lo, hi = float(np.min(self.scale)), float(np.max(self.scale))
        self.shift = math.sqrt(lo) * math.sqrt(hi)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.scale * x - self.grid.laplacian(x)

    def precondition(self, r: np.ndarray) -> np.ndarray:
        return self.grid.shifted_solve(r, self.shift, 1.0)


def _solve_regularize(
    g: Grid, u: np.ndarray, delta: float, tol: float, max_iter: int
) -> tuple[np.ndarray, SolverReport]:
    op = _ResolventOperator(g, delta)
    z, report = cg_solve(op, u, tol, max_iter)
    if not report.converged:
        raise LinearSolverError(
            f"regularization solve stalled after {report.iterations} iterations "
            f"(residual {report.residual_norm:.3e})"
        )
    # flux form: identical to z up to the solver residual, but mass-exact
    return u + delta * g.laplacian(z), report


def _solve_implicit(
    g: Grid, u_n: np.ndarray, A: np.ndarray, tau: float, tol: float, max_iter: int
) -> tuple[np.ndarray, SolverReport]:
    if not np.all(A > 0):
        raise ValueError("implicit step requires strictly positive coefficients")
    op = _ImplicitStepOperator(g, A, tau)
    z, report = cg_solve(op, u_n / tau, tol, max_iter)
    if not report.converged:
        raise LinearSolverError(
            f"implicit diffusion solve stalled after {report.iterations} iterations "
            f"(residual {report.residual_norm:.3e})"
        )
    return u_n + tau * g.laplacian(z), report


def regularize(g: Grid, u: Field, delta: float, tol: float = 1e-10,
               max_iter: int = 10_000) -> Field:
    """Solve (I - delta L) v = u with zero-flux boundaries.

    The result has exactly the mean of `u` and maps nonnegative input to
    nonnegative output up to solver round-off.
    """
    if not (delta > 0):
        raise ValueError("delta must be positive")
    values, _ = _solve_regularize(g, np.asarray(u.values, dtype=np.float64), delta,
                                  tol, max_iter)
    return Field(g, values)


def implicit_diffusion_step(g: Grid, u_n: Field, A: Field, tau: float,
                            tol: float = 1e-10, max_iter: int = 10_000) -> Field:
    """One backward step of u_t = L(A * u) with the coefficient field frozen.

    Solves (I / tau - L diag(A)) u_new = u_n / tau through the symmetric
    substitution z = A * u_new. The column sums of the step matrix all equal
    1 / tau, so the cell total of u is conserved; the M-matrix structure keeps
    nonnegative data nonnegative.
    """
    values, _ = _solve_implicit(g, np.asarray(u_n.values, dtype=np.float64),
                                np.asarray(A.values, dtype=np.float64), tau, tol,
                                max_iter)
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


def initial_state(m: ModelSpec, cfg: SchemeConfig) -> SystemState:
    """State at t = 0: regularized initial data and w = delta * u_tilde."""
    g = m.grid
    u = tuple(f.copy() for f in m.initial_data)
    u_tilde = [_solve_regularize(g, f.values, d, cfg.linear_tol, cfg.linear_max_iter)[0]
               for f, d in zip(u, m.delta)]
    return SystemState(0.0, u, tuple(Field(g, ut) for ut in u_tilde),
                       tuple(Field(g, d * ut) for d, ut in zip(m.delta, u_tilde)))


@dataclass(frozen=True)
class SpeciesStepInfo:
    """Per-species bookkeeping for one step, consumed by the diagnostics."""

    species: int
    cg_iters_implicit: int
    cg_iters_regularize: int
    clamp_count: int
    coefficient_min: float
    coefficient_max: float


def frozen_step(
    state: SystemState, m: ModelSpec, cfg: SchemeConfig, A_fields: Sequence[np.ndarray],
    dt: float,
) -> tuple[SystemState, list[tuple[SolverReport, SolverReport]]]:
    """One step of size `dt` with the coefficients frozen at `A_fields`.

    Every species takes its implicit diffusion solve from `state.u`, then the
    regularization of the result, then the w update. Returns the next state
    and each species' (implicit, regularize) solve reports.
    """
    g = m.grid

    def advance(i: int):
        where = f"species {i + 1}, step from t = {state.time!r}"
        try:
            u_new, rep_impl = _solve_implicit(
                g, state.u[i].values, A_fields[i], dt, cfg.linear_tol,
                cfg.linear_max_iter)
            ut_new, rep_reg = _solve_regularize(
                g, u_new, m.delta[i], cfg.linear_tol, cfg.linear_max_iter)
        except LinearSolverError as exc:
            raise LinearSolverError(f"{where}: {exc}") from exc
        # w = delta * u_tilde plus the running sum of dt * A * u
        delta = m.delta[i]
        w_new = (delta * ut_new + (state.w[i].values - delta * state.u_tilde[i].values)
                 + dt * A_fields[i] * u_new)
        # w sums positive multiples of u_new and ut_new, so it is finite only if they are
        if not np.all(np.isfinite(w_new)):
            raise RelaxdiffError(f"{where}: the next state is not finite")
        return Field(g, u_new), Field(g, ut_new), Field(g, w_new), (rep_impl, rep_reg)

    indices = range(state.n_species)
    if cfg.workers > 1 and state.n_species > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(advance, indices))
    else:
        results = [advance(i) for i in indices]

    new_state = SystemState(
        time=state.time + dt,
        u=tuple(r[0] for r in results),
        u_tilde=tuple(r[1] for r in results),
        w=tuple(r[2] for r in results),
    )
    return new_state, [r[3] for r in results]


def step_with_info(
    state: SystemState, m: ModelSpec, cfg: SchemeConfig, tau: float | None = None
) -> tuple[SystemState, list[SpeciesStepInfo]]:
    """Advance one step of size `tau` (default cfg.tau) and report solve stats."""
    dt = cfg.tau if tau is None else float(tau)
    A_fields, clamp_counts = coefficient_fields(m, state.u_tilde)
    new_state, reports = frozen_step(state, m, cfg, A_fields, dt)
    return new_state, [
        SpeciesStepInfo(
            species=i + 1,
            cg_iters_implicit=implicit.iterations,
            cg_iters_regularize=regularize.iterations,
            clamp_count=clamp_counts[i],
            coefficient_min=float(np.min(A_fields[i])),
            coefficient_max=float(np.max(A_fields[i])),
        )
        for i, (implicit, regularize) in enumerate(reports)
    ]


def step(state: SystemState, m: ModelSpec, cfg: SchemeConfig) -> SystemState:
    """One semi-implicit step of size cfg.tau."""
    new_state, _ = step_with_info(state, m, cfg)
    return new_state


def plan_steps(tau: float, horizon: float) -> tuple[int, float]:
    """Number of steps covering [0, horizon] and the size of the last one.

    Every step but the last has size tau; the last is shortened if needed.
    """
    n_full = int(np.floor(horizon / tau + 1e-9))
    remainder = horizon - n_full * tau
    if remainder > 1e-9 * tau:
        return n_full + 1, remainder
    return max(n_full, 1), tau


@dataclass
class RunSinks:
    """Output hooks for `run`; every callback is optional.

    `on_step(step_index, before, after, records)` fires after each step with
    the diagnostics rows for that step. `on_snapshot(step_index, state)` fires
    at step 0, every `output_stride` steps, and at the final step.
    """

    on_step: Callable | None = None
    on_snapshot: Callable | None = None


@dataclass
class RunResult:
    state: SystemState
    report: "DiagnosticsReport"
    shortened_last_step: bool


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


def run(m: ModelSpec, cfg: SchemeConfig, sinks: RunSinks | None = None) -> RunResult:
    """March the semi-implicit scheme to the horizon, emitting diagnostics every step."""
    from .diagnostics import DiagnosticsReport, step_records

    sinks = sinks or RunSinks()
    n_steps, last_step = plan_steps(cfg.tau, cfg.horizon)
    report = DiagnosticsReport()

    def after_step(k, before, after, infos):
        records = step_records(k, before, after, infos)
        report.rows.extend(records)
        if sinks.on_step is not None:
            sinks.on_step(k, before, after, records)
        if sinks.on_snapshot is not None and (k % cfg.output_stride == 0 or k == n_steps):
            sinks.on_snapshot(k, after)

    def start() -> SystemState:
        state = initial_state(m, cfg)
        if sinks.on_snapshot is not None:
            sinks.on_snapshot(0, state)
        return state

    # passed straight through, so no local keeps the initial state alive
    state = march(start(), cfg, lambda s, dt: step_with_info(s, m, cfg, tau=dt), after_step)
    return RunResult(state, report, last_step != cfg.tau)
