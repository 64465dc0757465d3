"""Diagnostics read off the states the scheme produces.

The proofs bound a-priori quantities of the scheme's states: the mass of each
species, nonnegativity of u and u_tilde, the monotone w field and an energy
balance. Everything here is a pure function of states the stepper has already
produced; nothing here runs a solve or mutates a state (the audits that do,
`w_increment_residual` and the growth study `fit_linear_bound`, live in
`stepper` next to the solves they run). The invariant table is read off a
step's diagnostics rows, so each total and minimum is reduced once. Failing
rows come back as data so callers decide whether to abort, log, or ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import Field, integrate
from .sparse import LINEAR_TOL, check_step_size

if TYPE_CHECKING:
    from .stepper import SystemState


def format_number(x: float) -> str:
    """The CSV number format: the shortest decimal that reads back as `x`."""
    return repr(float(x))


@dataclass(frozen=True)
class SpeciesStepInfo:
    """Per-species bookkeeping of one step, as the stepper reports it."""

    species: int
    cg_iters_implicit: int
    cg_iters_regularize: int
    clamp_count: int
    coefficient_min: float
    coefficient_max: float


@dataclass(frozen=True)
class StepRecord:
    """One diagnostics row: the state of one species after one step."""

    step: int
    time: float
    species: int
    mass_u: float
    mass_utilde: float
    min_u: float
    max_u: float
    min_utilde: float
    max_utilde: float
    w_min_increment: float
    coef_min: float
    coef_max: float
    clamps: int
    cg_iters: int  # the sum of the two columns after it
    cg_iters_implicit: int
    cg_iters_regularize: int

    def to_csv_row(self) -> str:
        return ",".join(
            str(getattr(self, f.name)) if f.type == "int"
            else format_number(getattr(self, f.name))
            for f in fields(self)
        )


CSV_HEADER = ",".join(f.name for f in fields(StepRecord))


def step_records(
    step: int, before: SystemState, after: SystemState, infos: Sequence[SpeciesStepInfo]
) -> list[StepRecord]:
    """Build the diagnostics rows for one executed step."""
    g = after.grid
    records = []
    for info in infos:
        i = info.species - 1
        u = after.u[i]
        ut = after.u_tilde[i]
        w_inc = after.w[i].values - before.w[i].values
        records.append(
            StepRecord(
                step=step,
                time=after.time,
                species=info.species,
                mass_u=integrate(g, u),
                mass_utilde=integrate(g, ut),
                min_u=float(u.values.min()),
                max_u=float(u.values.max()),
                min_utilde=float(ut.values.min()),
                max_utilde=float(ut.values.max()),
                w_min_increment=float(w_inc.min()),
                coef_min=info.coefficient_min,
                coef_max=info.coefficient_max,
                clamps=info.clamp_count,
                cg_iters=info.cg_iters_implicit + info.cg_iters_regularize,
                cg_iters_implicit=info.cg_iters_implicit,
                cg_iters_regularize=info.cg_iters_regularize,
            )
        )
    return records


@dataclass(frozen=True)
class CheckTolerances:
    """Thresholds for the per-step invariant checks.

    The guarantees are exact in exact arithmetic, so the positivity and
    monotonicity slack scales with the linear solver tolerance.
    """

    mass: float = 1e-10
    positivity: float = 10 * LINEAR_TOL
    monotonicity: float = 10 * LINEAR_TOL

    @classmethod
    def from_linear_tol(cls, linear_tol: float) -> "CheckTolerances":
        return cls(positivity=10 * linear_tol, monotonicity=10 * linear_tol)


def invariant_rows(
    before: SystemState,
    records: Sequence[StepRecord],
    tolerances: CheckTolerances,
    initial_masses: Sequence[float],
) -> list[tuple[int, str, float, float]]:
    """The invariant table of one step: (species, check, value, threshold) rows.

    A row passes when value <= threshold. Per record, in this order: the
    drift of `mass_u` from the species' initial total and from its total in
    `before`, and the gap between `mass_utilde` and `mass_u` (all relative);
    then how far `min_u`, `min_utilde` and `w_min_increment` dip below zero
    (NaN when the minimum is NaN, so the row fails).
    """
    g = before.grid
    rows = []
    for r in records:
        sp, i = r.species, r.species - 1
        mass_scale = max(abs(initial_masses[i]), 1e-300)
        mass_before = integrate(g, before.u[i])
        rows += [
            (sp, "mass_drift_rel", abs(r.mass_u - initial_masses[i]) / mass_scale,
             tolerances.mass),
            (sp, "mass_step_rel",
             abs(r.mass_u - mass_before) / max(abs(mass_before), 1e-300), tolerances.mass),
            (sp, "utilde_mass_gap_rel", abs(r.mass_utilde - r.mass_u) / mass_scale,
             tolerances.mass),
            (sp, "neg_u", 0.0 - min(r.min_u, 0.0), tolerances.positivity),
            (sp, "neg_utilde", 0.0 - min(r.min_utilde, 0.0), tolerances.positivity),
            (sp, "neg_w_increment", 0.0 - min(r.w_min_increment, 0.0),
             tolerances.monotonicity),
        ]
    return rows


def check_step(
    before: SystemState,
    records: Sequence[StepRecord],
    tolerances: CheckTolerances,
    initial_masses: Sequence[float],
) -> list[tuple[int, str, float, float]]:
    """The failing rows of `invariant_rows`; an empty list means the step is clean."""
    rows = invariant_rows(before, records, tolerances, initial_masses)
    return [row for row in rows if not row[2] <= row[3]]


def energy_identity_residual(
    trajectory: Sequence[Field], A_nodes: Sequence[np.ndarray], tau: float
) -> float:
    """Relative defect of the continuous-time energy balance on a slab run.

    The balance equates the coefficient-weighted space-time square of the
    trajectory plus half the squared gradient of the accumulated flux
    potential with the pairing of the initial data, `trajectory[0]`, against
    that potential. The marching scheme satisfies it up to a positive O(tau)
    remainder, so halving tau should roughly halve the returned value.
    """
    check_step_size(tau)
    steps = len(trajectory) - 1
    if len(A_nodes) != steps:
        raise ValueError("one coefficient field per executed step required")
    g = trajectory[0].grid
    meas = g.cell_measure
    lhs_bulk = 0.0
    rhs = 0.0
    S = np.zeros(g.n_cells)
    w0v = trajectory[0].values
    for n in range(steps):
        A = np.asarray(A_nodes[n], dtype=np.float64)
        w_next = trajectory[n + 1].values
        z = A * w_next
        lhs_bulk += tau * float(np.einsum("i,i->", z, w_next)) * meas
        rhs += tau * float(np.einsum("i,i->", w0v, z)) * meas
        S = S + tau * z
    grad_term = 0.5 * float(np.einsum("i,i->", -g.laplacian(S), S)) * meas
    lhs = lhs_bulk + grad_term
    denom = abs(rhs) + 1e-14 * abs(lhs) + 1e-300
    return abs(lhs - rhs) / denom
