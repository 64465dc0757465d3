"""Species data: diffusion-coefficient families, relaxation lengths, initial data.

Two coefficient families are supported. The polynomial cross-diffusion family
evaluates a_i(r) = d_i + sum_j d_ij * r_j^p and is bounded below by d_i by
construction. Tabulated coefficients wrap an arbitrary user function together
with a declared lower bound, which is trusted but spot-checked on samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import RelaxdiffError, Violation
from .grid import Grid


@dataclass(frozen=True)
class SktCoefficients:
    """Polynomial coefficient a(r) = base + sum_j couplings[j] * r_j^power."""

    base: float
    couplings: tuple[float, ...]
    power: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(c) for c in self.couplings))

    @property
    def lower_bound(self) -> float:
        return self.base

    @property
    def lipschitz(self) -> bool:
        # r^p is locally Lipschitz on [0, inf) exactly when p >= 1
        return self.power >= 1.0 or all(c == 0.0 for c in self.couplings)

    def depends_on(self, k: int) -> bool:
        """Whether the coefficient reads the regularized density of species `k` (0-based)."""
        return self.couplings[k] != 0.0

    def evaluate_many(self, R: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; R has shape (n_species, n_cells)."""
        powered = np.power(R, self.power) if self.power != 1.0 else R
        out = np.full(R.shape[1], self.base)
        for c, row in zip(self.couplings, powered):
            if c != 0.0:
                out = out + c * row
        return out


@dataclass(frozen=True)
class TabulatedCoefficients:
    """Arbitrary coefficient function with a user-declared lower bound."""

    func: Callable[[np.ndarray], float]
    lower_bound: float
    lipschitz: bool = False

    def depends_on(self, k: int) -> bool:
        """Whether the coefficient reads species `k`: `func` is opaque, so always."""
        return True

    def evaluate_many(self, R: np.ndarray) -> np.ndarray:
        """One call of `func` per column of R, which has shape (n_species, n_points)."""
        return np.array([float(self.func(R[:, j])) for j in range(R.shape[1])])


CoefficientSpec = Union[SktCoefficients, TabulatedCoefficients]


def eval_coefficient(spec: CoefficientSpec, r: Sequence[float]) -> float:
    """Evaluate one species' coefficient at a nonnegative density vector.

    The value is the one `coefficient_fields` gives the scheme at a cell
    holding `r`, bit for bit: both evaluate the spec's `evaluate_many`.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise ValueError("coefficient argument must be componentwise nonnegative")
    if not np.all(np.isfinite(r)):
        raise ValueError("coefficient argument must be finite")
    return float(spec.evaluate_many(r[:, None])[0])


_LATTICE_POINTS = 33  # samples per axis when a tabulated coefficient is maximized


def truncation_bound(specs: Sequence[CoefficientSpec], k: float) -> float:
    """Envelope max_i sup {a_i(r) : r in [0, k]^I}.

    For the polynomial family the supremum sits at the corner (k, ..., k)
    because the couplings are nonnegative. Tabulated coefficients are
    maximized over a lattice with `_LATTICE_POINTS` samples per axis.
    """
    if not (0 <= k < np.inf):
        raise ValueError("k must be nonnegative and finite")
    n_species = len(specs)
    best = -np.inf
    lattice = None
    for spec in specs:
        if isinstance(spec, SktCoefficients):
            corner = np.full((n_species, 1), float(k))
            best = max(best, float(spec.evaluate_many(corner)[0]))
        else:
            if lattice is None:
                axes = [np.linspace(0.0, k, _LATTICE_POINTS)] * n_species
                mesh = np.meshgrid(*axes, indexing="ij")
                lattice = np.stack([m.ravel() for m in mesh])
            best = max(best, float(np.max(spec.evaluate_many(lattice))))
    return best


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Everything that defines one simulation problem except the time scheme.

    `delta` holds the per-species relaxation lengths, `coefficients` the
    per-species diffusion coefficient specs, and `initial_data` one flat field
    of `grid` per species: a read-only, C-contiguous float64 (species x cells)
    array of its own, each row checked by `Grid.field`. `a_max` optionally
    truncates every coefficient from above (off by default); activations of
    that clamp are reported by the diagnostics so it can be confirmed inert.
    """

    grid: Grid
    delta: tuple[float, ...]
    coefficients: tuple[CoefficientSpec, ...]
    initial_data: np.ndarray
    a_max: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        data = np.array([self.grid.field(row) for row in self.initial_data])
        data.flags.writeable = False
        object.__setattr__(self, "initial_data", data)

    @property
    def n_species(self) -> int:
        return len(self.delta)

    @property
    def lipschitz(self) -> bool:
        return all(spec.lipschitz for spec in self.coefficients)


_SPOT_CHECK_SAMPLES = 256
_SPOT_CHECK_SEED = 0
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)  # 2.2250738585072014e-308


def validate_model(m: ModelSpec) -> list[Violation]:
    """Collect every violated model assumption; an empty list means valid."""
    violations: list[Violation] = []
    n = m.n_species
    if n < 1:
        violations.append(Violation("at least one species required"))
        return violations
    if len(m.coefficients) != n or len(m.initial_data) != n:
        violations.append(
            Violation(
                "per-species data must align",
                detail=f"{n} deltas, {len(m.coefficients)} coefficient specs, "
                f"{len(m.initial_data)} initial fields",
            )
        )
        return violations

    if m.a_max is not None and not np.isfinite(m.a_max):
        violations.append(Violation("a_max must be finite", detail=f"got {m.a_max!r}"))
    for i, (delta, spec, values) in enumerate(
        zip(m.delta, m.coefficients, m.initial_data), start=1
    ):
        if not (0 < delta < np.inf):
            violations.append(Violation("delta must be positive and finite", species=i))
        for rule, cells in (
            ("initial data must be nonnegative", np.nonzero(values < 0)[0]),
            # rounding is absolute below the smallest normal float, so mass
            # held there cannot be kept to a relative tolerance
            (f"nonzero initial data must not be subnormal (below {_SMALLEST_NORMAL!r})",
             np.nonzero((values > 0) & (values < _SMALLEST_NORMAL))[0]),
        ):
            for cell in cells[:8]:
                violations.append(Violation(rule, species=i, cell=int(cell),
                                            detail=f"value {float(values[cell])!r}"))
        violations.extend(_validate_coefficients(spec, i, n))
        if m.a_max is not None and m.a_max < spec.lower_bound:
            violations.append(
                Violation(
                    "a_max lies below the coefficient lower bound",
                    species=i,
                    detail=f"a_max {m.a_max!r} < {spec.lower_bound!r}",
                )
            )
    return violations


def _validate_coefficients(
    spec: CoefficientSpec, species: int, n_species: int
) -> list[Violation]:
    out: list[Violation] = []
    if isinstance(spec, SktCoefficients):
        if not (0 < spec.base < np.inf):
            out.append(Violation("coefficient base must be positive and finite",
                                 species=species))
        if len(spec.couplings) != n_species:
            out.append(
                Violation(
                    "one coupling per species required",
                    species=species,
                    detail=f"got {len(spec.couplings)} for {n_species} species",
                )
            )
        if not all(0 <= c < np.inf for c in spec.couplings):
            out.append(Violation("couplings must be nonnegative and finite", species=species))
        if not (0 < spec.power < np.inf):
            out.append(Violation("power must be positive and finite", species=species))
        return out

    if not (spec.lower_bound > 0):
        out.append(Violation("declared lower bound must be positive", species=species))
        return out
    # trust but spot-check the declared bound on sampled inputs
    rng = np.random.default_rng([_SPOT_CHECK_SEED, species])
    samples = rng.uniform(0.0, 10.0, size=(_SPOT_CHECK_SAMPLES, n_species))
    for r, value in zip(samples, spec.evaluate_many(samples.T)):
        if not np.isfinite(value):
            out.append(
                Violation("coefficient must be finite", species=species, detail=f"r={r}")
            )
            break
        if value < spec.lower_bound * (1 - 1e-12):
            out.append(
                Violation(
                    "sampled value fell below the declared lower bound",
                    species=species,
                    detail=f"a({np.round(r, 6)}) = {value!r} < {spec.lower_bound!r}",
                )
            )
            break
    return out


def coefficient_fields(
    m: ModelSpec, u_tilde: np.ndarray, species: Sequence[int]
) -> tuple[list[np.ndarray], list[int]]:
    """Coefficient arrays of the `species` (0-based) at the regularized densities.

    `u_tilde` has one row per species, shape (n_species, n_cells). Returns
    one array and one count per entry of `species`, in its order.
    Negative regularized values (solver round-off) are clamped to zero before
    evaluation and counted per species. The optional `a_max` truncation is
    applied last and its activations are added to the same counter.
    """
    R = np.maximum(u_tilde, 0.0)
    fields, counts = [], []
    for i in species:
        count = int(np.count_nonzero(u_tilde[i] < 0))
        # an overflow is reported below as a non-finite coefficient
        with np.errstate(over="ignore", invalid="ignore"):
            A = m.coefficients[i].evaluate_many(R)
        if m.a_max is not None:
            hit = int(np.count_nonzero(A > m.a_max))
            if hit:
                count += hit
                A = np.minimum(A, m.a_max)
        if not np.isfinite(A).all():
            raise RelaxdiffError(
                f"coefficient evaluation produced non-finite values for species {i + 1}"
            )
        fields.append(A)
        counts.append(count)
    return fields, counts
