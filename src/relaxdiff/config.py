"""Run configuration: a strict flat key-value format with sections.

Example:

    [grid]
    dims = 1
    n1 = 128
    h1 = 0.0078125

    [species.1]
    delta = 0.01
    coeff = skt
    d = 0.05
    d_1 = 1.0
    p = 1
    init = bump:0.3,0.2,1.0

    [scheme]
    tau = 0.01
    T = 1.0

    [run]
    mode = simulate
    output_dir = out

Unknown sections or keys are fatal: a silently ignored typo in a physical
parameter is worse than a hard error. An error about one line carries its
line number. Absent optional keys take the defaults of the dataclass they
configure.

`[scheme] linear_tol` is the one stopping setting. Every solve stops on it,
with at most `sparse.LINEAR_MAX_ITER` iterations, and the Picard sweeps of
cross-validate stop when a sweep changes the densities by less than
`10 * linear_tol` relative, after at most `fixedpoint.MAX_SWEEPS` sweeps.
Neither cap, the sweeps' stop nor the depth of their Anderson mix
(`fixedpoint.DEPTH`) is a key, and there is no Picard section, so a config
that sets one is rejected like any other unknown section or key.

A `RunConfig` is frozen and carries its validated model: the initial data
are built from the init recipes and the model is checked once, when the
config is made. `parse_config` takes the command line's seed and output
directory, so the one model it builds is the one of the seed that runs. A
changed config (`dataclasses.replace`, say with another seed) builds and
validates its own model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .model import ModelSpec, SktCoefficients, validate_model
from .stepper import SchemeConfig

MODES = ("simulate", "converge", "cross-validate", "invariants")


@dataclass(frozen=True)
class SpeciesConfig:
    delta: float
    coefficients: SktCoefficients
    init: str


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration for one batch run, with its validated model."""

    grid: Grid
    species: tuple[SpeciesConfig, ...]
    scheme: SchemeConfig
    mode: str = "simulate"
    output_dir: str = "out"
    seed: int = 0
    spatial: bool = False
    halvings: int = 3
    a_max: float | None = None
    model: ModelSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(
                f"[run] mode must be one of {', '.join(MODES)}; got {self.mode!r}")
        if self.halvings < 1:
            raise ConfigError("[run] halvings must be at least 1")
        object.__setattr__(self, "model", self.build_model())

    def build_model(self, grid: Grid | None = None) -> ModelSpec:
        """Instantiate and validate the model, optionally on a refined grid.

        `model` already holds the one on the configured grid. Initial data
        is rebuilt from the init recipes, so analytic recipes
        (constant/step/bump/cosine) transfer to any resolution; file and
        random data are tied to the configured grid. Raises ConfigError when
        the model violates an assumption of the scheme.
        """
        g = grid if grid is not None else self.grid
        initial = []
        for idx, sp in enumerate(self.species, start=1):
            if grid is not None and g != self.grid and sp.init.split(":", 1)[0] in (
                "file", "random"):
                raise ConfigError(
                    f"species {idx}: init '{sp.init.split(':', 1)[0]}' cannot be "
                    "rebuilt on a refined grid"
                )
            values = build_initial(g, sp.init, self.seed, idx)
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"species {idx}: init {sp.init!r} gives non-finite values")
            initial.append(values)
        model = ModelSpec(
            grid=g,
            delta=tuple(sp.delta for sp in self.species),
            coefficients=tuple(sp.coefficients for sp in self.species),
            initial_data=initial,
            a_max=self.a_max,
        )
        violations = validate_model(model)
        if violations:
            listing = "; ".join(str(v) for v in violations)
            raise ConfigError(f"model validation failed: {listing}")
        return model


def build_initial(grid: Grid, recipe: str, seed: int, species_index: int) -> np.ndarray:
    """Evaluate one init recipe on a grid.

    Recipes: constant:<c>, step:<left,right>, bump:<center,width,amplitude>,
    cosine:<amplitude,offset>, random:<low,high>, file:<path>. The step jumps
    at the domain midpoint of the first axis; the bump is radial around the
    point with all coordinates equal to <center> and touches zero outside its
    width; the cosine is offset + amplitude * cos(pi x1 / L1).
    """
    kind, _, rest = recipe.partition(":")
    centers = grid.cell_centers()
    n = grid.n_cells

    def floats(count: int) -> list[float]:
        parts = [p.strip() for p in rest.split(",")]
        if len(parts) != count:
            raise ConfigError(
                f"init '{kind}' expects {count} comma-separated numbers, got {rest!r}"
            )
        try:
            numbers = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"init '{kind}': bad number in {rest!r}") from exc
        if not all(np.isfinite(numbers)):
            raise ConfigError(f"init '{kind}': numbers must be finite, got {rest!r}")
        return numbers

    if kind == "constant":
        (c,) = floats(1)
        return np.full(n, c)
    if kind == "step":
        left, right = floats(2)
        mid = grid.lengths[0] / 2.0
        return np.where(centers[0] < mid, left, right)
    if kind == "bump":
        center, width, amplitude = floats(3)
        if width <= 0:
            raise ConfigError("bump width must be positive")
        rho2 = np.zeros(n)
        for axis_centers in centers:
            rho2 = rho2 + ((axis_centers - center) / width) ** 2
        return amplitude * np.maximum(0.0, 1.0 - rho2) ** 2
    if kind == "cosine":
        amplitude, offset = floats(2)
        return offset + amplitude * np.cos(np.pi * centers[0] / grid.lengths[0])
    if kind == "random":
        low, high = floats(2)
        if low > high:
            raise ConfigError(f"init 'random' needs low <= high, got {rest!r}")
        if seed < 0:
            raise ConfigError(f"init 'random' needs a nonnegative seed, got {seed}")
        rng = np.random.default_rng([seed, species_index])
        return rng.uniform(low, high, n)
    if kind == "file":
        if not rest:
            raise ConfigError("init 'file' needs a path")
        try:
            values = np.loadtxt(rest).reshape(-1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read init file {rest!r}: {exc}") from exc
        if values.size != n:
            raise ConfigError(
                f"init file {rest!r} holds {values.size} values, grid has {n} cells"
            )
        return values
    raise ConfigError(f"unknown init kind {kind!r}")


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header {line!r}")
            name = line[1:-1].strip()
            if not _known_section(name):
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section: {line!r}")
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    return sections


def _known_section(name: str) -> bool:
    if name in ("grid", "scheme", "run"):
        return True
    if name.startswith("species."):
        suffix = name[len("species."):]
        return suffix.isdigit() and int(suffix) >= 1
    return False


def _to_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValueError(value)


# one converter per key; a key missing from its section's table is unknown
_GRID = {"dims": int, "n1": int, "n2": int, "h1": float, "h2": float}
_SPECIES = {"delta": float, "coeff": str, "d": float, "p": float, "init": str}  # + d_1 .. d_I
_SCHEME = {"tau": float, "T": float, "linear_tol": float, "output_stride": int,
           "workers": int, "a_max": float}
_RUN = {"mode": str, "output_dir": str, "seed": int, "spatial": _to_bool, "halvings": int}


def _section(name: str, data: dict[str, tuple[str, int]], table: dict) -> dict:
    """Convert every key of one section by its table; absent keys stay absent."""
    values = {}
    for key, (value, lineno) in data.items():
        if key not in table:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]")
        try:
            values[key] = table[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
        if isinstance(values[key], float) and not np.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key!r} must be finite, got {value!r}")
    return values


def _require(name: str, values: dict, *keys: str) -> None:
    missing = [key for key in keys if key not in values]
    if missing:
        raise ConfigError(f"[{name}] requires {' and '.join(missing)}")


def parse_config(text: str, *, seed: int | None = None,
                 output_dir: str | None = None) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError on any defect.

    `seed` and `output_dir`, when given, replace the [run] values before the
    config, and with it the model, is built.
    """
    sections = _parse_sections(text)
    for name in ("grid", "scheme", "run"):
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")

    grid_values = _section("grid", sections["grid"], _GRID)
    dims = grid_values.get("dims")
    if dims not in (1, 2):
        raise ConfigError("[grid] dims must be 1 or 2")
    for key in ("n2", "h2"):
        if dims == 1 and key in grid_values:
            raise ConfigError(
                f"line {sections['grid'][key][1]}: {key!r} is only valid when dims = 2")
    axes = range(1, dims + 1)
    _require("grid", grid_values, *(f"{k}{a}" for a in axes for k in "nh"))
    try:
        grid = Grid(tuple(grid_values[f"n{a}"] for a in axes),
                    tuple(grid_values[f"h{a}"] for a in axes))
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from exc

    species_names = sorted(
        (name for name in sections if name.startswith("species.")),
        key=lambda s: int(s.split(".")[1]),
    )
    if not species_names:
        raise ConfigError("at least one [species.N] section required")
    n_species = len(species_names)
    expected = [f"species.{i}" for i in range(1, n_species + 1)]
    if species_names != expected:
        raise ConfigError(
            f"species sections must be numbered 1..{n_species} without gaps, "
            f"got {species_names}"
        )

    species: list[SpeciesConfig] = []
    couplings = [f"d_{j}" for j in range(1, n_species + 1)]
    for name in species_names:
        values = _section(name, sections[name], {**_SPECIES, **dict.fromkeys(couplings, float)})
        kind = values.get("coeff", "skt")
        if kind == "tabulated":
            raise ConfigError(
                f"[{name}]: tabulated coefficients carry a callable and are only "
                "constructible through the library API, not a config file"
            )
        if kind != "skt":
            raise ConfigError(f"[{name}]: coeff must be 'skt', got {kind!r}")
        _require(name, values, "delta", "d", "init")
        power = {"power": values["p"]} if "p" in values else {}
        coefficients = SktCoefficients(
            base=values["d"], couplings=tuple(values.get(c, 0.0) for c in couplings), **power)
        species.append(SpeciesConfig(values["delta"], coefficients, values["init"]))

    scheme_values = _section("scheme", sections["scheme"], _SCHEME)
    _require("scheme", scheme_values, "tau", "T")
    a_max = scheme_values.pop("a_max", None)
    scheme_values["horizon"] = scheme_values.pop("T")
    try:
        scheme = SchemeConfig(**scheme_values)
    except ValueError as exc:
        raise ConfigError(f"[scheme]: {exc}") from exc

    run_values = _section("run", sections["run"], _RUN)
    if seed is not None:
        run_values["seed"] = seed
    if output_dir is not None:
        run_values["output_dir"] = output_dir
    return RunConfig(grid, tuple(species), scheme, a_max=a_max, **run_values)
