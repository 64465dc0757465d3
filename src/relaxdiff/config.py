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
    d_1 = 0.0
    d_2 = 1.0
    p = 1
    init = bump:0.3,0.2,1.0

    [scheme]
    tau = 0.01
    T = 1.0

    [run]
    mode = simulate
    output_dir = out

Unknown sections or keys are fatal: a silently ignored typo in a physical
parameter is worse than a hard error. Every parse error carries its line
number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fixedpoint import PicardConfig
from .grid import Field, Grid
from .model import ModelSpec, SktCoefficients, validate_model
from .stepper import SchemeConfig

MODES = ("simulate", "converge", "cross-validate", "invariants")

_GRID_KEYS = {"dims", "n1", "n2", "h1", "h2"}
_SPECIES_KEYS = {"delta", "coeff", "d", "p", "init"}  # plus d_1 .. d_I
_SCHEME_KEYS = {
    "tau", "T", "linear_tol", "linear_max_iter", "output_stride", "workers", "a_max",
}
_RUN_KEYS = {"mode", "output_dir", "seed", "spatial", "halvings"}
_PICARD_KEYS = {"max_sweeps", "sweep_tol"}


@dataclass
class SpeciesConfig:
    delta: float
    coefficients: SktCoefficients
    init: str


@dataclass
class RunConfig:
    """Parsed and validated configuration for one batch run."""

    grid: Grid
    species: list[SpeciesConfig]
    scheme: SchemeConfig
    picard: PicardConfig
    mode: str
    output_dir: str
    seed: int
    spatial: bool
    halvings: int
    a_max: float | None

    def build_model(self, grid: Grid | None = None) -> ModelSpec:
        """Instantiate the model, optionally on a refined grid.

        Initial data is rebuilt from the init recipes, so analytic recipes
        (constant/step/bump/cosine) transfer to any resolution; file and
        random data are tied to the configured grid.
        """
        g = grid if grid is not None else self.grid
        fields = []
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
            fields.append(Field(g, values))
        return ModelSpec(
            delta=tuple(sp.delta for sp in self.species),
            coefficients=tuple(sp.coefficients for sp in self.species),
            initial_data=tuple(fields),
            a_max=self.a_max,
        )


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
            return [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"init '{kind}': bad number in {rest!r}") from exc

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
        rng = np.random.default_rng([seed, species_index])
        return rng.uniform(low, high, n)
    if kind == "file":
        if not rest:
            raise ConfigError("init 'file' needs a path")
        try:
            values = np.loadtxt(rest).reshape(-1)
        except OSError as exc:
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
    if name in ("grid", "scheme", "run", "picard"):
        return True
    if name.startswith("species."):
        suffix = name[len("species."):]
        return suffix.isdigit() and int(suffix) >= 1
    return False


class _Section:
    def __init__(self, name: str, data: dict[str, tuple[str, int]], allowed: set[str]):
        self.name = name
        self.data = data
        for key, (_, lineno) in data.items():
            if key not in allowed:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]")

    def get(self, key: str, default=None) -> str | None:
        if key in self.data:
            return self.data[key][0]
        return default

    def require(self, key: str) -> str:
        if key not in self.data:
            raise ConfigError(f"section [{self.name}] is missing required key {key!r}")
        return self.data[key][0]

    def lineno(self, key: str) -> int:
        return self.data[key][1]

    def parse(self, key: str, conv, default=None):
        if key not in self.data:
            return default
        value, lineno = self.data[key]
        try:
            parsed = conv(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
        if isinstance(parsed, float) and not np.isfinite(parsed):
            raise ConfigError(f"line {lineno}: {key!r} must be finite, got {value!r}")
        return parsed


def _to_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValueError(value)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; raises ConfigError on any defect."""
    sections = _parse_sections(text)

    if "grid" not in sections:
        raise ConfigError("missing required section [grid]")
    grid_sec = _Section("grid", sections["grid"], _GRID_KEYS)
    dims = grid_sec.parse("dims", int, None)
    if dims not in (1, 2):
        raise ConfigError("[grid] dims must be 1 or 2")
    n1 = grid_sec.parse("n1", int)
    h1 = grid_sec.parse("h1", float)
    if n1 is None or h1 is None:
        raise ConfigError("[grid] requires n1 and h1")
    if dims == 2:
        n2 = grid_sec.parse("n2", int)
        h2 = grid_sec.parse("h2", float)
        if n2 is None or h2 is None:
            raise ConfigError("[grid] requires n2 and h2 when dims = 2")
        cells, spacing = (n1, n2), (h1, h2)
    else:
        for key in ("n2", "h2"):
            if grid_sec.get(key) is not None:
                raise ConfigError(
                    f"line {grid_sec.lineno(key)}: {key!r} is only valid when dims = 2"
                )
        cells, spacing = (n1,), (h1,)
    try:
        grid = Grid(cells, spacing)
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
    coupling_keys = {f"d_{j}" for j in range(1, n_species + 1)}
    for idx, name in enumerate(species_names, start=1):
        sec = _Section(name, sections[name], _SPECIES_KEYS | coupling_keys)
        kind = sec.get("coeff", "skt")
        if kind == "tabulated":
            raise ConfigError(
                f"[{name}]: tabulated coefficients carry a callable and are only "
                "constructible through the library API, not a config file"
            )
        if kind != "skt":
            raise ConfigError(f"[{name}]: coeff must be 'skt', got {kind!r}")
        base = sec.parse("d", float)
        if base is None:
            raise ConfigError(f"[{name}] requires d (the coefficient lower bound)")
        couplings = tuple(
            sec.parse(f"d_{j}", float, 0.0) for j in range(1, n_species + 1)
        )
        power = sec.parse("p", float, 1.0)
        delta = sec.parse("delta", float)
        if delta is None:
            raise ConfigError(f"[{name}] requires delta")
        init = sec.require("init")
        species.append(
            SpeciesConfig(
                delta=delta,
                coefficients=SktCoefficients(base=base, couplings=couplings, power=power),
                init=init,
            )
        )

    if "scheme" not in sections:
        raise ConfigError("missing required section [scheme]")
    scheme_sec = _Section("scheme", sections["scheme"], _SCHEME_KEYS)
    tau = scheme_sec.parse("tau", float)
    horizon = scheme_sec.parse("T", float)
    if tau is None or horizon is None:
        raise ConfigError("[scheme] requires tau and T")
    try:
        scheme = SchemeConfig(
            tau=tau,
            horizon=horizon,
            linear_tol=scheme_sec.parse("linear_tol", float, 1e-10),
            linear_max_iter=scheme_sec.parse("linear_max_iter", int, 10_000),
            output_stride=scheme_sec.parse("output_stride", int, 1),
            workers=scheme_sec.parse("workers", int, 1),
        )
    except ValueError as exc:
        raise ConfigError(f"[scheme]: {exc}") from exc
    a_max = scheme_sec.parse("a_max", float, None)

    if "run" not in sections:
        raise ConfigError("missing required section [run]")
    run_sec = _Section("run", sections["run"], _RUN_KEYS)
    mode = run_sec.get("mode", "simulate")
    if mode not in MODES:
        raise ConfigError(f"[run] mode must be one of {', '.join(MODES)}; got {mode!r}")
    halvings = run_sec.parse("halvings", int, 3)
    if halvings < 1:
        raise ConfigError("[run] halvings must be at least 1")

    picard = PicardConfig()
    if "picard" in sections:
        picard_sec = _Section("picard", sections["picard"], _PICARD_KEYS)
        try:
            picard = PicardConfig(
                max_sweeps=picard_sec.parse("max_sweeps", int, 50),
                sweep_tol=picard_sec.parse("sweep_tol", float, 1e-9),
            )
        except ValueError as exc:
            raise ConfigError(f"[picard]: {exc}") from exc

    cfg = RunConfig(
        grid=grid,
        species=species,
        scheme=scheme,
        picard=picard,
        mode=mode,
        output_dir=run_sec.get("output_dir", "out"),
        seed=run_sec.parse("seed", int, 0),
        spatial=run_sec.parse("spatial", _to_bool, False),
        halvings=halvings,
        a_max=a_max,
    )

    violations = validate_model(cfg.build_model())
    if violations:
        listing = "; ".join(str(v) for v in violations)
        raise ConfigError(f"model validation failed: {listing}")
    return cfg
