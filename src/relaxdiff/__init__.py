"""relaxdiff: finite-volume simulation of relaxed conservative cross-diffusion.

Densities diffuse with coefficients evaluated at a spatially smoothed copy of
the state (a screened-Poisson regularization), advanced by a semi-implicit
scheme whose discrete structure conserves mass exactly, preserves
nonnegativity, and keeps the accumulated flux potential monotone in time.
"""

from .config import RunConfig, SpeciesConfig, build_initial, parse_config
from .diagnostics import (
    CheckTolerances,
    StepRecord,
    check_step,
    energy_identity_residual,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    LinearSolverError,
    PicardConvergenceError,
    RelaxdiffError,
    Violation,
)
from .fixedpoint import (
    CrossValidationReport,
    CrossValidationRow,
    PicardConfig,
    cross_validate,
    picard_step_with_info,
    solve_frozen_slab,
)
from .grid import Field, Grid, integrate, laplacian_apply
from .model import (
    CoefficientSpec,
    ModelSpec,
    SktCoefficients,
    TabulatedCoefficients,
    eval_coefficient,
    truncation_bound,
    validate_model,
)
from .snapshots import parse_snapshot, read_snapshot, write_snapshot
from .sparse import SolverReport, cg_solve
from .stepper import (
    BoundFit,
    SchemeConfig,
    SystemState,
    fit_linear_bound,
    implicit_diffusion_step,
    initial_state,
    regularize,
    run,
    step_with_info,
    w_increment_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BoundFit",
    "CheckTolerances",
    "CoefficientSpec",
    "ConfigError",
    "CrossValidationReport",
    "CrossValidationRow",
    "DimensionMismatchError",
    "Field",
    "Grid",
    "LinearSolverError",
    "ModelSpec",
    "PicardConfig",
    "PicardConvergenceError",
    "RelaxdiffError",
    "RunConfig",
    "SchemeConfig",
    "SktCoefficients",
    "SolverReport",
    "SpeciesConfig",
    "StepRecord",
    "SystemState",
    "TabulatedCoefficients",
    "Violation",
    "build_initial",
    "cg_solve",
    "check_step",
    "cross_validate",
    "energy_identity_residual",
    "eval_coefficient",
    "fit_linear_bound",
    "implicit_diffusion_step",
    "initial_state",
    "integrate",
    "laplacian_apply",
    "parse_config",
    "parse_snapshot",
    "picard_step_with_info",
    "read_snapshot",
    "regularize",
    "run",
    "solve_frozen_slab",
    "step_with_info",
    "truncation_bound",
    "validate_model",
    "w_increment_residual",
    "write_snapshot",
]
