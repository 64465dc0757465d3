"""Exception types and `Violation`, model validation's record of a broken rule."""

from __future__ import annotations

from dataclasses import dataclass


class RelaxdiffError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(RelaxdiffError):
    """A field or vector does not match the grid or matrix it is used with."""


class LinearSolverError(RelaxdiffError):
    """A linear solve failed (non-convergence, breakdown or a singular operator)."""


class PicardConvergenceError(RelaxdiffError):
    """The coefficient-freezing sweep loop did not reach its tolerance."""

    def __init__(self, message: str, last_change: float):
        super().__init__(message)
        self.last_change = last_change


class ConfigError(RelaxdiffError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class Violation:
    """One violated condition, reported as data rather than an exception.

    `species` and `cell` are 1-based and 0-based respectively when present.
    """

    condition: str
    species: int | None = None
    cell: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.condition]
        if self.species is not None:
            parts.append(f"species {self.species}")
        if self.cell is not None:
            parts.append(f"cell {self.cell}")
        if self.detail:
            parts.append(self.detail)
        return ": ".join(parts)
