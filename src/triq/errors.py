"""Exception types shared across the package, and the finite-input check."""

import math


class TriqError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TriqError, ValueError):
    """Input outside the documented domain of an operation."""


class AccuracyError(TriqError, ArithmeticError):
    """A numeric kernel cannot meet its accuracy contract for this input.

    Carries the offending value so sweeps can report it per point.
    """

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message)
        self.value = value


class ConditioningError(TriqError, ArithmeticError):
    """A linear solve is too ill-conditioned to trust.

    Carries the energy at which the matching system degenerated.
    """

    def __init__(self, message: str, energy_eV: float | None = None):
        super().__init__(message)
        self.energy_eV = energy_eV


def require_finite(name: str, x) -> float:
    """x as a Python float, or a DomainError naming it if it is infinite or
    NaN."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x
