"""Exception types shared across the package, and the finiteness check."""

import math


class RegammaError(Exception):
    """Base class for all regamma errors."""


class IntegerArgument(RegammaError):
    """Raised when an operation requires a non-integer argument."""


class NonPositiveArgument(RegammaError):
    """Raised when an operation requires a strictly positive argument."""


class PoleError(RegammaError):
    """Raised when Gamma is requested at one of its poles."""


class ContourDegenerate(RegammaError):
    """Raised when a Hankel contour is degenerate (hankel._validate)."""


class NonFiniteArgument(RegammaError):
    """Raised when an argument is infinite or NaN."""


def require_finite(value: float, name: str = "argument") -> None:
    """Raise NonFiniteArgument unless value is a finite number."""
    if not math.isfinite(value):
        raise NonFiniteArgument(f"{name} must be finite, got {value!r}")
