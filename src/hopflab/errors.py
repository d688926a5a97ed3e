"""Exception types shared across the package."""

import operator


class HopflabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(HopflabError, ValueError):
    """Operands live on spheres of different dimensions."""


class SingularInputError(HopflabError, ValueError):
    """Input lies at or too near a singular point of the operation."""


class ParameterError(HopflabError, ValueError):
    """A parameter is outside its admissible range."""


def require_int(value, name: str) -> int:
    """value as an int, from an int or a numpy integer; ParameterError
    naming `name` for anything else, 1.5, 2000.0 and booleans included."""
    if not isinstance(value, bool):  # operator.index(True) is 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")


class PackingError(HopflabError, RuntimeError):
    """A constructed ball packing failed its disjointness audit."""


class PlacementError(HopflabError, RuntimeError):
    """Could not place the requested disjoint supports."""


class SupportError(HopflabError, ValueError):
    """Supports overlap, or a piece is not constant outside its support."""


class UnresolvedDegreeError(HopflabError, RuntimeError):
    """Numeric degree residual too large; retry with a larger grid."""


class NonRegularValueError(HopflabError, RuntimeError):
    """Fiber tracing failed; the target is likely not a regular value."""


class IllConditionedLinkingError(HopflabError, RuntimeError):
    """Curves too close together for a reliable linking number."""
