"""Exception types shared across the package."""


class HopflabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(HopflabError, ValueError):
    """Operands live on spheres of different dimensions."""


class SingularInputError(HopflabError, ValueError):
    """Input lies at or too near a singular point of the operation."""


class ParameterError(HopflabError, ValueError):
    """A parameter is outside its admissible range."""


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
