"""Exception types shared across the package."""


class UQGraphError(Exception):
    """Base class for all library-specific errors."""


class NonPrimeError(UQGraphError):
    """The requested characteristic is not a prime number."""


class EvenCharacteristicError(UQGraphError):
    """Characteristic 2 is rejected; only odd prime powers are supported."""


class TooLargeError(UQGraphError):
    """The requested object exceeds its fixed size bound."""


class DivisionByZeroError(UQGraphError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DimensionTooSmallError(UQGraphError, ValueError):
    """Graphs need dimension at least 2."""


class InvalidConnectionSetError(UQGraphError, ValueError):
    """A connection set is empty, holds an index outside the vertices, or
    is not closed under negation."""


class IOFailureError(UQGraphError):
    """Writing to the supplied sink failed."""


class NotNonsquareError(UQGraphError, ValueError):
    """An argument required to be a nonsquare is not one."""


class ConstructionUnavailableError(UQGraphError):
    """The line-pairing construction does not exist for this field."""


class InvalidPlanError(UQGraphError, ValueError):
    """A coloring plan violates its slope or shift requirement."""


class IncompleteColoringError(UQGraphError, ValueError):
    """A coloring does not cover every vertex of its graph."""


class DegenerateSpectrumError(UQGraphError):
    """No negative eigenvalue, so the spectral lower bound is undefined."""


class NoConvergenceError(UQGraphError):
    """The dense eigensolver failed, or the graph lacks the sign-flip or
    coordinate-permutation symmetry its blocks rest on."""
