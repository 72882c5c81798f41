"""Exception types shared across the workbench."""


class HomoglabError(Exception):
    """Base class for all workbench errors."""


class InvalidParameter(HomoglabError, ValueError):
    pass


class InvariantViolated(HomoglabError, RuntimeError):
    """An internal consistency check failed: a bug or a numerical breakdown,
    not a bad input."""


class NonUnitInput(HomoglabError, ValueError):
    pass


class NonUnitPoint(HomoglabError, ValueError):
    pass


class NotClosed(HomoglabError, ValueError):
    pass


class NonCoprimeExponent(HomoglabError, ValueError):
    pass


class NotClifford(HomoglabError, ValueError):
    pass


class NotInGroup(HomoglabError, ValueError):
    pass


class NotASubalgebra(HomoglabError, ValueError):
    pass


class InvalidCoefficients(InvalidParameter):
    pass


class ZeroField(HomoglabError, ValueError):
    pass


class UnsupportedType(HomoglabError, ValueError):
    pass


class ModelMismatch(HomoglabError, ValueError):
    pass


class NonOrthogonalInput(ModelMismatch):
    """A matrix given as an isometry of a sphere is not orthogonal."""


class ParseError(HomoglabError, ValueError):
    pass
