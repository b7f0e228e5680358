"""Exception hierarchy shared by all hecke3 modules."""


class Hecke3Error(Exception):
    """Base class for every error raised by this package."""


class InputError(Hecke3Error, ValueError):
    """Malformed user input: unparsable scalar, bad JSON, wrong shape."""


class FieldMismatch(Hecke3Error):
    """Arithmetic attempted between elements of different fields."""


class DivisionByZero(Hecke3Error, ZeroDivisionError):
    """Division by the zero element of a field."""


class CharacteristicTwo(Hecke3Error):
    """Characteristic 2 is rejected: the construction divides by 2."""


class NotPrime(Hecke3Error):
    """Requested prime-field modulus is not a prime number."""


class DimensionMismatch(Hecke3Error):
    """Incompatible shapes in a matrix or tensor operation."""


class SingularMatrix(Hecke3Error):
    """A matrix required to be invertible is singular."""


class InvalidConstraint(Hecke3Error):
    """The quadratic constraint linking q and the form discriminant fails."""


class ZeroQ(Hecke3Error):
    """The Hecke parameter q must be nonzero."""


class InvalidQ(Hecke3Error):
    """A q value outside the admissible set for the requested type."""


class NotHeckeSym0(Hecke3Error):
    """The operator is not a Hecke symmetry with polynomial symmetric algebra."""


class NoHeckeParameter(Hecke3Error):
    """No (unique) q satisfies the quadratic Hecke relation for this operator."""


class SingularDeformation(Hecke3Error):
    """The requested deformation parameter makes the operator singular."""
