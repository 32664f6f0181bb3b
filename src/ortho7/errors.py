"""Exception types shared across the package."""


class Ortho7Error(Exception):
    """Base class for all package-specific errors."""


class NonPrimeP(Ortho7Error):
    """Field characteristic is not prime."""


class ReducibleModulus(Ortho7Error):
    """Extension modulus factors over the prime field."""


class NonPrimitiveModulus(Ortho7Error):
    """Extension modulus is irreducible but its root does not generate F_q*."""


class DivisionByZero(Ortho7Error):
    """Multiplicative inverse of zero requested."""


class DegreeMismatch(Ortho7Error):
    """Polynomial degree does not match the operation's requirement."""


class CharacteristicSeven(Ortho7Error):
    """Operation requires gcd(q, 7) = 1 and the field has characteristic 7."""


class UniquenessViolation(Ortho7Error):
    """Two distinct criteria-passing forms found in one linear class;
    indicates a table or criteria bug, not a user error."""


class UnsupportedOrder(Ortho7Error):
    """Field order outside what an operation covers: no preset field, no
    class table, or a kernel limit."""


class BudgetExceeded(Ortho7Error):
    """Candidate space larger than the configured census budget."""


class InvalidArgument(Ortho7Error, ValueError):
    """Argument outside its valid range (also a ValueError, so callers that
    catch ValueError keep working)."""


class ParseError(Ortho7Error):
    """Malformed polynomial or field-element literal."""
