"""Exception types shared across the package."""


class CfsLabError(Exception):
    """Base class for all errors raised by cfslab."""


class DimensionError(CfsLabError):
    """Operands have incompatible lengths or shapes."""


class InversionOfZero(CfsLabError):
    """Multiplicative inverse of the zero field element requested."""


class NotInvertible(CfsLabError):
    """Polynomial has no inverse modulo the given modulus."""


class BadParameters(CfsLabError):
    """Parameter combination violates a scheme or code constraint."""


class CensusInfeasible(CfsLabError):
    """Syndrome space too large for exhaustive enumeration."""


class AttemptLimitExceeded(CfsLabError):
    """Counter/nonce search exhausted its attempt budget (corrupt key?)."""


class WeightBoundViolation(CfsLabError):
    """A bounded-weight encoder produced a word heavier than its bound."""


class NoPermutationError(CfsLabError):
    """The two matrices are not related by any column permutation."""


class DecodingInvariantError(CfsLabError):
    """A decode that is guaranteed to succeed failed; key data is corrupt."""


class KeyFormatError(CfsLabError):
    """Malformed key or signature file."""
