"""Exception hierarchy shared across the package."""

from __future__ import annotations


class NilstabError(Exception):
    """Base class for every error raised by this package."""


class ParseError(NilstabError):
    """A document (JSON group, cocycle, or chain) could not be parsed."""


class ValidationError(NilstabError):
    """A validation suite failed; carries the offending report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NonIntegralValue(NilstabError):
    """An exact evaluation produced a non-integer where an integer is required."""


class NotCentral(NilstabError):
    """The last basis element is not central, so the quotient is undefined."""


class InvalidCocycle(NilstabError):
    """A 2-cochain failed the cocycle identity where one was required."""


class NotASection(NilstabError):
    """A map into an extension does not project back to the identity map."""


class NotSkinny(NilstabError):
    """A cocycle does not factor through (x, alpha(y)) or kill ker(alpha) x ker(alpha)."""


class DegreeBoundTooSmall(NilstabError):
    """Polynomial interpolation could not reproduce the kernel at this degree."""


class NotCoprime(NilstabError):
    """The matrix size shares a factor with a coefficient denominator."""


class DimensionMismatch(NilstabError):
    """Two matrices of different sizes were combined."""


class NotScalar(NilstabError):
    """A matrix expected to be a scalar multiple of the identity is not."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class TooFarFromIdentity(NilstabError):
    """The matrix logarithm precondition ||M - I|| < 1 failed."""


class TermOutOfRange(NilstabError):
    """A chain term produced a log argument outside the convergence ball."""

    def __init__(self, message: str, term_index: int | None = None):
        super().__init__(message)
        self.term_index = term_index


class NotACycle(NilstabError):
    """The 2-chain has a nonzero boundary, so integer rounding is withheld."""


class TorsionPairing(NilstabError):
    """The cocycle pairs to zero against the cycle; no obstruction exists."""


class PairingMismatch(NilstabError):
    """A computed winding number disagrees with its predicted value."""
