"""Exception types shared across the package.

Callers that want a single catch-all can use ShlinearError; everything the
library raises deliberately derives from it (alongside the closest builtin).
"""


class ShlinearError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimeError(ShlinearError, ValueError):
    """Field characteristic is not a prime number."""


class ReduciblePolynomialError(ShlinearError, ValueError):
    """Supplied modulus polynomial is not irreducible."""


class UnsupportedOrderError(ShlinearError, ValueError):
    """Requested field order exceeds the lookup-table cap."""


class DimensionMismatchError(ShlinearError, ValueError):
    """Vectors or matrices of incompatible dimensions were combined."""


class FieldMismatchError(ShlinearError, ValueError):
    """Operands belong to different field contexts."""


class InvalidParameterError(ShlinearError, ValueError):
    """A numeric or mode parameter is outside its valid range."""


class DuplicateVectorsError(ShlinearError, ValueError):
    """A vector set lists the same vector more than once."""


class HTooLargeError(ShlinearError, ValueError):
    """Combination length h exceeds the number of available elements."""


class ScalarZeroError(ShlinearError, ValueError):
    """A nonzero scalar was required."""


class PreconditionViolatedError(ShlinearError, ValueError):
    """A documented operation precondition does not hold for the input."""


class SpaceTooLargeError(ShlinearError, ValueError):
    """Ambient space exceeds the exhaustive-search guard."""


class BudgetExceededError(ShlinearError, RuntimeError):
    """Enumeration would exceed the caller-supplied budget."""


class DistanceTooSmallError(ShlinearError, ValueError):
    """Code distance is below what the construction requires."""


class RedundancyTooSmallError(ShlinearError, ValueError):
    """Code redundancy n - k is below 2h."""


class DuplicateColumnsError(ShlinearError, ValueError):
    """Parity-check columns are not pairwise distinct and nonzero."""


class NotShLinearError(ShlinearError, ValueError):
    """Input set failed S_h-linear verification."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DimensionWindowViolatedError(ShlinearError, RuntimeError):
    """Constructed code dimension fell outside the guaranteed window."""


class ParseError(ShlinearError, ValueError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SingletonViolationError(ShlinearError, ValueError):
    """Code-table entry violates the Singleton bound."""


class NoWitnessError(ShlinearError, LookupError):
    """No table entry qualifies for the requested bound."""


class UsageError(ShlinearError, ValueError):
    """Invalid command-line usage."""


class CertificateCountError(ShlinearError, RuntimeError):
    """An exhaustive enumeration did not decide every candidate code."""
