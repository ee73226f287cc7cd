"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input problems (2), violated
preconditions (3), internal defects (4), and missing external data (5).
"""


class QDSError(Exception):
    """Base class for all package errors."""


class DimensionError(QDSError, ValueError):
    """Operands have incompatible lengths or shapes."""


class ParseError(QDSError, ValueError):
    """A code file or Pauli/bit string could not be parsed."""


class CommutationError(QDSError, ValueError):
    """Generators are not mutually commuting (trace inner product != 0)."""


class RankError(QDSError, ValueError):
    """Generator rows are linearly dependent over F2."""


class StructureError(QDSError, ValueError):
    """A derived algebraic structure violates its defining relations."""


class CatalogError(QDSError, KeyError):
    """Unknown catalog entry."""

    # KeyError's __str__ quotes its argument, which suits a key, not a message
    __str__ = Exception.__str__


class CapacityError(QDSError, ValueError):
    """An enumeration exceeds the configured size limits."""


class PreconditionError(QDSError, ValueError):
    """An operation's documented precondition does not hold."""


class ConstructionFailureError(QDSError, RuntimeError):
    """A search guaranteed to succeed found nothing; treat as a defect signal."""


class AvailabilityError(QDSError, FileNotFoundError):
    """A required external data file (imported code matrix) is missing."""
