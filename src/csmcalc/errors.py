"""Exception hierarchy shared by all modules.

Every error carries the process exit code used by the command-line front
end: 2 parse, 3 validation, 4 degenerate invariants, 5 inconsistent system.
Any other exception escaping a subcommand is a defect in the package; the
front end reports it on one line, ``error: internal: <Type>: <message>``,
and exits with INTERNAL_ERROR_EXIT (6).  A write to standard output that
fails (a full disk) is no defect: the front end reports it as ``error:
cannot write output: <reason>`` and exits with OUTPUT_ERROR_EXIT (7).
"""

INTERNAL_ERROR_EXIT = 6
OUTPUT_ERROR_EXIT = 7


class CharClassError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputParseError(CharClassError):
    """Malformed input: bad JSON, unknown or missing keys, bad rational literals."""

    exit_code = 2


class ValidationError(CharClassError):
    """Structurally sound input that violates a documented precondition."""

    exit_code = 3


class DimensionMismatchError(ValidationError):
    """Operands declare different ambient projective dimensions."""


class NonUnitError(ValidationError):
    """Series inversion requires a nonzero constant term."""


class UnderdeterminedSystemError(ValidationError):
    """Invariant recovery needs a rank-2 system (requires d != 0 and dim Y' > 0)."""


class DegenerateInvariantsError(CharClassError):
    """chi = 1 or chi = Eu leaves the interpolation parameter undefined."""

    exit_code = 4


class InconsistentSystemError(CharClassError):
    """Overdetermined invariant system with no exact solution."""

    exit_code = 5
