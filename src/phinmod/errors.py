"""Exception hierarchy shared across the package.

Every error that callers are expected to catch derives from PhinError, so a
CLI layer can map the whole family onto exit codes without enumerating
modules.
"""


class PhinError(Exception):
    """Base class for all package-specific failures."""


class PrecisionLoss(PhinError):
    """A verdict was requested that the working precision cannot certify."""


class ZeroInput(PhinError):
    """An exact zero was passed where an invertible element is required."""


class FieldMismatch(PhinError):
    """Operands live over different coefficient field descriptions."""


class ShapeMismatch(PhinError):
    """Operands carry different Galois shapes (e, f)."""


class RelationViolation(PhinError):
    """A structural identity fails on some slot (carries the offending slot)."""

    def __init__(self, message: str, slot: int | None = None):
        super().__init__(message if slot is None else f"{message} (slot {slot})")
        self.slot = slot


class NonInvertiblePhi(PhinError):
    """A Frobenius-step matrix is not certified invertible."""


class UnsupportedEnumeration(PhinError):
    """Submodule enumeration was requested outside the supported regimes."""


class RootLiftingError(PhinError):
    """Root extraction over the coefficient field did not resolve (internal)."""


class NotMonodromyType(PhinError):
    """Invariant extraction was given a module outside the two supported shapes."""


class ConstraintViolation(PhinError):
    """Monodromy parameter data violates one of its defining constraints."""

    def __init__(self, message: str, constraint: str | None = None):
        super().__init__(message)
        self.constraint = constraint


class ZeroEll(PhinError):
    """An operation that needs a nonzero L-invariant received zero."""


class NotUnipotent(PhinError):
    """The module passed to the unipotent class extractor is not of that type."""


class SingularDirection(PhinError):
    """The chosen direction degenerates the scalar equation being solved."""


class ParseError(PhinError):
    """An instance file is structurally malformed."""


class ValidationError(PhinError):
    """An instance file parsed but its payload violates a documented invariant."""


class UnknownCommand(PhinError):
    """The CLI was invoked with a command it does not provide."""


class InternalError(PhinError):
    """A failure outside the package's error family, reported by the CLI's
    last-resort handler instead of escaping as a traceback."""
