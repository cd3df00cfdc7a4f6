"""Exception hierarchy with stable machine-readable codes.

Every domain error carries a ``code`` string that the CLI emits verbatim in
its error object, so callers can dispatch without parsing messages.
"""


class EllfmError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class MultiplicityError(EllfmError):
    code = "multiplicity"


class NotEllipticError(EllfmError):
    code = "not-elliptic"


class DegenerateSurfaceError(EllfmError):
    code = "degenerate-surface"


class InvalidConfigError(EllfmError):
    code = "invalid-config"


class DuplicatePointError(EllfmError):
    code = "duplicate-point"


class UnknownLambdaError(EllfmError):
    code = "unknown-lambda"


class InvalidBaseError(EllfmError):
    code = "invalid-base"


class ShapeError(EllfmError):
    code = "twist-shape"


class AdditiveFiberError(EllfmError):
    code = "additive-fiber"


class BaseMismatchError(EllfmError):
    code = "base-mismatch"


class UnsupportedTwistError(EllfmError):
    code = "unsupported-twist"


class NotCoprimeError(EllfmError):
    code = "not-coprime"


class KodairaZeroError(EllfmError):
    code = "kodaira-zero"


class NotRigidError(EllfmError):
    code = "not-rigid"


class AutFloorError(EllfmError):
    """An automorphism bound below the floor of the Jacobian's configuration."""

    code = "below-aut-floor"


class NotPrimeError(EllfmError):
    code = "not-prime"


class PrimalityRangeError(EllfmError):
    code = "primality-range"


class UnknownEntryError(EllfmError):
    code = "unknown-entry"


class InvalidDocumentError(EllfmError):
    code = "invalid-document"


class OutOfMemoryError(EllfmError):
    """A ``MemoryError`` met while building or rendering a CLI document."""

    code = "out-of-memory"
