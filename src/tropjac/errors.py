"""Exception hierarchy for the library.

Every error carries a stable machine-readable ``code`` attribute so that the
command-line tool and the tests can match on it without parsing prose.
"""


class TropjacError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"

    def __init__(self, message=None):
        super().__init__(message if message is not None else self.code)


class CompatibilityViolation(TropjacError):
    """The two matrices of a morphism do not satisfy the pairing law."""

    code = "COMPATIBILITY_VIOLATION"


class ContainmentViolation(TropjacError):
    """A lattice is not contained in the lattice it was tested against."""

    code = "CONTAINMENT_VIOLATION"


class NotInjective(TropjacError):
    code = "NOT_INJECTIVE"


class NotSurjective(TropjacError):
    code = "NOT_SURJECTIVE"


class NotFinite(TropjacError):
    code = "NOT_FINITE"


class NotIsogeny(TropjacError):
    code = "NOT_ISOGENY"


class NotExact(TropjacError):
    code = "NOT_EXACT"


class NotTorsion(TropjacError):
    code = "NOT_TORSION"


class ShapeMismatch(TropjacError):
    code = "SHAPE_MISMATCH"


class SourceMismatch(TropjacError):
    code = "SOURCE_MISMATCH"


class InvalidCover(TropjacError):
    code = "INVALID_COVER"


class InvariantViolation(TropjacError):
    """A value the library constructed breaks a property the theory
    guarantees for it."""

    code = "INVARIANT_VIOLATION"


class NotOptimal(TropjacError):
    code = "NOT_OPTIMAL"


class UnsupportedGenus(TropjacError):
    """An invariant that exists only for covers of genus-2 graphs was asked
    of a cover of another genus."""

    code = "UNSUPPORTED_GENUS"


class KernelTooLarge(TropjacError):
    """A finite kernel has more points than a listing may hold
    (tav.MAX_LISTED_POINTS); it is refused before any point is listed."""

    code = "KERNEL_TOO_LARGE"


class NumberTooLarge(TropjacError):
    """A number of a report has more digits than Python converts to a
    string (sys.get_int_max_str_digits); nothing of the report is printed."""

    code = "NUMBER_TOO_LARGE"


class NotProductTarget(TropjacError):
    code = "NOT_PRODUCT_TARGET"


class OffsetOutOfRange(TropjacError):
    code = "OFFSET_OUT_OF_RANGE"


class ParseError(TropjacError):
    code = "PARSE_ERROR"


class ValidationError(TropjacError):
    code = "VALIDATION_ERROR"
