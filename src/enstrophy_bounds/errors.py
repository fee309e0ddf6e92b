"""Exception hierarchy.

Every error the library raises deliberately derives from
EnstrophyBoundsError, so callers can catch one type at the boundary. Each
class carries the exit code the CLI returns for it: 1 bad input, 2
numerical failure, 3 a structural assumption of the estimates does not
hold. Any other exception is a bug.
"""


class EnstrophyBoundsError(Exception):
    """Base class for all deliberate errors raised by this package."""
    exit_code = 1


class MissingKey(EnstrophyBoundsError):
    """A required parameter key is absent from the input mapping."""


class InvalidRegime(EnstrophyBoundsError):
    """Parameter values outside the range the theory covers."""


class OutsideDomain(EnstrophyBoundsError):
    """A curve was evaluated at an abscissa outside its domain of validity."""


class NoBracket(EnstrophyBoundsError):
    """Root finding could not establish a sign change."""
    exit_code = 2


class NonConvergence(EnstrophyBoundsError):
    """An iteration hit its ceiling before reaching tolerance."""
    exit_code = 2


class CancellationLoss(EnstrophyBoundsError):
    """A subtraction lost more significant digits than the caller allowed."""
    exit_code = 2


class FieldBlowup(EnstrophyBoundsError):
    """An integrated field left the trusted range (slope or value exploded)."""
    exit_code = 2


class RegimeViolation(EnstrophyBoundsError):
    """A derived quantity violates a structural assumption of the bound."""
    exit_code = 3


class AssumptionViolated(EnstrophyBoundsError):
    """Forcing data fails an applicability condition of the estimate."""
    exit_code = 3


class EtaTooSmall(EnstrophyBoundsError):
    """The barrier-steepness parameter is below its admissible minimum."""
    exit_code = 3
