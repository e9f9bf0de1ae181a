"""Exception types shared across the omnipipe package, and the number
check that raises them."""

from numbers import Real


class OmnipipeError(Exception):
    """Base class for all omnipipe errors."""


class InvalidGeometryError(OmnipipeError):
    """Robot geometry is degenerate or violates a physical constraint."""


class UndefinedCurvatureError(OmnipipeError):
    """Curvature is 0/0: all module speeds zero and no angular velocity."""


class InvalidSectionError(OmnipipeError):
    """A pipe cross-section cut is degenerate (cut plane parallel to axis)."""


class InsufficientReachError(OmnipipeError):
    """Module reach cannot press even the narrowest part of the section."""


class NoEscapeError(OmnipipeError):
    """The forbidden orientation set covers the whole period; no free gap."""


class NetworkValidationError(OmnipipeError):
    """A pipe network document violates the schema or an invariant.

    ``segment_index`` is the offending segment (None for document-level
    problems); ``field`` names the offending key when known.
    """

    def __init__(self, message: str, segment_index: int | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.segment_index = segment_index
        self.field = field


class PlanError(OmnipipeError):
    """A mission plan is malformed or cannot be constructed."""


class SimulationError(OmnipipeError):
    """A simulation run received invalid inputs."""


def real_number(value, name: str, error: type[OmnipipeError]) -> float:
    """``value`` as a float; ``error`` naming ``name`` for a bool, a value
    that is not a real number, or one past the float range."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} must lie within the float range") from None
