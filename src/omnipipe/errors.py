"""Exception types shared across the omnipipe package, and the number
and integer checks that raise them."""

import operator
from collections.abc import Callable
from math import isfinite
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


def real_number(value, name: str, error: Callable[[str], Exception],
                positive: bool = False) -> float:
    """``value`` as a float: the one check of a numeric input.

    Raises ``error`` naming ``name`` for a bool or a value that is not a
    real number, one past the float range, one that is not finite and,
    where ``positive``, one that is not > 0.  Each module passes its own
    error type and keeps its own range rules.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise error(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise error(f"{name} must lie within the float range") from None
    if not isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    if positive and not value > 0.0:
        raise error(f"{name} must be > 0, got {value!r}")
    return value


def integer(value, name: str, error: Callable[[str], Exception]) -> int:
    """``value`` as a Python int; ``error`` naming ``name`` for a bool or
    a value that is not an integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")
