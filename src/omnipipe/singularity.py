"""Contact-loss geometry of T-junction turns.

Turning through a tee, the robot meets pipe cross-sections that are
ellipses of growing eccentricity: a cut plane tilted by ``phi`` from the
perpendicular section stretches the circular bore of diameter D into an
ellipse with semi-minor D/2 and semi-major D/(2 cos phi).  Near the ends
of the major axis the wall lies farther out than a module can reach, so a
module pointed there loses contact and the robot is left with two contact
points and no usable traction.

This module computes, analytically, the half-width h of the two arcs of
wall direction where contact is lost, centred on the ends of the major
axis.  Folded by the 120 deg module symmetry (the three modules are
interchangeable), they forbid every robot roll within h of a multiple of
60 deg.  The forbidden sector, the free gaps, the escape roll and the
failure probability of a robot that cannot re-orient itself all follow
from h in closed form.

Angles inside region structures are degrees (fields carry a ``_deg``
suffix); ellipse queries take radians like the kinematics layer.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import (InsufficientReachError, InvalidGeometryError,
                     InvalidSectionError, NoEscapeError)
from .intervals import Interval, signed_delta, wrap

# Robot orientations repeat every 120 deg (three identical modules).
ORIENTATION_PERIOD_DEG = 120.0
CIRCLE_DEG = 360.0
# The two opposite arcs fold onto every multiple of half the period, and
# the free gaps are centred between them.
_HALF_PERIOD_DEG = ORIENTATION_PERIOD_DEG / 2.0
_GAP_CENTRES_DEG = (30.0, 90.0)
_TOL_DEG = 1e-9

# Default sweep limit for an equal-bore tee: the cut plane tilts until it
# reaches the branch mouth, 45 deg when branch and main diameters match.
DEFAULT_PHI_MAX_RAD = math.atan(1.0)

# Max wall distance (mm) at which a module still presses, recovered by
# calibrate_reach_for_sector() for a 160 mm equal-bore tee and a 96.54 deg
# swept sector; shipped as the reference robot's reach_max.
CALIBRATED_REACH_MM = 104.72112946686072


@dataclass(frozen=True)
class EllipseSection:
    """Elliptical cross-section produced by a tilted cut of the pipe.

    ``semi_major_a`` lies along the turn plane, ``semi_minor_b`` equals the
    bore radius D/2, ``tilt_angle_phi`` (rad) is the cut-plane tilt from
    the perpendicular section.
    """

    semi_major_a: float
    semi_minor_b: float
    tilt_angle_phi: float

    def __post_init__(self):
        if not (math.inf > self.semi_major_a >= self.semi_minor_b > 0):
            raise InvalidSectionError(
                f"need a finite semi_major >= semi_minor > 0, got "
                f"a={self.semi_major_a}, b={self.semi_minor_b}")
        expected = self.semi_minor_b / math.cos(self.tilt_angle_phi)
        if not math.isclose(self.semi_major_a, expected, rel_tol=1e-9):
            raise InvalidSectionError(
                f"semi_major_a={self.semi_major_a} inconsistent with "
                f"b/cos(phi)={expected}")


@dataclass(frozen=True)
class SingularityRegion:
    """A tee's Motion Singularity Region, from its contact-loss half-width.

    ``half_width_deg`` is the half-width h of each of the two wall arcs
    where contact is lost, centred on the major-axis ends (0 and 180 deg
    of wall direction); 0.0 when no contact is lost.  A roll theta5 is
    forbidden iff it lies within h of a multiple of 60 deg, so the
    forbidden sector measures min(4h, 120) deg and the free gaps are
    centred on 30 and 90 deg.  Gaps at most 1e-9 deg wide, within
    in_singularity's slack, count as closed: the sector is then 120 deg.
    ``free_margin_deg``, (120 - sector) / 2, is the width of each free
    gap: 11.73 deg for the reference robot, whose gap runs from 24.135 to
    35.865 deg, 5.865 deg on either side of its centre.
    """

    half_width_deg: float

    @property
    def sector_measure_deg(self) -> float:
        h = self.half_width_deg
        if _HALF_PERIOD_DEG - h <= h + _TOL_DEG:
            return ORIENTATION_PERIOD_DEG
        return 4.0 * h

    @property
    def free_margin_deg(self) -> float:
        return (ORIENTATION_PERIOD_DEG - self.sector_measure_deg) / 2.0

    @property
    def forbidden_arcs(self) -> list[Interval]:
        """The wall arcs (deg from the major axis) as a canonical set."""
        h = self.half_width_deg
        if h == 0.0:
            return []
        if h >= 90.0:
            return [(0.0, CIRCLE_DEG)]
        return [(0.0, h), (180.0 - h, 180.0 + h),
                (CIRCLE_DEG - h, CIRCLE_DEG)]


def ellipse_radial_distance(e: EllipseSection, psi: float) -> float:
    """Distance from ellipse center to its boundary along direction psi.

    ``psi`` (rad) is measured from the major axis.  Standard polar form:
    a b / sqrt(b^2 cos^2 psi + a^2 sin^2 psi), on the section scaled as
    in _scaled where b^2 or 2 a^2 would leave the normal range.
    """
    a, b = e.semi_major_a, e.semi_minor_b
    k = 0
    if not (sys.float_info.min <= b * b
            and a * a <= sys.float_info.max / 2.0):
        k, (a, b) = _scaled(e)
    return math.ldexp(a * b / math.sqrt((b * math.cos(psi)) ** 2
                                        + (a * math.sin(psi)) ** 2), k)


def _scaled(e: EllipseSection, *lengths: float) -> tuple[int, list[float]]:
    """k, and a, b and ``lengths`` scaled by 2^-k so that a lies in
    [1/2, 1): their squares then neither underflow nor overflow.  Where
    the unscaled squares were normal floats the scaling is exact, so a
    ratio of them keeps its bits."""
    k = math.frexp(e.semi_major_a)[1]
    return k, [math.ldexp(x, -k)
               for x in (e.semi_major_a, e.semi_minor_b, *lengths)]


def cross_section_at(D: float, phi: float) -> EllipseSection:
    """Section of a bore of diameter D cut at tilt ``phi`` (rad).

    Raises InvalidSectionError for a non-finite or non-positive D, and
    for phi outside [0, pi/2): at 90 deg the cut plane is parallel to the
    pipe axis and no ellipse exists.  It is also raised where D/2
    underflows to 0 or the semi-major axis overflows the float range.
    """
    if not (math.isfinite(D) and D > 0):
        raise InvalidSectionError(
            f"diameter must be finite and > 0, got {D!r}")
    if not (0.0 <= phi < math.pi / 2.0):
        raise InvalidSectionError(
            f"tilt must lie in [0, 90 deg), got {math.degrees(phi)!r} deg")
    b = D / 2.0
    return EllipseSection(semi_major_a=b / math.cos(phi), semi_minor_b=b,
                          tilt_angle_phi=phi)


def _lost_half_width(e: EllipseSection, reach_max: float) -> float:
    """Half-width (deg) of each contact-loss arc; see contact_loss_arcs."""
    if not (math.isfinite(reach_max) and reach_max > 0):
        raise InvalidGeometryError(
            f"reach_max must be finite and > 0, got {reach_max!r}")
    a, b = e.semi_major_a, e.semi_minor_b
    if reach_max < b:
        raise InsufficientReachError(
            f"reach_max={reach_max} mm is below the bore radius {b} mm")
    if reach_max >= a:
        return 0.0
    # b^2 cos^2 + a^2 sin^2 = (ab/reach)^2, solved for sin^2 psi on the
    # scaled section
    _, (a, b, r) = _scaled(e, reach_max)
    sin2 = b * b * (a * a - r * r) / (r * r * (a * a - b * b))
    return math.degrees(math.asin(math.sqrt(min(1.0, sin2))))


def contact_loss_arcs(e: EllipseSection, reach_max: float) -> list[Interval]:
    """Wall directions where the boundary lies beyond module reach.

    Solves ``ellipse_radial_distance(e, psi) = reach_max`` in closed form
    and returns the arcs (degrees) around each major-axis end where the
    wall is out of reach; empty when reach covers the whole ellipse.

    Raises InvalidGeometryError for a non-finite or non-positive reach,
    and InsufficientReachError when ``reach_max`` is below the semi-minor
    axis: such a robot cannot press even a circular bore.
    """
    half_width = _lost_half_width(e, reach_max)
    if half_width == 0.0:
        return []
    return [
        (CIRCLE_DEG - half_width, CIRCLE_DEG + half_width),  # arc about 0 deg
        (180.0 - half_width, 180.0 + half_width),
    ]


@functools.lru_cache(maxsize=64)
def sweep_t_junction(D: float, reach_max: float,
                     phi_max: float) -> SingularityRegion:
    """Union of contact-loss regions over cut tilts in [0, phi_max] (rad).

    For any reach above D/2 the lost half-width grows with tilt,
    d/da [(a^2 - R^2) / (a^2 - b^2)] > 0, so the union is the single
    section at ``phi_max``.

    Every mission asks for the region of each tee it meets, and a network
    has one bore, so a bounded lru_cache keeps the few regions in use.
    Its key is exact: D and reach are checked before an entry is stored,
    an int that equals a float gives the same bits, and phi_max = +-0.0
    gives a = b either way.  An error is not stored, so it is raised on
    every call.
    """
    return SingularityRegion(
        _lost_half_width(cross_section_at(D, phi_max), reach_max))


def in_singularity(theta5_deg: float, region: SingularityRegion) -> bool:
    """True iff theta5 (degrees) lies within the half-width of a multiple
    of 60 deg, closed, with 1e-9 deg of slack."""
    h = region.half_width_deg
    if h <= 0.0:
        return False
    d = wrap(theta5_deg, _HALF_PERIOD_DEG)
    return min(d, _HALF_PERIOD_DEG - d) <= h + _TOL_DEG


def preferred_orientations(region: SingularityRegion) -> list[float]:
    """Centers of the free gaps (degrees, within [0, 120)).

    These rolls maximize the margin before a module re-enters the
    forbidden set: 30 and 90 deg, or 60 deg when no roll is forbidden.
    Raises NoEscapeError when the gaps are at most 1e-9 deg wide.
    """
    if region.half_width_deg == 0.0:
        return [_HALF_PERIOD_DEG]
    if region.sector_measure_deg == ORIENTATION_PERIOD_DEG:
        raise NoEscapeError("forbidden set covers every orientation")
    return list(_GAP_CENTRES_DEG)


def escape_rotation(theta5_deg: float, region: SingularityRegion) -> float:
    """Smallest signed roll (degrees) to the nearest free-gap center.

    Centering in the gap maximizes margin on both sides.  Returns 0.0 when
    already centered within 1e-9 deg; ties between a positive and a
    negative candidate resolve to the positive (counter-clockwise) one.
    Raises NoEscapeError when the free set is empty.
    """
    best = None
    for target in preferred_orientations(region):
        d = signed_delta(theta5_deg, target, ORIENTATION_PERIOD_DEG)
        if best is None or abs(d) < abs(best) - _TOL_DEG:
            best = d
        elif abs(abs(d) - abs(best)) <= _TOL_DEG and d > best:
            best = d  # tie: prefer the positive rotation
    if abs(best) <= _TOL_DEG:
        return 0.0
    return best


def failure_probability(region: SingularityRegion) -> float:
    """Chance a robot at uniform random roll sits in the forbidden set."""
    return region.sector_measure_deg / ORIENTATION_PERIOD_DEG


def calibrate_reach_for_sector(D: float, target_sector_deg: float,
                               phi_max: float = DEFAULT_PHI_MAX_RAD) -> float:
    """Reach (mm) whose swept sector measure equals the target (deg).

    Two antipodal arcs of half-width h fold to sector = min(4h, 120), which
    inverts on the section at ``phi_max`` (b = D/2, a = b / cos phi_max) to
    R = a b / sqrt(b^2 + sin^2(target/4) (a^2 - b^2)).  Target 120 gives
    the largest reach that still forbids every roll (~101.19 mm at D=160).

    Raises ValueError for a non-finite target or one outside [0, 120], and
    InvalidSectionError for a non-finite or non-positive D.
    """
    if not (math.isfinite(target_sector_deg)
            and 0.0 <= target_sector_deg <= ORIENTATION_PERIOD_DEG):
        raise ValueError(f"target sector must lie in [0, 120] deg, got "
                         f"{target_sector_deg!r}")
    # on the scaled section, and the reach scaled back
    k, (a, b) = _scaled(cross_section_at(D, phi_max))
    s = math.sin(math.radians(target_sector_deg / 4.0))
    return math.ldexp(a * b / math.sqrt(b * b + s * s * (a * a - b * b)), k)
