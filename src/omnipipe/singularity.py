"""Contact-loss geometry of T-junction turns.

Turning through a tee, the robot meets pipe cross-sections that are
ellipses of growing eccentricity: a cut plane tilted by ``phi`` from the
perpendicular section stretches the circular bore of diameter D into an
ellipse with semi-minor D/2 and semi-major D/(2 cos phi).  Near the ends
of the major axis the wall lies farther out than a module can reach, so a
module pointed there loses contact and the robot is left with two contact
points and no usable traction.

This module computes, analytically, the arcs of wall direction where
contact is lost, projects them into the space of robot roll orientations
(periodic in 120 deg because the three modules are interchangeable), and
reduces the result to a sector measure, free margins and a failure
probability for a robot that cannot re-orient itself.

Angles inside region structures are degrees (fields carry a ``_deg``
suffix); ellipse queries take radians like the kinematics layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import intervals
from .errors import (InsufficientReachError, InvalidGeometryError,
                     InvalidSectionError, NoEscapeError)
from .intervals import Interval

# Robot orientations repeat every 120 deg (three identical modules).
ORIENTATION_PERIOD_DEG = 120.0
CIRCLE_DEG = 360.0

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
        if not (self.semi_major_a >= self.semi_minor_b > 0):
            raise InvalidSectionError(
                f"need semi_major >= semi_minor > 0, got a={self.semi_major_a}, "
                f"b={self.semi_minor_b}")
        expected = self.semi_minor_b / math.cos(self.tilt_angle_phi)
        if not math.isclose(self.semi_major_a, expected, rel_tol=1e-9):
            raise InvalidSectionError(
                f"semi_major_a={self.semi_major_a} inconsistent with "
                f"b/cos(phi)={expected}")


@dataclass(frozen=True)
class SingularityRegion:
    """Forbidden wall arcs and the orientation set they induce.

    ``forbidden_arcs`` are wall-direction arcs on the cross-section circle
    (degrees, measured from the major axis / turn plane).  The orientation
    set lists forbidden robot rolls theta5 modulo 120 deg;
    ``sector_measure_deg`` is its total measure and ``free_margin_deg`` is
    the rotation available on either side of the preferred orientation,
    ``(120 - sector) / 2``.
    """

    forbidden_arcs: list[Interval]
    orientation_forbidden_set: list[Interval] = field(default_factory=list)
    sector_measure_deg: float = 0.0
    free_margin_deg: float = 60.0


def ellipse_radial_distance(e: EllipseSection, psi: float) -> float:
    """Distance from ellipse center to its boundary along direction psi.

    ``psi`` (rad) is measured from the major axis.  Standard polar form:
    a b / sqrt(b^2 cos^2 psi + a^2 sin^2 psi).
    """
    a, b = e.semi_major_a, e.semi_minor_b
    return a * b / math.sqrt((b * math.cos(psi)) ** 2 + (a * math.sin(psi)) ** 2)


def cross_section_at(D: float, phi: float) -> EllipseSection:
    """Section of a bore of diameter D cut at tilt ``phi`` (rad).

    Raises InvalidSectionError for phi outside [0, pi/2): at 90 deg the cut
    plane is parallel to the pipe axis and no ellipse exists.
    """
    if D <= 0:
        raise InvalidSectionError(f"diameter must be > 0, got {D}")
    if not (0.0 <= phi < math.pi / 2.0):
        raise InvalidSectionError(
            f"tilt must lie in [0, 90 deg), got {math.degrees(phi):.3f} deg")
    b = D / 2.0
    return EllipseSection(semi_major_a=b / math.cos(phi), semi_minor_b=b,
                          tilt_angle_phi=phi)


def contact_loss_arcs(e: EllipseSection, reach_max: float) -> list[Interval]:
    """Wall directions where the boundary lies beyond module reach.

    Solves ``ellipse_radial_distance(e, psi) = reach_max`` in closed form
    and returns the arcs (degrees) around each major-axis end where the
    wall is out of reach; empty when reach covers the whole ellipse.

    Raises InvalidGeometryError for a non-finite or non-positive reach,
    and InsufficientReachError when ``reach_max`` is below the semi-minor
    axis: such a robot cannot press even a circular bore.
    """
    if not (math.isfinite(reach_max) and reach_max > 0):
        raise InvalidGeometryError(
            f"reach_max must be finite and > 0, got {reach_max!r}")
    a, b = e.semi_major_a, e.semi_minor_b
    if reach_max < b:
        raise InsufficientReachError(
            f"reach_max={reach_max} mm is below the bore radius {b} mm")
    if reach_max >= a:
        return []
    # b^2 cos^2 + a^2 sin^2 = (ab/reach)^2, solved for sin^2 psi
    sin2 = (b * b * (a * a - reach_max * reach_max)
            / (reach_max * reach_max * (a * a - b * b)))
    half_width = math.degrees(math.asin(math.sqrt(min(1.0, sin2))))
    if half_width == 0.0:
        return []
    return [
        (CIRCLE_DEG - half_width, CIRCLE_DEG + half_width),  # arc about 0 deg
        (180.0 - half_width, 180.0 + half_width),
    ]


def orientation_forbidden_set(arcs: list[Interval]) -> SingularityRegion:
    """Project wall arcs into forbidden robot-roll orientations.

    A roll theta5 is forbidden iff any of the three module directions
    (theta5, theta5 +- 120 deg) points into any arc, which reduces to
    folding each arc modulo 120 deg and taking the union.
    """
    canonical = intervals.normalize(arcs, CIRCLE_DEG)
    folded = intervals.normalize(canonical, ORIENTATION_PERIOD_DEG)
    sector = intervals.measure(folded)
    return SingularityRegion(
        forbidden_arcs=canonical,
        orientation_forbidden_set=folded,
        sector_measure_deg=sector,
        free_margin_deg=(ORIENTATION_PERIOD_DEG - sector) / 2.0,
    )


def sweep_t_junction(D: float, reach_max: float,
                     phi_max: float) -> SingularityRegion:
    """Union of contact-loss regions over cut tilts in [0, phi_max] (rad).

    For any reach above D/2 the lost half-width grows with tilt,
    d/da [(a^2 - R^2) / (a^2 - b^2)] > 0, so the union is the single
    section at ``phi_max``.
    """
    return orientation_forbidden_set(
        contact_loss_arcs(cross_section_at(D, phi_max), reach_max))


def in_singularity(theta5_deg: float, region: SingularityRegion) -> bool:
    """True iff theta5 (degrees) folded into 120 deg is forbidden."""
    return intervals.contains(region.orientation_forbidden_set, theta5_deg,
                              ORIENTATION_PERIOD_DEG)


def preferred_orientations(region: SingularityRegion) -> list[float]:
    """Centers of the free gaps (degrees, within [0, 120)).

    These rolls maximize the margin before a module re-enters the
    forbidden set.  Raises NoEscapeError when no free gap exists.
    """
    gaps = intervals.complement(region.orientation_forbidden_set,
                                ORIENTATION_PERIOD_DEG)
    if not gaps:
        raise NoEscapeError("forbidden set covers every orientation")
    return [intervals.center(g, ORIENTATION_PERIOD_DEG) for g in gaps]


def escape_rotation(theta5_deg: float, region: SingularityRegion,
                    tol_deg: float = 1e-9) -> float:
    """Smallest signed roll (degrees) to the nearest free-gap center.

    Centering in the gap maximizes margin on both sides.  Returns 0.0 when
    already centered within ``tol_deg``; ties between a positive and a
    negative candidate resolve to the positive (counter-clockwise) one.
    Raises NoEscapeError when the free set is empty.
    """
    best = None
    for target in preferred_orientations(region):
        d = intervals.signed_delta(theta5_deg, target, ORIENTATION_PERIOD_DEG)
        if best is None or abs(d) < abs(best) - tol_deg:
            best = d
        elif abs(abs(d) - abs(best)) <= tol_deg and d > best:
            best = d  # tie: prefer the positive rotation
    if abs(best) <= tol_deg:
        return 0.0
    return best


def failure_probability(region: SingularityRegion) -> float:
    """Chance a robot at uniform random roll sits in the forbidden set."""
    p = region.sector_measure_deg / ORIENTATION_PERIOD_DEG
    return min(1.0, max(0.0, p))


def tee_sweep_tilt_limit(d_branch: float, d_main: float) -> float:
    """Cut tilt (rad) at which the sweep reaches the branch mouth."""
    if d_branch <= 0 or d_main <= 0:
        raise InvalidSectionError("diameters must be > 0")
    return math.atan(d_branch / d_main)


def calibrate_reach_for_sector(D: float, target_sector_deg: float,
                               phi_max: float = DEFAULT_PHI_MAX_RAD) -> float:
    """Reach (mm) whose swept sector measure equals the target (deg).

    Two antipodal arcs of half-width h fold to sector = min(4h, 120), which
    inverts on the section at ``phi_max`` (b = D/2, a = b / cos phi_max) to
    R = a b / sqrt(b^2 + sin^2(target/4) (a^2 - b^2)).  Target 120 gives
    the largest reach that still forbids every roll (~101.19 mm at D=160).

    Raises ValueError for a non-finite target or one outside [0, 120], and
    InvalidSectionError for D <= 0.
    """
    if not (math.isfinite(target_sector_deg)
            and 0.0 <= target_sector_deg <= ORIENTATION_PERIOD_DEG):
        raise ValueError(f"target sector must lie in [0, 120] deg, got "
                         f"{target_sector_deg!r}")
    section = cross_section_at(D, phi_max)
    a, b = section.semi_major_a, section.semi_minor_b
    s = math.sin(math.radians(target_sector_deg / 4.0))
    return a * b / math.sqrt(b * b + s * s * (a * a - b * b))
