"""Mission planning: command schedules for straights, elbows and tees.

Plans are open-loop: every step carries a constant CommandVector and an
exact duration, so the simulator's piecewise-constant integration
reproduces them without drift.  Straight runs drive all modules at the
configured speed.  Elbows get the robot rolled so one module takes the
innermost curve, then per-module speeds proportional to the path radii.
Tees get a holonomic roll out of the singularity region (centered in the
nearest free gap), an approach run until the head is a configured
fraction of D into the junction, a differential turn whose twist realizes
the tee's equivalent bend radius, and an exit run.  Without the holonomic
roll (``with_holonomic=False``) neither elbows nor tees roll.

Holonomic rolling counter-rotates the modules about their own axes; once
the accumulated self-rotation passes 90 deg their drive direction flips
(see the drive module).  The planner tracks (theta5, alpha) by the drive
module's rules, as the simulator does, and pre-flips drive commands by
drive.drive_sign at alpha so the robot keeps advancing; rolls crossing
the 90 deg line are flagged.  Each step planner returns the roll state
it ends in, and plan_mission hands it to the next segment.

A branch turn's rate and command depend only on the speed, the roll at
turn onset, the equivalent radius, the geometry and the drive sign.
The escape rolls every mission to a free-gap centre first, so missions
from many initial rolls start their turns at the same few rolls:
_tee_turn memoises the solve (axis, turn rate, inverse kinematics) in a
bounded lru_cache.  It is exact: the function is pure, and equal
arguments give equal bits.  Equal-rate drives come from _drive_command
and pure rolls from _roll_command, bounded lru_caches too, so a mission
builds no command per step.  region_for_tee reads the memoised
singularity.sweep_t_junction, and PlannerConfig.deadband_rad is
computed once per config.

theta5 throughout is the robot roll in degrees, measured from the plane
of the next upcoming turn (see pipenet.reference_rolls).
"""

from __future__ import annotations

import enum
import functools
import json
import math
import sys
from dataclasses import astuple, dataclass

from .drive import (DEFAULT_DEADBAND_DEG, MAX_DEADBAND_RAD, drive_sign,
                    line_distance, roll, rolling_gain, shift_reference,
                    signed_drive)
from .errors import PlanError
from .intervals import signed_delta, wrap
from .kinematics import (CommandVector, RobotGeometry, TwistVector,
                         inverse_kinematics)
from .pipenet import (PipeNetwork, PipeSegment, RatioMode, SegmentKind,
                      TeeExit, module_path_radii)
from .singularity import (CALIBRATED_REACH_MM, DEFAULT_PHI_MAX_RAD,
                          ORIENTATION_PERIOD_DEG, SingularityRegion,
                          escape_rotation, sweep_t_junction)

_TOL_DEG = 1e-9
# any roll goal lies within half the roll period
_MAX_ROLL_DEG = ORIENTATION_PERIOD_DEG / 2.0
# how far (rad, relative to 1 + |alpha|) the alpha run_mission integrates
# may lie from the one a roll step plans: its up to sim.MAX_SUBSTEPS =
# 10^6 substeps each round alpha by half an ulp, 10^6 * 2^-53 < 1.2e-10,
# and the products rate * h * gain add a few ulps in all
_BAND_MARGIN = 1e-9

# preferred roll offsets, deg: a module on the turn plane for elbow and
# branch turns, modules straddling the branch mouth when passing over it
_ELBOW_TARGET_DEG = 0.0
_THROUGH_TARGET_DEG = 60.0


# reference robot: 15 mm lugs, 60 mm arms, reach for the 96.54 deg sector
REFERENCE_GEOMETRY = RobotGeometry(
    lug_radius_r=15.0, arm_length_l=60.0, a_offset=30.0, reach_min=40.0,
    reach_max=CALIBRATED_REACH_MM, module_outer_radius=20.0)


class StepKind(enum.Enum):
    DRIVE = "drive"
    HOLONOMIC_ROTATE = "holonomic_rotate"
    TURN_ELBOW = "turn_elbow"
    TURN_TEE = "turn_tee"


@dataclass(frozen=True)
class MissionStep:
    """One constant-command piece of a mission schedule."""

    kind: StepKind
    command: CommandVector
    duration_s: float
    hazard_self_rotation: bool = False
    segment_index: int | None = None
    note: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise PlanError(f"duration must be > 0, got {self.duration_s}")

    def roll_delta_deg(self) -> float:
        """theta5 change this step produces (nonzero only for rotations)."""
        if self.kind is StepKind.HOLONOMIC_ROTATE:
            return math.degrees(self.command.theta_dot_4 * self.duration_s)
        return 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "command": list(astuple(self.command)),
            "duration_s": self.duration_s,
            "hazard_self_rotation": self.hazard_self_rotation,
            "segment_index": self.segment_index,
            "note": self.note,
        }


def plan_to_dict(steps: list[MissionStep]) -> dict:
    return {"steps": [s.to_dict() for s in steps]}


def plan_to_json(steps: list[MissionStep]) -> str:
    return json.dumps(plan_to_dict(steps), sort_keys=True, indent=2)


@dataclass(frozen=True)
class PlannerConfig:
    straight_speed: float = 100.0        # mm/s
    tee_trigger_fraction: float = 0.25   # of D, head depth starting the turn
    ratio_mode: RatioMode = RatioMode.GENERALIZED
    wobble_deadband_deg: float = DEFAULT_DEADBAND_DEG
    rotate_rate_rad_s: float = 0.5
    sweep_phi_max_deg: float | None = None  # None: equal-bore tilt limit

    def __post_init__(self):
        # stored as floats, so equal configs hold equal floats; the tee
        # sweep checks the tilt's range, so a network without a tee never
        # reads it
        for name in ("straight_speed", "tee_trigger_fraction",
                     "wobble_deadband_deg", "rotate_rate_rad_s",
                     "sweep_phi_max_deg"):
            value = getattr(self, name)
            if value is None and name == "sweep_phi_max_deg":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise PlanError(f"{name} must be a number, got {value!r}")
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise PlanError(f"{name} must lie within the float range")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.ratio_mode, RatioMode):
            raise PlanError(f"ratio_mode must be a RatioMode, got "
                            f"{self.ratio_mode!r}")
        if not (math.isfinite(self.straight_speed) and self.straight_speed > 0):
            raise PlanError(f"straight_speed must be > 0, got "
                            f"{self.straight_speed}")
        if not 0.0 < self.tee_trigger_fraction <= 1.0:
            raise PlanError(f"tee_trigger_fraction must lie in (0, 1], got "
                            f"{self.tee_trigger_fraction}")
        limit = math.degrees(MAX_DEADBAND_RAD)
        if not 0.0 <= self.wobble_deadband_deg <= limit:
            raise PlanError(f"wobble_deadband_deg must lie in [0, {limit:g}], "
                            f"got {self.wobble_deadband_deg}")
        if not (math.isfinite(self.rotate_rate_rad_s)
                and self.rotate_rate_rad_s > 0):
            raise PlanError(f"rotate_rate_rad_s must be finite and > 0, got "
                            f"{self.rotate_rate_rad_s}")

    @functools.cached_property
    def deadband_rad(self) -> float:
        """wobble_deadband_deg in radians, computed on first use."""
        return math.radians(self.wobble_deadband_deg)


def region_for_tee(segment: PipeSegment, cfg: PlannerConfig,
                   geom: RobotGeometry) -> SingularityRegion:
    """Singularity region governing a branch turn through this tee."""
    phi_max = (math.radians(cfg.sweep_phi_max_deg)
               if cfg.sweep_phi_max_deg is not None else DEFAULT_PHI_MAX_RAD)
    return sweep_t_junction(segment.d_mm, geom.reach_max, phi_max)


@functools.lru_cache(maxsize=64)
def _drive_command(rate: float, sign: int) -> CommandVector:
    """Equal-rate drive pre-flipped for the drive sign ``sign`` (by
    ``sign or 1``, which cancels it), one object per key: the straights,
    approaches and exits driven at one roll state share it, so they build
    no CommandVector each, and the CSV writer formats it once per run of
    rows.  rate = speed / r is never -0.0, so the key is exact."""
    return signed_drive(CommandVector(rate, rate, rate, 0.0), sign or 1)


def _align(delta_deg: float, theta5_deg: float, alpha_rad: float,
           d_mm: float, cfg: PlannerConfig, geom: RobotGeometry,
           segment_index: int | None
           ) -> tuple[list[MissionStep], float, float]:
    """Roll by ``delta_deg`` from the roll state (theta5, alpha); return
    the steps and the roll state after.

    Landing the self-rotation inside the deadband would stall every later
    drive command, so where the alpha the step reaches lies in the band
    widened by _BAND_MARGIN, which holds the alpha run_mission integrates
    in substeps, widen the roll just past the band, or shorten it where
    widening would pass +-60 deg, half the roll period.  The nudge is a
    fraction of a degree of roll and does not matter against the free-gap
    margin.
    """
    step, theta5, alpha = holonomic_rotate_step(
        delta_deg, cfg.rotate_rate_rad_s, geom, d_mm, theta5_deg, alpha_rad,
        segment_index)
    if line_distance(alpha) <= (cfg.deadband_rad + _BAND_MARGIN
                                * (1.0 + max(abs(alpha_rad), abs(alpha)))):
        # alpha moves by just over the band's width, which clears it
        bump = (math.degrees(2.0 * cfg.deadband_rad + 1e-6)
                / rolling_gain(d_mm, geom))
        bump = bump if delta_deg >= 0 else -bump
        delta_deg += bump if abs(delta_deg + bump) <= _MAX_ROLL_DEG else -bump
        step, theta5, alpha = holonomic_rotate_step(
            delta_deg, cfg.rotate_rate_rad_s, geom, d_mm, theta5_deg,
            alpha_rad, segment_index)
    return [] if step is None else [step], theta5, alpha


def _check_finite(**values: float) -> None:
    """PlanError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise PlanError(f"{name} must be finite, got {value}")


def _timed(duration_s: float, speed: float) -> float:
    """A step duration derived from straight_speed ``speed``; PlanError
    when it is not finite and positive, e.g. an extreme speed that made
    it overflow or underflow."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise PlanError(f"straight_speed {speed} mm/s is out of range: it "
                        f"gives a step duration of {duration_s} s")
    return duration_s


def plan_straight(length_mm: float, cfg: PlannerConfig, geom: RobotGeometry,
                  alpha_rad: float = 0.0,
                  segment_index: int | None = None) -> MissionStep:
    """Equal-speed drive covering a straight run at cfg.straight_speed,
    pre-flipped for the modules' shared self-rotation ``alpha_rad``,
    which must be finite."""
    if not (math.isfinite(length_mm) and length_mm > 0):
        raise PlanError(f"length must be > 0, got {length_mm}")
    _check_finite(alpha_rad=alpha_rad)
    return MissionStep(kind=StepKind.DRIVE,
                       command=_drive_command(
                           cfg.straight_speed / geom.lug_radius_r,
                           drive_sign(alpha_rad, cfg.deadband_rad)),
                       duration_s=_timed(length_mm / cfg.straight_speed,
                                         cfg.straight_speed),
                       segment_index=segment_index)


@functools.lru_cache(maxsize=64)
def _roll_command(rate: float) -> CommandVector:
    """The pure roll at ``rate``, one object per rate, so a roll step
    builds no CommandVector.  rate = +-rotate_rate_rad_s is never +-0.0,
    so the key is exact."""
    return CommandVector(0.0, 0.0, 0.0, rate)


def holonomic_rotate_step(delta_deg: float, rate_rad_s: float,
                          geom: RobotGeometry, d_mm: float,
                          theta5_deg: float = 0.0,
                          alpha_rad: float = 0.0,
                          segment_index: int | None = None
                          ) -> tuple[MissionStep | None, float, float]:
    """In-place roll by a signed delta (deg) at |theta_dot_4| = rate from
    the roll state (theta5, alpha); returns the step and the roll state
    after it, as drive.roll gives it.

    A zero delta gives no step (None) and leaves the roll state as it is.
    |delta| must not exceed 60 deg: any orientation goal is within 60 deg
    thanks to the 120 deg module symmetry.  The hazard flag marks
    rotations whose module self-rotation, from ``alpha_rad``, reaches a
    90 deg drive line.  A rate so small that the roll's duration
    overflows raises PlanError, as does a non-finite theta5 or alpha.
    """
    if not (math.isfinite(rate_rad_s) and rate_rad_s > 0):
        raise PlanError(f"rotate rate must be finite and > 0, got "
                        f"{rate_rad_s}")
    if not abs(delta_deg) <= _MAX_ROLL_DEG + 1e-6:
        raise PlanError(f"roll delta must lie within +-60 deg, got "
                        f"{delta_deg}")
    _check_finite(theta5_deg=theta5_deg, alpha_rad=alpha_rad)
    if abs(delta_deg) <= _TOL_DEG:
        return None, theta5_deg, alpha_rad
    rate = math.copysign(rate_rad_s, delta_deg)
    duration = math.radians(abs(delta_deg)) / rate_rad_s
    if not math.isfinite(duration):
        raise PlanError(f"rotate rate {rate_rad_s} rad/s is out of range: "
                        f"it gives a roll duration of {duration} s")
    theta5, alpha = roll(theta5_deg, alpha_rad, rate * duration, d_mm, geom)
    # the self-rotation reaches a line at 90 deg + k * 180 deg
    low, high = sorted((alpha_rad, alpha))
    hazard = (math.floor((high - math.pi / 2.0) / math.pi)
              >= math.ceil((low - math.pi / 2.0) / math.pi))
    step = MissionStep(
        kind=StepKind.HOLONOMIC_ROTATE, command=_roll_command(rate),
        duration_s=duration, hazard_self_rotation=hazard,
        segment_index=segment_index, note=f"roll {delta_deg:+.3f} deg")
    return step, theta5, alpha


def plan_elbow(segment: PipeSegment, theta5_deg: float, cfg: PlannerConfig,
               geom: RobotGeometry, with_holonomic: bool = True,
               alpha_rad: float = 0.0,
               segment_index: int | None = None
               ) -> tuple[list[MissionStep], float, float]:
    """Roll a module onto the innermost curve, then drive at radii ratios.

    The two-modules-inner pose stalls against the outer wall, so the
    target is always the single-inner-module grid (theta5 = 0 mod 120);
    with_holonomic false skips the roll.  Speeds come out proportional to
    module_path_radii and are normalized so their mean is
    cfg.straight_speed.  Returns the steps and the (theta5, alpha) they
    end in; a non-finite theta5 or alpha raises PlanError.
    """
    if segment.kind is not SegmentKind.ELBOW:
        raise PlanError("plan_elbow requires an elbow segment")
    _check_finite(theta5_deg=theta5_deg, alpha_rad=alpha_rad)
    delta = (signed_delta(theta5_deg, _ELBOW_TARGET_DEG,
                          ORIENTATION_PERIOD_DEG)
             if with_holonomic else 0.0)
    steps, theta5, alpha = _align(delta, theta5_deg, alpha_rad,
                                  segment.d_mm, cfg, geom, segment_index)
    radii = module_path_radii(segment, theta5, cfg.ratio_mode)
    mean_radius = sum(radii) / 3.0
    if mean_radius <= 0:
        raise PlanError(f"bend radii degenerate: {radii}")
    speeds = [cfg.straight_speed * r / mean_radius for r in radii]
    command = signed_drive(
        CommandVector(*(v / geom.lug_radius_r for v in speeds), 0.0),
        drive_sign(alpha, cfg.deadband_rad) or 1)
    steps.append(MissionStep(
        kind=StepKind.TURN_ELBOW, command=command,
        duration_s=_timed(segment.arc_length() / cfg.straight_speed,
                          cfg.straight_speed),
        segment_index=segment_index))
    return steps, theta5, alpha


def _turn_rate_for_radius(speed: float, axis_xy: tuple[float, float],
                          equivalent_radius: float,
                          geom: RobotGeometry) -> float:
    """Turn rate (rad/s) whose module speeds average to R * omega.

    Module speeds are affine in omega, V_i = speed + omega * w_i with
    w_i = r (row i of J^-1) . axis and sum(w_i) = 0, so while all V_i
    stay positive the curvature radius is speed/omega; once the inner
    module reverses the radius approaches sum|w_i|/3 from above and radii
    at or below that bound, or within rounding of it, are unreachable.
    """
    r = geom.lug_radius_r
    rates = inverse_kinematics(TwistVector(*axis_xy, 0.0, 0.0), geom)
    w = (r * rates.theta_dot_1, r * rates.theta_dot_2, r * rates.theta_dot_3)
    bound = (abs(w[0]) + abs(w[1]) + abs(w[2])) / 3.0
    signs = (1.0, 1.0, 1.0)
    for _ in range(4):
        s1, s2, s3 = signs
        denominator = (3.0 * equivalent_radius
                       - (s1 * w[0] + s2 * w[1] + s3 * w[2]))
        if equivalent_radius <= bound + 1e-9 or not denominator > 0.0:
            raise PlanError(
                f"equivalent radius {equivalent_radius} mm unreachable; the "
                f"differential turn bottoms out at {bound} mm")
        omega = speed * (s1 + s2 + s3) / denominator
        new_signs = tuple(1.0 if speed + omega * wi >= 0.0 else -1.0
                          for wi in w)
        if new_signs == signs:
            break
        signs = new_signs
    if not (math.isfinite(omega) and omega > 0.0):
        raise PlanError(f"straight_speed {speed} mm/s is out of range: it "
                        f"gives a turn rate of {omega} rad/s")
    return omega


@functools.lru_cache(maxsize=256)
def _tee_turn(speed: float, theta5_deg: float, equivalent_radius: float,
              geom: RobotGeometry,
              sign: int) -> tuple[float, CommandVector]:
    """Turn rate and command of a branch turn begun at theta5, pre-flipped
    for the drive sign ``sign``.

    A pure function of its arguments, so the memo returns the bits a
    fresh solve gives.  Its key is exact: arguments that compare equal
    give equal bits, theta5 = +-0.0 too, whose sign reaches only the
    zero x component of the turn axis, a zero term of the Python-float
    sums in inverse_kinematics.  A PlanError is not stored, so it is
    raised on every call.
    """
    axis = (-math.sin(math.radians(theta5_deg)),
            math.cos(math.radians(theta5_deg)))
    omega = _turn_rate_for_radius(speed, axis, equivalent_radius, geom)
    twist = TwistVector(omega * axis[0], omega * axis[1], 0.0, speed)
    return omega, signed_drive(inverse_kinematics(twist, geom), sign or 1)


def forward_turn_radius(geom: RobotGeometry) -> float:
    """Turn radius (mm) above which no module reverses, whatever the axis.

    In ``_turn_rate_for_radius`` a module's speed is speed + omega * w_i,
    with w_i linear in the unit turn axis and at least -|row i| of
    r J^-1[:3, :2].  Every such row, (0, -2L/3) and (-+L/sqrt 3, L/3),
    has norm 2L/3 with lever L = a + l, so above that radius every
    module drives forward and omega is speed / R at every roll.
    """
    return 2.0 * (geom.a_offset + geom.arm_length_l) / 3.0


def plan_tee(segment: PipeSegment, theta5_deg: float,
             region: SingularityRegion, cfg: PlannerConfig,
             geom: RobotGeometry, with_holonomic: bool = True,
             alpha_rad: float = 0.0,
             segment_index: int | None = None
             ) -> tuple[list[MissionStep], float, float]:
    """Negotiate a tee: roll clear of the singularity, approach, turn, exit.

    For the branch exit the roll centers the robot in the nearest free gap
    of ``region`` (skipped when already centered, or entirely when
    with_holonomic is false, which is how the failure statistics are
    collected).  The differential turn holds v_cz = cfg.straight_speed and
    sets the twist so the curvature radius equals the tee's equivalent
    radius.  For the through exit the roll straddles the branch mouth with
    two modules and the robot drives straight across.  Returns the steps
    and the (theta5, alpha) they end in; a non-finite theta5 or alpha
    raises PlanError.
    """
    if segment.kind is not SegmentKind.TEE:
        raise PlanError("plan_tee requires a tee segment")
    _check_finite(theta5_deg=theta5_deg, alpha_rad=alpha_rad)
    d = segment.d_mm
    speed = cfg.straight_speed

    if not with_holonomic:
        delta = 0.0
    elif segment.exit is TeeExit.THROUGH:
        delta = signed_delta(theta5_deg, _THROUGH_TARGET_DEG,
                             ORIENTATION_PERIOD_DEG)
    else:
        delta = escape_rotation(theta5_deg, region)
    steps, theta5, alpha = _align(delta, theta5_deg, alpha_rad, d, cfg, geom,
                                  segment_index)
    sign = drive_sign(alpha, cfg.deadband_rad)
    drive = _drive_command(speed / geom.lug_radius_r, sign)

    if segment.exit is TeeExit.THROUGH:
        steps.append(MissionStep(
            kind=StepKind.DRIVE, command=drive,
            duration_s=_timed(segment.arc_length() / speed, speed),
            segment_index=segment_index, note="cross junction"))
        return steps, theta5, alpha

    approach = cfg.tee_trigger_fraction * d
    steps.append(MissionStep(
        kind=StepKind.DRIVE, command=drive,
        duration_s=_timed(approach / speed, speed),
        segment_index=segment_index,
        note="approach junction"))

    omega, command = _tee_turn(speed, theta5, segment.tee_equivalent_radius,
                               geom, sign)
    steps.append(MissionStep(
        kind=StepKind.TURN_TEE, command=command,
        duration_s=_timed((math.pi / 2.0) / omega, speed),
        segment_index=segment_index, note="turn into branch"))

    remainder = (segment.arc_length() - approach
                 - speed * (math.pi / 2.0) / omega)
    if remainder > 1e-9:
        steps.append(MissionStep(
            kind=StepKind.DRIVE, command=drive,
            duration_s=_timed(remainder / speed, speed),
            segment_index=segment_index,
            note="exit junction"))
    return steps, theta5, alpha


def plan_mission(net: PipeNetwork, theta5_deg: float, cfg: PlannerConfig,
                 geom: RobotGeometry,
                 with_holonomic: bool = True) -> list[MissionStep]:
    """Schedule covering the whole network in order.

    ``theta5_deg`` is the initial roll relative to the first upcoming
    turn's plane and must be finite; one (theta5, alpha) passes through
    the segments, and each step carries the index of its segment.
    """
    _check_finite(theta5_deg=theta5_deg)
    theta5, alpha = wrap(theta5_deg, 360.0), 0.0
    steps: list[MissionStep] = []
    for i, segment in enumerate(net.segments):
        if i > 0:
            theta5 = shift_reference(theta5, net, i - 1, i)
        if segment.kind is SegmentKind.STRAIGHT:
            new = [plan_straight(segment.length_mm, cfg, geom, alpha, i)]
        elif segment.kind is SegmentKind.ELBOW:
            new, theta5, alpha = plan_elbow(segment, theta5, cfg, geom,
                                            with_holonomic, alpha, i)
        else:
            new, theta5, alpha = plan_tee(
                segment, theta5, region_for_tee(segment, cfg, geom), cfg,
                geom, with_holonomic, alpha, i)
        steps.extend(new)
    return steps
