"""Mission planning: command schedules for straights, elbows and tees.

Plans are open-loop: every step carries a constant CommandVector and an
exact duration, so the simulator's piecewise-constant integration
reproduces them without drift.  Straight runs drive all modules at the
configured speed.  Elbows get the robot rolled so one module takes the
innermost curve, then per-module speeds proportional to the path radii.
Tees get a holonomic roll out of the singularity region (centered in the
nearest free gap), an approach run until the head is a configured
fraction of D into the junction, a differential turn whose twist realizes
the tee's equivalent bend radius, and an exit run.

Holonomic rolling counter-rotates the modules about their own axes; once
the accumulated self-rotation passes 90 deg their drive direction flips
(see the drive module).  The planner tracks predicted self-rotation and
pre-flips subsequent drive commands so the realized motion stays forward;
steps whose rotation crosses the 90 deg line carry a hazard flag.

theta5 throughout is the robot roll in degrees, measured from the plane
of the next upcoming turn (see pipenet.reference_rolls).
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .drive import drive_sign, rolling_gain
from .errors import PlanError
from .intervals import signed_delta
from .kinematics import (CommandVector, RobotGeometry, TwistVector,
                         inverse_kinematics, jacobian)
from .pipenet import (PipeNetwork, PipeSegment, RatioMode, SegmentKind,
                      TeeExit, module_path_radii, reference_rolls)
from .singularity import (CALIBRATED_REACH_MM, SingularityRegion,
                          escape_rotation, in_singularity, sweep_t_junction,
                          tee_sweep_tilt_limit)

_TOL_DEG = 1e-9

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
    trigger: str = "immediate"  # or "head_fraction"
    trigger_fraction: float | None = None
    hazard_self_rotation: bool = False
    segment_index: int | None = None
    note: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise PlanError(f"duration must be > 0, got {self.duration_s}")
        if self.trigger not in ("immediate", "head_fraction"):
            raise PlanError(f"unknown trigger {self.trigger!r}")
        if self.trigger == "head_fraction":
            if self.trigger_fraction is None or not (
                    0.0 < self.trigger_fraction <= 1.0):
                raise PlanError(
                    f"trigger fraction must lie in (0, 1], got "
                    f"{self.trigger_fraction}")

    def roll_delta_deg(self) -> float:
        """theta5 change this step produces (nonzero only for rotations)."""
        if self.kind is StepKind.HOLONOMIC_ROTATE:
            return math.degrees(self.command.theta_dot_4 * self.duration_s)
        return 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "command": list(self.command.as_array()),
            "duration_s": self.duration_s,
            "trigger": self.trigger,
            "trigger_fraction": self.trigger_fraction,
            "hazard_self_rotation": self.hazard_self_rotation,
            "segment_index": self.segment_index,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MissionStep":
        try:
            th = [float(x) for x in data["command"]]
            return cls(kind=StepKind(data["kind"]),
                       command=CommandVector(*th),
                       duration_s=float(data["duration_s"]),
                       trigger=data.get("trigger", "immediate"),
                       trigger_fraction=data.get("trigger_fraction"),
                       hazard_self_rotation=bool(
                           data.get("hazard_self_rotation", False)),
                       segment_index=data.get("segment_index"),
                       note=data.get("note", ""))
        except (KeyError, TypeError, ValueError) as e:
            raise PlanError(f"malformed step record: {e}") from None


def plan_to_dict(steps: list[MissionStep]) -> dict:
    return {"steps": [s.to_dict() for s in steps]}


def plan_from_dict(data: dict) -> list[MissionStep]:
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise PlanError("plan document needs a 'steps' list")
    return [MissionStep.from_dict(s) for s in data["steps"]]


def plan_to_json(steps: list[MissionStep]) -> str:
    return json.dumps(plan_to_dict(steps), sort_keys=True, indent=2)


@dataclass(frozen=True)
class PlannerConfig:
    straight_speed: float = 100.0        # mm/s
    tee_trigger_fraction: float = 0.25   # of D, head depth starting the turn
    ratio_mode: RatioMode = RatioMode.GENERALIZED
    wobble_deadband_deg: float = 1.0
    rotate_rate_rad_s: float = 0.5
    sweep_phi_max_deg: float | None = None  # None: equal-bore tilt limit
    align_elbow: bool = True
    align_tee: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.straight_speed) and self.straight_speed > 0):
            raise PlanError(f"straight_speed must be > 0, got "
                            f"{self.straight_speed}")
        if not 0.0 < self.tee_trigger_fraction <= 1.0:
            raise PlanError(f"tee_trigger_fraction must lie in (0, 1], got "
                            f"{self.tee_trigger_fraction}")
        if not 0.0 <= self.wobble_deadband_deg <= 10.0:
            raise PlanError(f"wobble_deadband_deg must lie in [0, 10], got "
                            f"{self.wobble_deadband_deg}")
        if self.rotate_rate_rad_s <= 0:
            raise PlanError("rotate_rate_rad_s must be > 0")

    @property
    def deadband_rad(self) -> float:
        return math.radians(self.wobble_deadband_deg)


@functools.lru_cache(maxsize=64)
def _cached_region(d_mm: float, reach_max: float,
                   phi_max: float) -> SingularityRegion:
    return sweep_t_junction(d_mm, reach_max, phi_max)


def region_for_tee(segment: PipeSegment, cfg: PlannerConfig,
                   geom: RobotGeometry) -> SingularityRegion:
    """Singularity region governing a branch turn through this tee."""
    phi_max = (math.radians(cfg.sweep_phi_max_deg)
               if cfg.sweep_phi_max_deg is not None
               else tee_sweep_tilt_limit(segment.d_mm, segment.d_mm))
    return _cached_region(segment.d_mm, geom.reach_max, phi_max)


@functools.lru_cache(maxsize=16)
def _jacobian_inverse(geom: RobotGeometry) -> np.ndarray:
    return np.linalg.inv(jacobian(geom))


def _drive_factor(alpha_rad: float, deadband_rad: float) -> int:
    s = drive_sign(alpha_rad, deadband_rad)
    return s if s != 0 else 1


def _scaled_drive(cmd: CommandVector, factor: int) -> CommandVector:
    if factor == 1:
        return cmd
    return CommandVector(factor * cmd.theta_dot_1, factor * cmd.theta_dot_2,
                         factor * cmd.theta_dot_3, cmd.theta_dot_4)


def _avoid_no_motion(delta_deg: float, alpha0_rad: float, gain: float,
                     deadband_rad: float) -> float:
    """Nudge a roll delta whose end state would sit on the no-motion line.

    Landing the module self-rotation inside the deadband would stall every
    later drive command, so widen the roll just past the band, or shorten
    it where widening would pass +-60 deg.  The nudge is a fraction of a
    degree of roll and does not matter against the free-gap margin.
    """
    bump_deg = math.degrees(2.0 * deadband_rad + 1e-6) / gain
    for _ in range(4):
        alpha = alpha0_rad - math.radians(delta_deg) * gain
        if drive_sign(alpha, deadband_rad) != 0:
            return delta_deg
        bump = bump_deg if delta_deg >= 0 else -bump_deg
        if abs(delta_deg + bump) > 60.0:
            bump = -bump
        delta_deg += bump
    return delta_deg


def plan_straight(length_mm: float, cfg: PlannerConfig,
                  geom: RobotGeometry) -> MissionStep:
    """Equal-speed drive covering a straight run at cfg.straight_speed."""
    if not (math.isfinite(length_mm) and length_mm > 0):
        raise PlanError(f"length must be > 0, got {length_mm}")
    rate = cfg.straight_speed / geom.lug_radius_r
    return MissionStep(kind=StepKind.DRIVE,
                       command=CommandVector(rate, rate, rate, 0.0),
                       duration_s=length_mm / cfg.straight_speed)


def holonomic_rotate_step(delta_deg: float, rate_rad_s: float,
                          geom: RobotGeometry,
                          d_mm: float) -> MissionStep | None:
    """In-place roll by a signed delta (deg) at |theta_dot_4| = rate.

    Returns None for a zero delta.  |delta| must not exceed 60 deg: any
    orientation goal is within 60 deg thanks to the 120 deg module
    symmetry.  The hazard flag marks rotations whose accumulated module
    self-rotation crosses the 90 deg drive-direction line.
    """
    if rate_rad_s <= 0:
        raise PlanError(f"rotate rate must be > 0, got {rate_rad_s}")
    if abs(delta_deg) > 60.0 + 1e-6:
        raise PlanError(f"roll delta must lie within +-60 deg, got "
                        f"{delta_deg}")
    if abs(delta_deg) <= _TOL_DEG:
        return None
    self_rotation_deg = abs(delta_deg) * rolling_gain(d_mm, geom)
    return MissionStep(
        kind=StepKind.HOLONOMIC_ROTATE,
        command=CommandVector(0.0, 0.0, 0.0,
                              math.copysign(rate_rad_s, delta_deg)),
        duration_s=math.radians(abs(delta_deg)) / rate_rad_s,
        hazard_self_rotation=self_rotation_deg >= 90.0,
        note=f"roll {delta_deg:+.3f} deg")


def _rotate_and_track(delta_deg: float, cfg: PlannerConfig,
                      geom: RobotGeometry, d_mm: float, alpha0_rad: float):
    """Emit an optional rotate step; return (steps, theta5 delta, alpha)."""
    gain = rolling_gain(d_mm, geom)
    delta_deg = _avoid_no_motion(delta_deg, alpha0_rad, gain,
                                 cfg.deadband_rad)
    step = holonomic_rotate_step(delta_deg, cfg.rotate_rate_rad_s, geom, d_mm)
    if step is None:
        return [], 0.0, alpha0_rad
    alpha = alpha0_rad - math.radians(step.roll_delta_deg()) * gain
    return [step], step.roll_delta_deg(), alpha


def plan_elbow(segment: PipeSegment, theta5_deg: float, cfg: PlannerConfig,
               geom: RobotGeometry,
               alpha0_rad: float = 0.0) -> list[MissionStep]:
    """Roll a module onto the innermost curve, then drive at radii ratios.

    The two-modules-inner pose stalls against the outer wall, so the
    target is always the single-inner-module grid (theta5 = 0 mod 120);
    speeds come out proportional to module_path_radii and are normalized
    so their mean is cfg.straight_speed.
    """
    if segment.kind is not SegmentKind.ELBOW:
        raise PlanError("plan_elbow requires an elbow segment")
    delta = (signed_delta(theta5_deg, _ELBOW_TARGET_DEG, 120.0)
             if cfg.align_elbow else 0.0)
    steps, applied, alpha = _rotate_and_track(delta, cfg, geom,
                                              segment.d_mm, alpha0_rad)
    radii = module_path_radii(segment, theta5_deg + applied, cfg.ratio_mode)
    mean_radius = sum(radii) / 3.0
    if mean_radius <= 0:
        raise PlanError(f"bend radii degenerate: {radii}")
    speeds = [cfg.straight_speed * r / mean_radius for r in radii]
    factor = _drive_factor(alpha, cfg.deadband_rad)
    command = _scaled_drive(
        CommandVector(*(v / geom.lug_radius_r for v in speeds), 0.0), factor)
    steps.append(MissionStep(
        kind=StepKind.TURN_ELBOW, command=command,
        duration_s=segment.arc_length() / cfg.straight_speed))
    return steps


def _turn_rate_for_radius(speed: float, axis_xy: tuple[float, float],
                          equivalent_radius: float,
                          geom: RobotGeometry) -> float:
    """Turn rate (rad/s) whose module speeds average to R * omega.

    Module speeds are affine in omega, V_i = speed + omega * w_i with
    sum(w_i) = 0, so while all V_i stay positive the curvature radius is
    speed/omega; once the inner module reverses the radius approaches
    sum|w_i|/3 from above and radii at or below that bound are
    unreachable.
    """
    w = geom.lug_radius_r * (
        _jacobian_inverse(geom) @ np.array([axis_xy[0], axis_xy[1], 0.0, 0.0])
    )[:3]
    bound = float(np.sum(np.abs(w))) / 3.0
    if equivalent_radius <= bound + 1e-9:
        raise PlanError(
            f"equivalent radius {equivalent_radius} mm unreachable; the "
            f"differential turn bottoms out at {bound} mm")
    signs = np.ones(3)
    omega = speed / equivalent_radius
    for _ in range(4):
        omega = (speed * float(np.sum(signs))
                 / (3.0 * equivalent_radius - float(signs @ w)))
        new_signs = np.where(speed + omega * w >= 0.0, 1.0, -1.0)
        if np.array_equal(new_signs, signs):
            return omega
        signs = new_signs
    return omega


def plan_tee(segment: PipeSegment, theta5_deg: float,
             region: SingularityRegion, cfg: PlannerConfig,
             geom: RobotGeometry, with_holonomic: bool = True,
             alpha0_rad: float = 0.0) -> list[MissionStep]:
    """Negotiate a tee: roll clear of the singularity, approach, turn, exit.

    For the branch exit the roll centers the robot in the nearest free gap
    of ``region`` (skipped when already centered, or entirely when
    with_holonomic is false, which is how the failure statistics are
    collected).  The differential turn holds v_cz = cfg.straight_speed and
    sets the twist so the curvature radius equals the tee's equivalent
    radius.  For the through exit the roll straddles the branch mouth with
    two modules and the robot drives straight across.
    """
    if segment.kind is not SegmentKind.TEE:
        raise PlanError("plan_tee requires a tee segment")
    d = segment.d_mm
    speed = cfg.straight_speed
    rate = speed / geom.lug_radius_r

    if segment.exit is TeeExit.THROUGH:
        delta = (signed_delta(theta5_deg, _THROUGH_TARGET_DEG, 120.0)
                 if with_holonomic and cfg.align_tee else 0.0)
        steps, _, alpha = _rotate_and_track(delta, cfg, geom, d, alpha0_rad)
        factor = _drive_factor(alpha, cfg.deadband_rad)
        steps.append(MissionStep(
            kind=StepKind.DRIVE,
            command=_scaled_drive(CommandVector(rate, rate, rate, 0.0),
                                  factor),
            duration_s=segment.arc_length() / speed, note="cross junction"))
        return steps

    delta = 0.0
    if with_holonomic and (cfg.align_tee or in_singularity(theta5_deg,
                                                           region)):
        delta = escape_rotation(theta5_deg, region)
    steps, applied, alpha = _rotate_and_track(delta, cfg, geom, d, alpha0_rad)
    theta5 = theta5_deg + applied
    factor = _drive_factor(alpha, cfg.deadband_rad)

    approach = cfg.tee_trigger_fraction * d
    steps.append(MissionStep(
        kind=StepKind.DRIVE,
        command=_scaled_drive(CommandVector(rate, rate, rate, 0.0), factor),
        duration_s=approach / speed, note="approach junction"))

    axis = (-math.sin(math.radians(theta5)), math.cos(math.radians(theta5)))
    omega = _turn_rate_for_radius(speed, axis, segment.tee_equivalent_radius,
                                  geom)
    twist = TwistVector(omega * axis[0], omega * axis[1], 0.0, speed)
    steps.append(MissionStep(
        kind=StepKind.TURN_TEE,
        command=_scaled_drive(inverse_kinematics(twist, geom), factor),
        duration_s=(math.pi / 2.0) / omega,
        trigger="head_fraction", trigger_fraction=cfg.tee_trigger_fraction,
        note="turn into branch"))

    remainder = (segment.arc_length() - approach
                 - speed * (math.pi / 2.0) / omega)
    if remainder > 1e-9:
        steps.append(MissionStep(
            kind=StepKind.DRIVE,
            command=_scaled_drive(CommandVector(rate, rate, rate, 0.0),
                                  factor),
            duration_s=remainder / speed, note="exit junction"))
    return steps


def plan_mission(net: PipeNetwork, theta5_deg: float, cfg: PlannerConfig,
                 geom: RobotGeometry,
                 with_holonomic: bool = True) -> list[MissionStep]:
    """Schedule covering the whole network in order.

    ``theta5_deg`` is the initial roll relative to the first upcoming
    turn's plane; the planner applies the same reference shifts at segment
    boundaries the simulator does, so its predicted roll matches the
    simulated one exactly.
    """
    refs = reference_rolls(net)
    theta5 = theta5_deg
    alpha = 0.0
    steps: list[MissionStep] = []
    for i, segment in enumerate(net.segments):
        if i > 0:
            theta5 += refs[i - 1] - refs[i]
        if segment.kind is SegmentKind.STRAIGHT:
            step = plan_straight(segment.length_mm, cfg, geom)
            factor = _drive_factor(alpha, cfg.deadband_rad)
            new = [replace(step,
                           command=_scaled_drive(step.command, factor))]
        elif segment.kind is SegmentKind.ELBOW:
            new = plan_elbow(segment, theta5, cfg, geom, alpha0_rad=alpha)
        else:
            region = region_for_tee(segment, cfg, geom)
            new = plan_tee(segment, theta5, region, cfg, geom,
                           with_holonomic=with_holonomic, alpha0_rad=alpha)
        gain = rolling_gain(segment.d_mm, geom)
        for step in new:
            roll = step.roll_delta_deg()
            if roll != 0.0:
                theta5 += roll
                alpha -= math.radians(roll) * gain
        steps.extend(replace(s, segment_index=i) for s in new)
    return steps
