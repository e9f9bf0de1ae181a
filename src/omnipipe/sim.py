"""Kinematic mission simulator.

Pose is tracked intrinsically as (segment index, arc length s, roll
theta5): the robot is wall-pressed and centered, so the centerline plus a
roll angle is the whole configuration.  Commands map to twists through
the kinematics Jacobian after each module's drive rate is multiplied by
its drive sign (see the drive module, whose rules also move theta5 and
alpha): rolling the robot counter-rotates the modules, and modules past
90 deg of self-rotation stop or reverse.

Integration is explicit Euler, which is exact here: planner schedules are
piecewise constant, so within a step every state rate is constant.
run_mission therefore splits each step into whole dt substeps plus one
final partial substep and lands on step boundaries exactly; results are
independent of dt down to float rounding, and Monte-Carlo runs may use
one substep per step without loss.

theta5 is degrees in [0, 360) relative to the next upcoming turn's plane
and is shifted at segment boundaries per pipenet.reference_rolls; alpha
(module self-rotation) is radians, accumulated without wrapping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .drive import drive_sign, roll, shift_reference, signed_drive
from .errors import SimulationError
from .intervals import wrap
from .kinematics import (CommandVector, RobotGeometry, TwistVector,
                         forward_kinematics)
from .pipenet import PipeNetwork, PipeSegment, SegmentKind
from .planner import (MissionStep, PlannerConfig, StepKind, plan_mission,
                      region_for_tee)
from .singularity import in_singularity

__all__ = [
    "SimState", "TrajectoryRecord", "MissionOutcome", "MonteCarloResult",
    "drive_sign", "step", "run_mission", "monte_carlo_tee",
    "write_trajectory_csv", "TRAJECTORY_CSV_HEADER",
]

_END_TOL_MM = 1e-6
_ZERO_TOL = 1e-12
# run_mission keeps every substep record in memory
MAX_SUBSTEPS = 1_000_000


@dataclass(frozen=True)
class SimState:
    segment_index: int = 0
    s_mm: float = 0.0
    theta5_deg: float = 0.0
    alpha_rad: tuple[float, float, float] = (0.0, 0.0, 0.0)
    time_s: float = 0.0


@dataclass(frozen=True)
class TrajectoryRecord:
    time_s: float
    segment_index: int
    s_mm: float
    theta5_deg: float
    command: CommandVector
    twist: TwistVector
    drive_signs: tuple[int, int, int]
    singular: bool
    event: str = ""


@dataclass(frozen=True)
class MissionOutcome:
    success: bool
    reason: str  # completed | singularity | no_forward_progress | incomplete
    time_s: float
    events: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"success": self.success, "reason": self.reason,
                "time_s": self.time_s, "events": list(self.events)}


@dataclass(frozen=True)
class MonteCarloResult:
    success_rate: float
    ci_low: float
    ci_high: float
    trials: int
    successes: int
    seed: int
    with_holonomic: bool

    def to_dict(self) -> dict:
        return {"success_rate": self.success_rate, "ci_low": self.ci_low,
                "ci_high": self.ci_high, "trials": self.trials,
                "successes": self.successes, "seed": self.seed,
                "with_holonomic": self.with_holonomic}


def _tee_singular(segment: PipeSegment, theta5_deg: float,
                  cfg: PlannerConfig, geom: RobotGeometry) -> bool:
    """True when the robot is on a tee at a roll inside its region."""
    return (segment.kind is SegmentKind.TEE
            and in_singularity(theta5_deg, region_for_tee(segment, cfg, geom)))


def step(state: SimState, cmd: CommandVector, dt: float, net: PipeNetwork,
         geom: RobotGeometry, cfg: PlannerConfig | None = None
         ) -> tuple[SimState, TrajectoryRecord]:
    """Advance one interval of constant command.

    Drive rates are multiplied by each module's drive sign (deadband
    from ``cfg``, default PlannerConfig()) before the forward map.  s
    follows v_cz along the centerline with segment carry-over in both
    directions; crossing a boundary shifts theta5 to the next segment's
    turn reference.  Exact for constant commands at any dt > 0.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise SimulationError(f"dt must be > 0, got {dt}")
    if cfg is None:
        cfg = PlannerConfig()
    signs = tuple(drive_sign(a, cfg.deadband_rad) for a in state.alpha_rad)
    twist = forward_kinematics(signed_drive(cmd, signs), geom)

    index = state.segment_index
    s = state.s_mm + twist.v_cz * dt
    theta5, alpha = roll(state.theta5_deg, state.alpha_rad,
                         cmd.theta_dot_4 * dt, net.segments[index].d_mm, geom)

    event = ""
    while s > net.segments[index].arc_length() + _ZERO_TOL:
        if index + 1 >= len(net.segments):
            s = net.segments[index].arc_length()
            event = "end_of_network"
            break
        s -= net.segments[index].arc_length()
        index += 1
        theta5 = shift_reference(theta5, net, index - 1, index)
    while s < -_ZERO_TOL:
        if index == 0:
            s = 0.0
            event = "start_of_network"
            break
        index -= 1
        theta5 = shift_reference(theta5, net, index + 1, index)
        s += net.segments[index].arc_length()

    new_state = SimState(segment_index=index, s_mm=s, theta5_deg=theta5,
                         alpha_rad=alpha, time_s=state.time_s + dt)
    record = TrajectoryRecord(
        time_s=new_state.time_s, segment_index=index, s_mm=s,
        theta5_deg=theta5, command=cmd, twist=twist, drive_signs=signs,
        singular=_tee_singular(net.segments[index], theta5, cfg, geom),
        event=event)
    return new_state, record


def _at_network_end(state: SimState, net: PipeNetwork) -> bool:
    return (state.segment_index == len(net.segments) - 1
            and state.s_mm >= net.segments[-1].arc_length() - _END_TOL_MM)


def run_mission(net: PipeNetwork, plan: list[MissionStep],
                cfg: PlannerConfig, geom: RobotGeometry,
                theta5_deg: float = 0.0, dt: float | None = 0.01
                ) -> tuple[MissionOutcome, list[TrajectoryRecord]]:
    """Execute a step schedule along the network.

    At each tee-turn onset the singularity predicate decides survival: a
    robot starting the turn inside the region has lost a contact and the
    mission fails there.  Mid-turn violations (possible only if the turn
    reference shifts under the robot) are recorded as singular_mid_turn
    events without aborting, since the physical outcome is not modeled.
    dt=None integrates each step in a single exact substep.  Plans
    needing more than MAX_SUBSTEPS substeps in all raise SimulationError
    before any integration.
    """
    for item in plan:
        if not isinstance(item, MissionStep):
            raise SimulationError(f"plan contains a non-step entry: {item!r}")
    if dt is not None and not (dt > 0 and math.isfinite(dt)):
        raise SimulationError(f"dt must be > 0, got {dt}")
    # counted before integrating; min() keeps ceil() from overflowing
    substeps = [1 if dt is None else max(1, math.ceil(
        min(mstep.duration_s / dt, MAX_SUBSTEPS + 1) - 1e-12))
        for mstep in plan]
    if sum(substeps) > MAX_SUBSTEPS:
        raise SimulationError(f"dt={dt} needs over {MAX_SUBSTEPS} substeps")
    state = SimState(theta5_deg=wrap(theta5_deg, 360.0))
    records: list[TrajectoryRecord] = []
    events: list[str] = []
    failure: str | None = None

    for mstep, n in zip(plan, substeps):
        if (mstep.kind is StepKind.TURN_TEE
                and _tee_singular(net.segments[state.segment_index],
                                  state.theta5_deg, cfg, geom)):
            events.append("singularity_at_turn_onset")
            records.append(TrajectoryRecord(
                time_s=state.time_s, segment_index=state.segment_index,
                s_mm=state.s_mm, theta5_deg=state.theta5_deg,
                command=mstep.command, twist=TwistVector(0.0, 0.0, 0.0, 0.0),
                drive_signs=(0, 0, 0), singular=True,
                event="singularity_at_turn_onset"))
            failure = "singularity"
            break

        duration = mstep.duration_s
        h_regular = duration if dt is None else dt
        done = False
        for k in range(n):
            h = h_regular if k < n - 1 else duration - h_regular * (n - 1)
            if h <= 1e-15:
                continue
            state, record = step(state, mstep.command, h, net, geom, cfg)
            if (k == 0 and mstep.kind is not StepKind.HOLONOMIC_ROTATE
                    and abs(record.twist.v_cz) < _ZERO_TOL
                    and max(abs(mstep.command.theta_dot_1),
                            abs(mstep.command.theta_dot_2),
                            abs(mstep.command.theta_dot_3)) > _ZERO_TOL):
                record = replace(record, event="no_forward_progress")
                records.append(record)
                events.append("no_forward_progress")
                failure = "no_forward_progress"
                done = True
                break
            if mstep.kind is StepKind.TURN_TEE and record.singular:
                record = replace(record, event="singular_mid_turn")
                if "singular_mid_turn" not in events:
                    events.append("singular_mid_turn")
            if record.event and record.event not in events:
                events.append(record.event)
            records.append(record)
            if record.event == "end_of_network":
                done = True
                break
        if failure is not None or done:
            break

    if failure is not None:
        outcome = MissionOutcome(False, failure, state.time_s, tuple(events))
    elif _at_network_end(state, net):
        outcome = MissionOutcome(True, "completed", state.time_s,
                                 tuple(events))
    else:
        outcome = MissionOutcome(False, "incomplete", state.time_s,
                                 tuple(events))
    return outcome, records


def monte_carlo_tee(net: PipeNetwork, cfg: PlannerConfig,
                    geom: RobotGeometry, trials: int, seed: int,
                    with_holonomic: bool) -> MonteCarloResult:
    """Success statistics over uniformly random initial rolls.

    Each trial draws theta5 from [0, 120) deg (the roll symmetry period),
    plans the mission with or without the holonomic escape, and simulates
    it; the rate comes with a 95% normal-approximation binomial interval.
    Trials use a single exact substep per step, so the count is cheap and
    the result identical to any finer dt.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 120.0, size=trials)
    successes = 0
    for theta5 in thetas:
        plan = plan_mission(net, float(theta5), cfg, geom,
                            with_holonomic=with_holonomic)
        outcome, _ = run_mission(net, plan, cfg, geom,
                                 theta5_deg=float(theta5), dt=None)
        successes += outcome.success
    p = successes / trials
    sigma = math.sqrt(p * (1.0 - p) / trials)
    return MonteCarloResult(
        success_rate=p,
        ci_low=max(0.0, p - 1.96 * sigma),
        ci_high=min(1.0, p + 1.96 * sigma),
        trials=trials, successes=successes, seed=seed,
        with_holonomic=with_holonomic)


TRAJECTORY_CSV_HEADER = ("time_s,segment,s_mm,theta5_deg,th1,th2,th3,th4,"
                         "wx,wy,wz,vcz,sign1,sign2,sign3,singular,event")


def write_trajectory_csv(records: list[TrajectoryRecord], path) -> None:
    """Write records as CSV, one row per integration substep.

    Floats are repr-rounded (shortest round-trip form), so identical runs
    produce byte-identical files.
    """
    with open(path, "w", newline="") as f:
        f.write(TRAJECTORY_CSV_HEADER + "\n")
        for r in records:
            c, t = r.command, r.twist
            row = [repr(float(r.time_s)), str(r.segment_index),
                   repr(float(r.s_mm)), repr(float(r.theta5_deg)),
                   repr(float(c.theta_dot_1)), repr(float(c.theta_dot_2)),
                   repr(float(c.theta_dot_3)), repr(float(c.theta_dot_4)),
                   repr(float(t.omega_x)), repr(float(t.omega_y)),
                   repr(float(t.omega_z)), repr(float(t.v_cz)),
                   str(r.drive_signs[0]), str(r.drive_signs[1]),
                   str(r.drive_signs[2]), str(int(r.singular)), r.event]
            f.write(",".join(row) + "\n")


def outcome_to_json(outcome: MissionOutcome) -> str:
    return json.dumps(outcome.to_dict(), sort_keys=True, indent=2)
