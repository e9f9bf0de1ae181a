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

run_mission works per mission step, not per substep.  Only a roll moves
alpha, so the drive signs are recomputed only after one, and the twist
is computed once per distinct (command object, signs) pair of the
mission: the planner hands every drive at one roll state the same
command.  Commands are keyed by identity, not equality, because equal
commands may differ in the sign of a zero, which the CSV shows.  On a
step that does not roll (theta_dot_4 == 0) the tee check runs again
only after a segment boundary.  Between two boundary crossings such a
step's whole substeps differ only in time and s: they form a block,
built in one pass with itertools.accumulate, whose sums are the scalar
path's own additions in its order, so every value is bit-identical to
it.  bisect finds the substep that crosses the next boundary; that
substep, the step's first and its last (partial) substep go through the
scalar path, which keeps the stall check and the boundary crossing.  A
roll step takes the scalar path throughout, recomputing the signs each
substep.  step is the public one-interval API; it and the scalar path
share one helper for the roll update and the segment-boundary crossing,
so both follow the same arithmetic.

run_mission returns its records as a Trajectory, stored in blocks: each
block keeps segment, theta5, the step's shared (command, twist, signs)
tuple, singular and event once, and its rows' times and arc lengths in
two flat columns (a scalar row is a block of one).  A mission therefore
keeps no object per substep for the cyclic garbage collector; kept as
objects, thousands of live records per mission reach its oldest
generation and set off a full collection every few missions.  Records
are built on indexing or iteration.  write_trajectory_csv formats a
block's constant columns once and each of its rows with two float
reprs.

theta5 is degrees in [0, 360) relative to the next upcoming turn's plane
and is shifted at segment boundaries per pipenet.reference_rolls; alpha
(module self-rotation) is radians, accumulated without wrapping.

A mission that plans no roll (no holonomic escape, and no elbow or no
elbow alignment) keeps theta5 a fixed shift of the initial roll, so its
outcome is decided at the branch-tee onsets alone: success_set gives the
initial rolls that complete as an interval set over [0, 120), and
monte_carlo_tee counts its draws in that set instead of planning and
simulating each one.  The scalar plan_mission + run_mission path stays
the reference, and decides every other mission and every draw near an
endpoint of the set.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import neg

import numpy as np

from .drive import drive_sign, roll, shift_reference, signed_drive
from .errors import PlanError, SimulationError
from .intervals import Interval, complement, normalize, wrap
from .kinematics import (CommandVector, RobotGeometry, TwistVector,
                         forward_kinematics)
from .pipenet import (PipeNetwork, PipeSegment, SegmentKind, TeeExit,
                      module_path_radii)
from .planner import (MissionStep, PlannerConfig, StepKind,
                      forward_turn_radius, plan_mission, region_for_tee)
from .singularity import ORIENTATION_PERIOD_DEG, in_singularity

__all__ = [
    "SimState", "TrajectoryRecord", "Trajectory", "MissionOutcome",
    "MonteCarloResult", "drive_sign", "step", "run_mission", "success_set",
    "monte_carlo_tee", "wilson_interval", "write_trajectory_csv",
    "TRAJECTORY_CSV_HEADER",
]

_log = logging.getLogger(__name__)

_END_TOL_MM = 1e-6
_ZERO_TOL = 1e-12
# run_mission keeps every substep record in memory
MAX_SUBSTEPS = 1_000_000
# Monte Carlo draws per chunk, so memory does not grow with the trials
_CHUNK = 4096
# draws this close to an endpoint of the success set (deg) take the scalar
# path: the band covers intervals.contains' 1e-9 slack and the rounding of
# the reference-shift chain
_GUARD_DEG = 1e-6
# two-sided 95% normal quantile
_Z95 = 1.96


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


class Trajectory(Sequence):
    """run_mission's records, one per substep, stored in blocks.

    A block is a run of rows that differ only in time_s and s_mm: it
    keeps segment, theta5, the shared (command, twist, drive signs)
    tuple, singular and event once, and its rows' times and arc lengths
    in two flat columns.  No object is kept per row or per block, so a
    long trajectory gives the cyclic garbage collector nothing to scan
    or promote while a mission runs.  Indexing and iteration build
    TrajectoryRecord values on demand.
    """

    def __init__(self):
        # per block: its first row and its constant columns
        self._start: list[int] = []
        self._segment_index: list[int] = []
        self._theta5_deg: list[float] = []
        self._drive: list[tuple] = []
        self._singular: list[bool] = []
        self._event: list[str] = []
        # per row
        self._time_s: list[float] = []
        self._s_mm: list[float] = []

    def append(self, time_s: float, segment_index: int, s_mm: float,
               theta5_deg: float, drive: tuple, singular: bool,
               event: str) -> None:
        """Add one row, as a block of its own."""
        self.extend([time_s], segment_index, [s_mm], theta5_deg, drive,
                    singular, event)

    def extend(self, times: list[float], segment_index: int,
               s_mm: list[float], theta5_deg: float, drive: tuple,
               singular: bool, event: str) -> None:
        """Add a block: one row per entry of ``times`` and ``s_mm``."""
        self._start.append(len(self._time_s))
        self._segment_index.append(segment_index)
        self._theta5_deg.append(theta5_deg)
        self._drive.append(drive)
        self._singular.append(singular)
        self._event.append(event)
        self._time_s += times
        self._s_mm += s_mm

    def blocks(self):
        """(segment_index, theta5_deg, (command, twist, drive_signs),
        singular, event, time_s list, s_mm list) per block."""
        ends = self._start[1:] + [len(self._time_s)]
        for start, end, index, theta5, drive, singular, event in zip(
                self._start, ends, self._segment_index, self._theta5_deg,
                self._drive, self._singular, self._event):
            yield (index, theta5, drive, singular, event,
                   self._time_s[start:end], self._s_mm[start:end])

    def __len__(self) -> int:
        return len(self._time_s)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        b = bisect_right(self._start, i) - 1
        cmd, twist, signs = self._drive[b]
        return TrajectoryRecord(
            self._time_s[i], self._segment_index[b], self._s_mm[i],
            self._theta5_deg[b], cmd, twist, signs, self._singular[b],
            self._event[b])

    def __iter__(self):
        for index, theta5, (cmd, twist, signs), singular, event, times, \
                ss in self.blocks():
            for t, s in zip(times, ss):
                yield TrajectoryRecord(t, index, s, theta5, cmd, twist,
                                       signs, singular, event)


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


def _advance(net: PipeNetwork, geom: RobotGeometry, index: int, s: float,
             theta5: float, alpha: tuple[float, ...], roll_rad: float
             ) -> tuple[int, float, float, tuple[float, ...], str]:
    """Roll by ``roll_rad`` on segment ``index``, then carry the advanced
    arc length ``s`` across segment boundaries in either direction.

    Crossing a boundary shifts theta5 to the next segment's turn
    reference.  Returns (index, s, theta5, alpha, event), where event
    is "end_of_network" or "start_of_network" when s was clamped there.
    """
    theta5, alpha = roll(theta5, alpha, roll_rad, net.segments[index].d_mm,
                         geom)
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
    return index, s, theta5, alpha, event


def _stay_on_segment(s: float, ds: float, m: int, length: float
                     ) -> list[float]:
    """s after each of up to ``m`` substeps of travel ``ds``, cut before
    the first that leaves the segment [0, length] beyond _ZERO_TOL.

    The sums are the scalar path's own additions in its order, so each
    value is bit-identical to it; the substep that crosses a boundary is
    left to _advance.  Only about as many sums as the distance to the
    boundary allows are formed; bisect finds the exact cut in them.
    """
    if ds > 0.0:
        room = (length + _ZERO_TOL - s) / ds
    elif ds < 0.0:
        room = (-_ZERO_TOL - s) / ds
    else:
        room = math.inf
    take = m if not room < m else min(m, int(room) + 2)
    ss = list(accumulate(repeat(ds, take), initial=s))
    if ds > 0.0:
        cut = bisect_right(ss, length + _ZERO_TOL, 1)
    elif ds < 0.0:
        cut = bisect_right(ss, _ZERO_TOL, 1, key=neg)
    else:
        cut = len(ss)
    return ss[1:cut]


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
    index, s, theta5, alpha, event = _advance(
        net, geom, state.segment_index, state.s_mm + twist.v_cz * dt,
        state.theta5_deg, state.alpha_rad, cmd.theta_dot_4 * dt)
    new_state = SimState(segment_index=index, s_mm=s, theta5_deg=theta5,
                         alpha_rad=alpha, time_s=state.time_s + dt)
    record = TrajectoryRecord(
        time_s=new_state.time_s, segment_index=index, s_mm=s,
        theta5_deg=theta5, command=cmd, twist=twist, drive_signs=signs,
        singular=_tee_singular(net.segments[index], theta5, cfg, geom),
        event=event)
    return new_state, record


def run_mission(net: PipeNetwork, plan: list[MissionStep],
                cfg: PlannerConfig, geom: RobotGeometry,
                theta5_deg: float = 0.0, dt: float | None = 0.01
                ) -> tuple[MissionOutcome, Trajectory]:
    """Execute a step schedule along the network.

    At each tee-turn onset the singularity predicate decides survival: a
    robot starting the turn inside the region has lost a contact and the
    mission fails there.  Mid-turn violations (possible only if the turn
    reference shifts under the robot) are recorded as singular_mid_turn
    events without aborting, since the physical outcome is not modeled.
    dt=None integrates each step in a single exact substep.  Plans
    needing more than MAX_SUBSTEPS substeps in all raise SimulationError
    before any integration, and a non-finite ``theta5_deg`` raises
    PlanError.
    """
    for item in plan:
        if not isinstance(item, MissionStep):
            raise SimulationError(f"plan contains a non-step entry: {item!r}")
    if dt is not None and not (dt > 0 and math.isfinite(dt)):
        raise SimulationError(f"dt must be > 0, got {dt}")
    if not math.isfinite(theta5_deg):
        raise PlanError(f"theta5_deg must be finite, got {theta5_deg}")
    # counted before integrating; min() keeps ceil() from overflowing
    substeps = [1 if dt is None else max(1, math.ceil(
        min(mstep.duration_s / dt, MAX_SUBSTEPS + 1) - 1e-12))
        for mstep in plan]
    if sum(substeps) > MAX_SUBSTEPS:
        raise SimulationError(f"dt={dt} needs over {MAX_SUBSTEPS} substeps")
    index, s, theta5 = 0, 0.0, wrap(theta5_deg, 360.0)
    alpha, t = (0.0, 0.0, 0.0), 0.0
    records = Trajectory()
    events: list[str] = []
    failure: str | None = None
    done = False
    deadband = cfg.deadband_rad
    # (id(command), signs) -> (command, twist, signs); the plan keeps every
    # command alive, so an id stays unique
    drives: dict[tuple, tuple] = {}
    signs = signed_alpha = None

    for mstep, n in zip(plan, substeps):
        cmd = mstep.command
        if (mstep.kind is StepKind.TURN_TEE
                and _tee_singular(net.segments[index], theta5, cfg, geom)):
            events.append("singularity_at_turn_onset")
            records.append(t, index, s, theta5,
                           (cmd, TwistVector(0.0, 0.0, 0.0, 0.0), (0, 0, 0)),
                           True, "singularity_at_turn_onset")
            failure = "singularity"
            break

        # alpha moves only while the robot rolls; elsewhere the signs, the
        # twist and, between boundary crossings, the tee check hold
        rolling = cmd.theta_dot_4 != 0.0
        stall_check = (mstep.kind is not StepKind.HOLONOMIC_ROTATE
                       and max(abs(cmd.theta_dot_1), abs(cmd.theta_dot_2),
                               abs(cmd.theta_dot_3)) > _ZERO_TOL)
        drive = checked_index = None
        duration = mstep.duration_s
        h_regular = duration if dt is None else dt
        k = 0
        while k < n:
            if drive is not None and not rolling and k < n - 1:
                # the whole substeps up to the next boundary crossing form
                # one block: only time and s change along it
                ss = _stay_on_segment(float(s), float(v_cz * h_regular),
                                      n - 1 - k,
                                      net.segments[index].arc_length())
                if ss:
                    # theta5 and alpha hold: the step's first substep has
                    # made its zero roll, and a crossing shifts theta5
                    # only to values that roll leaves as they are
                    times = list(accumulate(repeat(float(h_regular),
                                                   len(ss)),
                                            initial=float(t)))
                    del times[0]
                    t, s = times[-1], ss[-1]
                    event = ("singular_mid_turn"
                             if mstep.kind is StepKind.TURN_TEE and singular
                             else "")
                    if event and event not in events:
                        events.append(event)
                    records.extend(times, index, ss, theta5, drive, singular,
                                   event)
                    k += len(ss)
                    continue
            h = h_regular if k < n - 1 else duration - h_regular * (n - 1)
            first = k == 0
            k += 1
            if n > 1 and k == n and h <= 1e-15:
                continue  # the rounding remainder of a multi-substep step
            if alpha is not signed_alpha:
                # only a roll replaces alpha
                signs = (drive_sign(alpha[0], deadband),
                         drive_sign(alpha[1], deadband),
                         drive_sign(alpha[2], deadband))
                signed_alpha = alpha
                drive = None
            if drive is None:
                # a step that drives while it rolls changes its twist
                # whenever a module crosses a 90 deg drive line
                key = (id(cmd), signs)
                drive = drives.get(key)
                if drive is None:
                    drive = drives[key] = (cmd, forward_kinematics(
                        signed_drive(cmd, signs), geom), signs)
                v_cz = drive[1].v_cz
            index, s, theta5, alpha, event = _advance(
                net, geom, index, s + v_cz * h, theta5, alpha,
                cmd.theta_dot_4 * h)
            t = t + h
            if rolling or index != checked_index:
                singular = _tee_singular(net.segments[index], theta5, cfg,
                                         geom)
                checked_index = index
            if first and stall_check and abs(v_cz) < _ZERO_TOL:
                records.append(t, index, s, theta5, drive, singular,
                               "no_forward_progress")
                events.append("no_forward_progress")
                failure = "no_forward_progress"
                break
            if mstep.kind is StepKind.TURN_TEE and singular:
                event = "singular_mid_turn"
            if event and event not in events:
                events.append(event)
            records.append(t, index, s, theta5, drive, singular, event)
            if event == "end_of_network":
                done = True
                break
        if failure is not None or done:
            break

    if failure is not None:
        outcome = MissionOutcome(False, failure, t, tuple(events))
    elif (index == len(net.segments) - 1
          and s >= net.segments[-1].arc_length() - _END_TOL_MM):
        outcome = MissionOutcome(True, "completed", t, tuple(events))
    else:
        outcome = MissionOutcome(False, "incomplete", t, tuple(events))
    return outcome, records


def _completes(net: PipeNetwork, theta5_deg: float, cfg: PlannerConfig,
               geom: RobotGeometry, with_holonomic: bool) -> bool:
    """One scalar trial: plan and simulate from this initial roll."""
    plan = plan_mission(net, theta5_deg, cfg, geom,
                        with_holonomic=with_holonomic)
    outcome, _ = run_mission(net, plan, cfg, geom, theta5_deg=theta5_deg,
                             dt=None)
    return outcome.success


def _branch_tee(segment: PipeSegment) -> bool:
    return segment.kind is SegmentKind.TEE and segment.exit is TeeExit.BRANCH


def _uncovered(net: PipeNetwork, cfg: PlannerConfig, geom: RobotGeometry,
               with_holonomic: bool) -> str | None:
    """Why success_set cannot derive this mission's set; None if it can."""
    if with_holonomic:
        return "the holonomic escape is enabled"
    for segment in net.segments:
        if segment.kind is SegmentKind.ELBOW:
            if cfg.align_elbow:
                return "an elbow is aligned by a roll"
            if min(module_path_radii(segment, 0.0, cfg.ratio_mode)) <= 0.0:
                return "an elbow is tighter than its bore"
        elif _branch_tee(segment):
            radius = segment.tee_equivalent_radius
            if radius <= forward_turn_radius(geom) + 1e-9:
                return "a tee turn can reverse a module"
            if cfg.tee_trigger_fraction > 0.5:
                return "a tee turn can run past its junction"
    return None


def success_set(net: PipeNetwork, cfg: PlannerConfig, geom: RobotGeometry,
                with_holonomic: bool) -> list[Interval] | None:
    """Initial rolls in [0, 120) deg whose mission completes, or None.

    Covers every mission that plans no roll: ``with_holonomic`` is false
    and the network has no elbow or ``cfg.align_elbow`` is false.  Then
    theta5 at each branch-tee onset is the initial roll plus C_i, the
    drive.shift_reference chain evaluated from 0, and the mission fails
    exactly when some onset lies in that tee's orientation_forbidden_set.
    The result is the complement of the union of those sets shifted by
    -C_i, as a canonical interval set; measure(set) / 120 is the exact
    success probability.

    Returns None for missions that roll (after a roll theta5 no longer
    follows the initial roll), for turns whose plan depends on the roll
    (an elbow tighter than its bore, a tee turn that can reverse a module
    or that can run past its junction), and when a scalar trial in the
    widest piece on either side disagrees with the set.  Those trials
    also raise any error the planner raises for every roll.  The reason
    for None is logged at DEBUG.
    """
    reason = _uncovered(net, cfg, geom, with_holonomic)
    if reason is None:
        forbidden: list[Interval] = []
        shift = 0.0
        for i, segment in enumerate(net.segments):
            if i > 0:
                shift = shift_reference(shift, net, i - 1, i)
            if _branch_tee(segment):
                region = region_for_tee(segment, cfg, geom)
                forbidden += [(lo - shift, hi - shift)
                              for lo, hi in region.orientation_forbidden_set]
        failing = normalize(forbidden, ORIENTATION_PERIOD_DEG)
        succeeding = normalize(complement(failing, ORIENTATION_PERIOD_DEG),
                               ORIENTATION_PERIOD_DEG)
        for pieces, completes in ((succeeding, True), (failing, False)):
            if pieces:
                lo, hi = max(pieces, key=lambda piece: piece[1] - piece[0])
                if _completes(net, (lo + hi) / 2.0, cfg, geom,
                              False) is not completes:
                    reason = "a scalar trial disagrees with the derived set"
    if reason is not None:
        _log.debug("no success set: %s", reason)
        return None
    return succeeding


def _count_successes(net: PipeNetwork, thetas: np.ndarray,
                     succeeding: list[Interval] | None, cfg: PlannerConfig,
                     geom: RobotGeometry, with_holonomic: bool
                     ) -> tuple[int, int]:
    """(successes, draws run through the scalar path) among ``thetas``.

    With a success set, one searchsorted over its endpoints, padded with
    a neighbour across the 0/120 seam on each side, gives each draw in
    [0, 120) its parity and its two nearest endpoints; only draws within
    the guard band of an endpoint run the scalar trial.
    """
    if succeeding == []:
        return 0, 0
    successes = 0
    if succeeding is not None:
        ends = np.asarray(succeeding, dtype=float).ravel()
        padded = np.concatenate(([ends[-1] - ORIENTATION_PERIOD_DEG], ends,
                                 [ends[0] + ORIENTATION_PERIOD_DEG]))
        j = np.searchsorted(padded, thetas, side="right")
        near = np.minimum(thetas - padded[j - 1],
                          padded[j] - thetas) < _GUARD_DEG
        # j - 1 endpoints lie at or below a draw; an odd count is inside
        successes = int(np.count_nonzero((j % 2 == 0) & ~near))
        thetas = thetas[near]
    for theta5 in thetas:
        successes += _completes(net, float(theta5), cfg, geom,
                                with_holonomic)
    return successes, len(thetas)


def monte_carlo_tee(net: PipeNetwork, cfg: PlannerConfig,
                    geom: RobotGeometry, trials: int, seed: int,
                    with_holonomic: bool) -> MonteCarloResult:
    """Success statistics over uniformly random initial rolls.

    Each trial draws theta5 from [0, 120) deg (the roll symmetry period);
    the rate comes with a 95% Wilson score interval (wilson_interval).
    Draws come in chunks of 4096 from one generator, the same stream as
    a single draw, so memory stays flat in ``trials``.

    Where success_set covers the mission (no roll planned), a draw counts
    as a success when it lies in the set, found by one searchsorted per
    chunk; draws within 1e-6 deg of an endpoint still plan and simulate.
    Elsewhere every trial plans the mission, with or without the
    holonomic escape, and simulates it in a single exact substep per
    step.  Both give the same count draw for draw.  The split between
    the two paths is logged at DEBUG.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    succeeding = success_set(net, cfg, geom, with_holonomic)
    successes = scalar = 0
    for start in range(0, trials, _CHUNK):
        thetas = rng.uniform(0.0, ORIENTATION_PERIOD_DEG,
                             size=min(_CHUNK, trials - start))
        hits, ran = _count_successes(net, thetas, succeeding, cfg, geom,
                                     with_holonomic)
        successes += hits
        scalar += ran
    _log.debug("monte_carlo_tee: %d of %d draws decided by the success set, "
               "%d by plan_mission + run_mission", trials - scalar, trials,
               scalar)
    ci_low, ci_high = wilson_interval(successes, trials)
    return MonteCarloResult(
        success_rate=successes / trials, ci_low=ci_low, ci_high=ci_high,
        trials=trials, successes=successes, seed=seed,
        with_holonomic=with_holonomic)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate.

    Brown, Cai & DasGupta (2001).  Unlike the normal approximation it
    keeps a positive width at 0 and at ``trials`` successes.  The upper
    bound is one minus the lower bound of the failures, so the interval
    is symmetric under swapping successes and failures and reaches 0 and
    1 exactly.
    """
    z2n = _Z95 * _Z95 / trials

    def lower(k: int) -> float:
        if k == 0:
            return 0.0
        p = k / trials
        return ((p + z2n / 2.0 - _Z95 * math.sqrt(
            p * (1.0 - p) / trials + z2n / (4.0 * trials))) / (1.0 + z2n))

    return lower(successes), 1.0 - lower(trials - successes)


TRAJECTORY_CSV_HEADER = ("time_s,segment,s_mm,theta5_deg,th1,th2,th3,th4,"
                         "wx,wy,wz,vcz,sign1,sign2,sign3,singular,event")


def write_trajectory_csv(records: Iterable[TrajectoryRecord], path) -> None:
    """Write records as CSV, one row per integration substep.

    Floats are repr-rounded (shortest round-trip form), so identical runs
    produce byte-identical files.  A Trajectory is written block by
    block, without building its records: the columns a block holds once
    are formatted once into a row template, each row adds the reprs of
    its time and arc length, and the block goes out in one write.  The
    command, twist and sign columns are formatted once per run of blocks
    sharing those objects, as the blocks of one mission step do.  Other
    records are written one row per block.
    """
    blocks = (records.blocks() if isinstance(records, Trajectory) else
              ((r.segment_index, r.theta5_deg,
                (r.command, r.twist, r.drive_signs), r.singular, r.event,
                (r.time_s,), (r.s_mm,)) for r in records))
    with open(path, "w", newline="") as f:
        f.write(TRAJECTORY_CSV_HEADER + "\n")
        last = middle = None
        for index, theta5, drive, singular, event, times, ss in blocks:
            c, t, signs = drive
            # by identity: an equal twist may differ in the sign of a zero
            if last is None or not (c is last[0] and t is last[1]
                                    and signs == last[2]):
                last = drive
                middle = ",".join(
                    [repr(float(x)) for x in (
                        c.theta_dot_1, c.theta_dot_2, c.theta_dot_3,
                        c.theta_dot_4, t.omega_x, t.omega_y, t.omega_z,
                        t.v_cz)]
                    + [str(sign) for sign in signs])
            # an f-string row template formats faster than str.format
            head = f",{index},"
            tail = f",{float(theta5)!r},{middle},{int(singular)},{event}\n"
            f.write("".join([f"{time_s!r}{head}{s_mm!r}{tail}"
                             for time_s, s_mm in zip(map(float, times),
                                                     map(float, ss))]))


def outcome_to_json(outcome: MissionOutcome) -> str:
    return json.dumps(outcome.to_dict(), sort_keys=True, indent=2)
