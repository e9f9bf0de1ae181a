"""Kinematic mission simulator.

Pose is tracked intrinsically as (segment index, arc length s, roll
theta5): the robot is wall-pressed and centered, so the centerline plus a
roll angle is the whole configuration.  Commands map to twists through
the kinematics Jacobian after the chain drive rates are multiplied by
the drive sign (see the drive module, whose rules also move theta5 and
alpha): rolling the robot counter-rotates the modules together, by one
self-rotation alpha, and past 90 deg of it they stop or reverse.

Integration is explicit Euler, which is exact here: planner schedules are
piecewise constant, so within a step every state rate is constant.
run_mission therefore splits each step into whole dt substeps plus one
final partial substep and lands on step boundaries exactly; results are
independent of dt down to float rounding, and Monte-Carlo runs may use
one substep per step without loss.

run_mission works per mission step, not per substep.  The drive sign
comes from drive.drive_sign, which keeps it per alpha, and the twist
is looked up again only when it changes.  Values that are the same for
every mission come from memos instead of being computed per step:

- segment arc lengths from PipeNetwork.arc_lengths, computed once per
  network;
- each tee's singularity region from planner.region_for_tee, which
  reads the memoised singularity.sweep_t_junction;
- one twist per (command, drive sign, geometry) from _twist, a bounded
  lru_cache shared by all missions.  Its key is exact: each twist
  component is summed from +0.0, so commands that compare equal, zeros
  of either sign included, give equal bits.  Each record keeps its
  step's own command, whose zero signs the CSV shows.

After a step's first substep, its whole substeps that move s or roll,
not both, come from one block builder, _block: within a block only time and
either s or theta5 and alpha change, each formed in one pass with
itertools.accumulate (drive.roll_sums on a roll) from the scalar path's
own additions in its order, so every value is bit-identical to it.  A
block ends before the first of four cuts: a segment-boundary crossing,
a theta5 wrap, a tee-check flip and a drive-sign change.  Each lies
near a known line: -tol and length + tol in s, 360 k and 60 k +- h in
theta5, (k + 1/2) pi +- deadband in alpha.  The nearest line bounds the
sums formed, bisect finds the entries short of it, and the predicate
itself checks at most a few more.  The cut substep, the step's first
and its last (partial) substep take the scalar path, which keeps the
stall check and the boundary crossing; so does every substep of a step
that drives while it rolls (the planner emits none).  step is the
public one-interval API; it and the scalar path share one helper for
the roll update and the segment-boundary crossing, so both follow the
same arithmetic.

run_mission returns its records as a Trajectory, stored in blocks: each
block keeps segment, singular and event once, plus theta5 on a drive
block or s on a roll block, in one tuple of plain values; the step's
shared (command, twist, sign) tuple in a parallel list; and its rows'
times and their arc lengths or theta5 values in two flat columns.  Every
row goes in through Trajectory.extend, a scalar row as a block of one.
The cyclic garbage collector untracks a tuple of plain values the first
time it sees it, so a mission keeps no collector object per substep;
kept as objects, thousands of live records per mission reach its oldest
generation and set off a full collection every few missions.  Records
are built on indexing or iteration.  write_trajectory_csv formats a
block's constant columns once and each of its rows with two float
reprs.

theta5 is degrees in [0, 360) relative to the next upcoming turn's plane
and is shifted at segment boundaries per pipenet.reference_rolls; alpha
(the self-rotation all three modules share) is radians, accumulated
without wrapping.

A mission that plans no roll (no holonomic escape, which also skips the
elbow alignment) keeps theta5 a fixed shift of the initial roll, so its
outcome is decided at the branch-tee onsets alone: success_set gives the
initial rolls that complete as an interval set over [0, 120), and
monte_carlo_tee counts its draws in that set instead of planning and
simulating each one.  The scalar plan_mission + run_mission path stays
the reference, and decides every other mission and every draw near an
endpoint of the set.  The set, with its two spot-check missions, is
derived once per (net, cfg, geom, with_holonomic) and kept in a bounded
lru_cache, so repeated Monte Carlo calls on one mission share it; the
memo also keeps the set's endpoints as the array monte_carlo_tee
searches.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter, neg

import numpy as np

from .drive import (drive_sign, roll, roll_sums, rolling_gain,
                    shift_reference, signed_drive)
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
# run_mission's and the simulate command's integration substep, s
DEFAULT_DT_S = 0.01
# monte_carlo_tee's trial limit, 1000 times the 10^5 trials of acceptance
# criterion 7; the trials of a mission that rolls take ~0.4 ms each
MAX_TRIALS = 10 ** 8
# Monte Carlo draws per chunk, so memory does not grow with the trials
_CHUNK = 4096
# draws this close to an endpoint of the success set (deg) take the scalar
# path: the band covers in_singularity's 1e-9 slack and the rounding of
# the reference-shift chain
_GUARD_DEG = 1e-6
# A drive sign can change only near a line (k + 1/2) pi +- deadband (rad)
# and the tee check only near 60 k +- h (deg), k any integer.  Farther
# than _LINE_MARGIN * (1 + |x|) from every line, each predicate returns
# what exact arithmetic would (the margin also covers in_singularity's
# 1e-9 deg of slack), so its value holds up to the next line.
_LINE_MARGIN = 1e-8
_TEE_LINES_DEG = ORIENTATION_PERIOD_DEG / 2.0
# entries past that bound that the predicate itself checks, per block
_WALK = 8
# two-sided 95% normal quantile
_Z95 = 1.96


@dataclass(frozen=True)
class SimState:
    segment_index: int = 0
    s_mm: float = 0.0
    theta5_deg: float = 0.0
    alpha_rad: float = 0.0
    time_s: float = 0.0


@dataclass(frozen=True)
class TrajectoryRecord:
    time_s: float
    segment_index: int
    s_mm: float
    theta5_deg: float
    command: CommandVector
    twist: TwistVector
    drive_sign: int
    singular: bool
    event: str = ""


class Trajectory(Sequence):
    """run_mission's records, one per substep, stored in blocks.

    A block is a run of rows that share segment, the (command, twist,
    drive sign) tuple, singular and event, and differ in time_s and in
    one of s_mm and theta5_deg.  A drive block keeps theta5 once and one
    s per row; a roll block keeps s once and one theta5 per row.  Each
    block keeps its constant columns once, in one tuple of plain values,
    its drive tuple in a parallel list, and its rows' times and varying
    values in two flat columns (a scalar row is a drive block of one).
    The cyclic garbage collector untracks a tuple of plain values the
    first time it sees it, and a step's blocks share its drive tuple, so
    a long trajectory gives the collector nothing to scan or promote per
    row or per block.  Indexing and iteration build TrajectoryRecord
    values on demand.
    """

    def __init__(self):
        # per block: (first row, rolls, segment_index, fixed, singular,
        # event), where fixed is theta5_deg on a drive block and s_mm on a
        # roll block; its (command, twist, drive_sign) tuple is kept apart,
        # so that the block tuple holds plain values only
        self._blocks: list[tuple] = []
        self._drive: list[tuple] = []
        # per row: time_s, and s_mm on a drive block or theta5_deg on a
        # roll block
        self._time_s: list[float] = []
        self._varying: list[float] = []

    def extend(self, rolls: bool, times: Sequence[float], segment_index: int,
               fixed: float, varying: Sequence[float], drive: tuple,
               singular: bool, event: str) -> None:
        """Add a block: one row per entry of ``times`` and ``varying``,
        which holds s_mm on a drive block (``rolls`` false) and theta5_deg
        on a roll block; ``fixed`` is the other one."""
        self._blocks.append((len(self._time_s), rolls, segment_index, fixed,
                             singular, event))
        self._drive.append(drive)
        self._time_s += times
        self._varying += varying

    def blocks(self):
        """(rolls, segment_index, fixed, (command, twist, drive_sign),
        singular, event, time_s list, varying list) per block, where
        fixed and varying are theta5_deg and s_mm on a drive block
        (rolls False), and s_mm and theta5_deg on a roll block."""
        ends = [block[0] for block in self._blocks[1:]] + [len(self)]
        for (start, rolls, index, fixed, singular, event), drive, end in zip(
                self._blocks, self._drive, ends):
            yield (rolls, index, fixed, drive, singular, event,
                   self._time_s[start:end], self._varying[start:end])

    def __len__(self) -> int:
        return len(self._time_s)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        b = bisect_right(self._blocks, i, key=itemgetter(0)) - 1
        _, rolls, index, fixed, singular, event = self._blocks[b]
        cmd, twist, sign = self._drive[b]
        s, theta5 = (fixed, self._varying[i]) if rolls else (
            self._varying[i], fixed)
        return TrajectoryRecord(self._time_s[i], index, s, theta5, cmd, twist,
                                sign, singular, event)

    def __iter__(self):
        for rolls, index, fixed, (cmd, twist, sign), singular, event, \
                times, varying in self.blocks():
            for t, x in zip(times, varying):
                s, theta5 = (fixed, x) if rolls else (x, fixed)
                yield TrajectoryRecord(t, index, s, theta5, cmd, twist,
                                       sign, singular, event)


@dataclass(frozen=True, slots=True)
class MissionOutcome:
    success: bool
    reason: str  # completed | singularity | no_forward_progress | incomplete
    time_s: float
    events: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"success": self.success, "reason": self.reason,
                "time_s": self.time_s, "events": list(self.events)}


@dataclass(frozen=True, slots=True)
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


def _tee_singular(net: PipeNetwork, index: int, theta5_deg: float,
                  cfg: PlannerConfig, geom: RobotGeometry) -> bool:
    """True when the robot is on a tee at a roll inside its region."""
    segment = net.segments[index]
    return (segment.kind is SegmentKind.TEE
            and in_singularity(theta5_deg,
                               region_for_tee(segment, cfg, geom)))


@functools.lru_cache(maxsize=1024)
def _twist(cmd: CommandVector, sign: int, geom: RobotGeometry
           ) -> TwistVector:
    """The twist of ``cmd`` at the drive sign ``sign``.

    The key is exact: forward_kinematics sums each component from +0.0,
    so commands that compare equal give equal bits, zeros of either sign
    included, and a geometry holds floats.
    """
    return forward_kinematics(signed_drive(cmd, sign), geom)


def _advance(net: PipeNetwork, geom: RobotGeometry, index: int, s: float,
             theta5: float, alpha: float, roll_rad: float
             ) -> tuple[int, float, float, float, str]:
    """Roll by ``roll_rad`` on segment ``index``, then carry the advanced
    arc length ``s`` across segment boundaries in either direction.

    Crossing a boundary shifts theta5 to the next segment's turn
    reference.  Returns (index, s, theta5, alpha, event), where event
    is "end_of_network" or "start_of_network" when s was clamped there.
    """
    theta5, alpha = roll(theta5, alpha, roll_rad, net.segments[index].d_mm,
                         geom)
    lengths = net.arc_lengths
    event = ""
    while s > lengths[index] + _ZERO_TOL:
        if index + 1 >= len(lengths):
            s = lengths[index]
            event = "end_of_network"
            break
        s -= lengths[index]
        index += 1
        theta5 = shift_reference(theta5, net, index - 1, index)
    while s < -_ZERO_TOL:
        if index == 0:
            s = 0.0
            event = "start_of_network"
            break
        index -= 1
        theta5 = shift_reference(theta5, net, index + 1, index)
        s += lengths[index]
    return index, s, theta5, alpha, event


def _stop(x: float, dx: float, period: float, offset: float,
          width: float) -> float:
    """The bound _held bisects to: for sums from ``x`` going up (``dx`` >
    0), the first line period * k + offset +- width (k any integer, 0 <=
    width < period / 2) at or above x - m, m = _LINE_MARGIN * (1 + |x|),
    less the margin at that line; mirrored for sums going down.  About
    x - 2 m where m spans a period or rounding finds no line."""
    if dx < 0.0:
        return -_stop(-x, -dx, period, -offset, width)
    margin = _LINE_MARGIN * (1.0 + abs(x))
    y = x - margin
    if margin < period:
        k = math.floor((y - offset) / period)
        y = min((line for line in [period * (k + i) + offset + e
                                   for i in (-1, 0, 1, 2)
                                   for e in (-width, width)]
                 if line >= y), default=y)
    return y - _LINE_MARGIN * (1.0 + max(abs(x), abs(y)))


def _held(xs: list[float], f, stop: float) -> int:
    """Least j >= 1 for which f(xs[j]) == f(xs[0]) is not shown, else
    len(xs).

    ``xs`` is monotone, and f can change only past ``stop`` (_stop): bisect
    finds the entries short of it, and f itself then checks up to _WALK
    more.
    """
    first, last = xs[0], xs[-1]
    if first == last:
        return len(xs)
    if last > first:
        j = bisect_left(xs, stop, 1)
    else:
        j = bisect_left(xs, -stop, 1, key=neg)
    ref = f(first)
    end = min(j + _WALK, len(xs))
    while j < end and f(xs[j]) == ref:
        j += 1
    return j


def _block(net: PipeNetwork, index: int, s: float, theta5: float,
           alpha: float, ds: float, roll_rad: float, most: int,
           cfg: PlannerConfig, geom: RobotGeometry
           ) -> tuple[list[float], tuple | None]:
    """Up to ``most`` whole substeps on segment ``index`` that move s by ``ds``
    or roll by ``roll_rad``, not both: s after each of them on a drive,
    theta5 on a roll, and the state (s, theta5, alpha) after the last.

    The sums are the scalar path's own additions in its order
    (itertools.accumulate, drive.roll_sums), so every value is
    bit-identical to it.  The rows end before the first substep that
    crosses a segment boundary, takes theta5 out of [0, 360) (where wrap
    acts) or flips the tee check, and after the first that changes a
    drive sign, as the substep after it runs with the new sign: the
    scalar path takes that substep.  Each cut lies near a line period * k
    + offset +- width of its quantity: s at (length + 2 tol) k + length +
    tol, which holds the boundaries -tol and length + tol; theta5 at 360 k
    and 60 k +- h; alpha at (k + 1/2) pi +- deadband.  The nearest line
    bounds the sums formed, and _held finds each cut.
    """
    # per cut: which sums (0 is s or theta5, 1 is alpha), their start and
    # step, the predicate, the bound _held bisects to, and 1 where the row
    # that changes the predicate stays in the block (a drive sign acts from
    # the next substep)
    segment = net.segments[index]
    if roll_rad:
        step = math.degrees(roll_rad)
        turn = -(roll_rad * rolling_gain(segment.d_mm, geom))
        deadband = cfg.deadband_rad
        cuts = [(0, theta5, step, lambda x: 0.0 <= x < 360.0,
                 _stop(theta5, step, 360.0, 0.0, 0.0), 0)]
        region = (region_for_tee(segment, cfg, geom)
                  if segment.kind is SegmentKind.TEE else None)
        # the tee check is constant off a tee and unless 0 < h < 30 deg,
        # the largest distance to a multiple of 60
        if (region is not None
                and 0.0 < region.half_width_deg < _TEE_LINES_DEG / 2.0):
            cuts.append((0, theta5, step,
                         lambda x: in_singularity(x, region),
                         _stop(theta5, step, _TEE_LINES_DEG, 0.0,
                               region.half_width_deg), 0))
        if turn:
            cuts.append((1, alpha, turn, lambda x: drive_sign(x, deadband),
                         _stop(alpha, turn, math.pi, math.pi / 2.0,
                               deadband), 1))
    else:
        # the scalar path's zero roll adds +-0.0 to theta5, which turns
        # the -0.0 a boundary crossing can leave into 0.0
        theta5 = roll(theta5, alpha, roll_rad, segment.d_mm, geom)[0]
        length = net.arc_lengths[index]
        cuts = [(0, s, ds, lambda x: -_ZERO_TOL <= x <= length + _ZERO_TOL,
                 _stop(s, ds, length + 2.0 * _ZERO_TOL, length + _ZERO_TOL,
                       0.0), 0)] if ds else []
    # a rough count of the substeps to the nearest bound, past which _held
    # may walk
    room = min([(stop - x) / dx for _, x, dx, _, stop, _ in cuts],
               default=math.inf)
    take = (most if not room < most
            else min(most, int(max(room, 0.0)) + _WALK + 1))
    if roll_rad:
        sums = roll_sums(theta5, alpha, roll_rad, segment.d_mm, geom, take)
    else:
        sums = (list(accumulate(repeat(ds, take), initial=s)),)
    # the scalar path takes a sum that overflows, so that drive_sign
    # raises only where it would
    if not all(math.isfinite(xs[-1]) for xs in sums):
        return [], None
    cut = min([_held(sums[i], f, stop) + kept
               for i, _, _, f, stop, kept in cuts] + [len(sums[0])])
    if roll_rad:
        return sums[0][1:cut], (s, sums[0][cut - 1], sums[1][cut - 1])
    return sums[0][1:cut], (sums[0][cut - 1], theta5, alpha)


def step(state: SimState, cmd: CommandVector, dt: float, net: PipeNetwork,
         geom: RobotGeometry, cfg: PlannerConfig | None = None
         ) -> tuple[SimState, TrajectoryRecord]:
    """Advance one interval of constant command.

    Drive rates are multiplied by the modules' drive sign (deadband
    from ``cfg``, default PlannerConfig()) before the forward map.  s
    follows v_cz along the centerline with segment carry-over in both
    directions; crossing a boundary shifts theta5 to the next segment's
    turn reference.  Exact for constant commands at any dt > 0.  A
    ``state`` off the network (a segment index out of range) or with a
    non-finite field raises SimulationError.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise SimulationError(f"dt must be > 0, got {dt}")
    if not 0 <= state.segment_index < len(net.segments):
        raise SimulationError(
            f"segment_index must lie in [0, {len(net.segments)}), got "
            f"{state.segment_index}")
    for name in ("s_mm", "theta5_deg", "alpha_rad", "time_s"):
        if not math.isfinite(getattr(state, name)):
            raise SimulationError(f"{name} must be finite, got "
                                  f"{getattr(state, name)}")
    if cfg is None:
        cfg = PlannerConfig()
    sign = drive_sign(state.alpha_rad, cfg.deadband_rad)
    twist = _twist(cmd, sign, geom)
    index, s, theta5, alpha, event = _advance(
        net, geom, state.segment_index, state.s_mm + twist.v_cz * dt,
        state.theta5_deg, state.alpha_rad, cmd.theta_dot_4 * dt)
    new_state = SimState(segment_index=index, s_mm=s, theta5_deg=theta5,
                         alpha_rad=alpha, time_s=state.time_s + dt)
    record = TrajectoryRecord(
        time_s=new_state.time_s, segment_index=index, s_mm=s,
        theta5_deg=theta5, command=cmd, twist=twist, drive_sign=sign,
        singular=_tee_singular(net, index, theta5, cfg, geom),
        event=event)
    return new_state, record


def run_mission(net: PipeNetwork, plan: Iterable[MissionStep],
                cfg: PlannerConfig, geom: RobotGeometry,
                theta5_deg: float = 0.0, dt: float | None = DEFAULT_DT_S
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
    plan = list(plan)
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
    alpha, t = 0.0, 0.0
    records = Trajectory()
    events: list[str] = []
    failure: str | None = None
    done = False
    deadband = cfg.deadband_rad

    for mstep, n in zip(plan, substeps):
        cmd = mstep.command
        turning = mstep.kind is StepKind.TURN_TEE
        if turning and _tee_singular(net, index, theta5, cfg, geom):
            events.append("singularity_at_turn_onset")
            records.extend(False, (t,), index, theta5, (s,),
                           (cmd, TwistVector(0.0, 0.0, 0.0, 0.0), 0),
                           True, "singularity_at_turn_onset")
            failure = "singularity"
            break

        stall_check = (mstep.kind is not StepKind.HOLONOMIC_ROTATE
                       and max(abs(cmd.theta_dot_1), abs(cmd.theta_dot_2),
                               abs(cmd.theta_dot_3)) > _ZERO_TOL)
        drive = checked_index = None
        duration = mstep.duration_s
        h_regular = duration if dt is None else dt
        roll_regular = cmd.theta_dot_4 * h_regular
        k = 0
        while k < n:
            h = h_regular if k < n - 1 else duration - h_regular * (n - 1)
            if n > 1 and k == n - 1 and h <= 1e-15:
                break  # the rounding remainder of a multi-substep step
            sign = drive_sign(alpha, deadband)
            if drive is None or sign != drive[2]:
                # a step that drives while it rolls changes its twist
                # whenever a module crosses a 90 deg drive line
                drive = (cmd, _twist(cmd, sign, geom), sign)
                v_cz = drive[1].v_cz
                ds = float(v_cz * h_regular)
            # after the step's first substep, whole substeps that move s or
            # roll, not both, form blocks up to the next cut: the first
            # substep has added its zero ds or made its zero roll, and a
            # crossing shifts theta5 only to values that roll leaves as
            # they are, but for a -0.0 that _block rolls to 0.0; the
            # scalar path below takes the rest
            rows = None
            if 0 < k < n - 1 and not (ds and roll_regular):
                rows, end = _block(net, index, s, theta5, alpha, ds,
                                   roll_regular, n - 1 - k, cfg, geom)
            if rows:
                times = list(accumulate(repeat(float(h_regular), len(rows)),
                                        initial=float(t)))
                del times[0]
                event = "singular_mid_turn" if turning and singular else ""
                if event and event not in events:
                    events.append(event)
                records.extend(bool(roll_regular), times, index,
                               s if roll_regular else end[1], rows, drive,
                               singular, event)
                s, theta5, alpha = end
                t = times[-1]
                k += len(rows)
                continue
            first = k == 0
            k += 1
            index, s, theta5, alpha, event = _advance(
                net, geom, index, s + v_cz * h, theta5, alpha,
                cmd.theta_dot_4 * h)
            t = t + h
            # alpha moves only while the robot rolls; elsewhere the sign,
            # the twist and, between boundary crossings, the tee check hold
            if cmd.theta_dot_4 or index != checked_index:
                singular = _tee_singular(net, index, theta5, cfg, geom)
                checked_index = index
            if first and stall_check and abs(v_cz) < _ZERO_TOL:
                event = failure = "no_forward_progress"
            elif turning and singular:
                event = "singular_mid_turn"
            if event and event not in events:
                events.append(event)
            records.extend(False, (t,), index, theta5, (s,), drive, singular,
                           event)
            done = failure is not None or event == "end_of_network"
            if done:
                break
        if done:
            break

    if failure is not None:
        outcome = MissionOutcome(False, failure, t, tuple(events))
    elif (index == len(net.segments) - 1
          and s >= net.arc_lengths[-1] - _END_TOL_MM):
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

    Covers every mission that plans no roll, i.e. ``with_holonomic`` is
    false.  Then theta5 at each branch-tee onset is the initial roll plus
    C_i, the drive.shift_reference chain evaluated from 0, and the
    mission fails exactly when some onset lies within that tee's
    half-width h of a multiple of 60 deg: in the arc (-h, h) or
    (60 - h, 60 + h) modulo 120.  The result is the complement of the
    union of those arcs shifted by -C_i, as a canonical interval set; its
    total length / 120 is the exact success probability.

    Returns None for missions that roll (after a roll theta5 no longer
    follows the initial roll), for turns whose plan depends on the roll
    (an elbow tighter than its bore, a tee turn that can reverse a module
    or that can run past its junction), and when a scalar trial in the
    widest piece on either side disagrees with the set.  Those trials
    also raise any error the planner raises for every roll.  The reason
    for None is logged at DEBUG on every call.  The derivation is
    memoised (_derived_set); each call returns a fresh list.
    """
    succeeding, _, reason = _derived_set(net, cfg, geom, with_holonomic)
    if reason is not None:
        _log.debug("no success set: %s", reason)
        return None
    return list(succeeding)


def _padded_ends(succeeding: Sequence[Interval]) -> np.ndarray:
    """The endpoints of a success set in order, padded with a neighbour
    across the 0/120 seam on each side, as a read-only array; empty for
    the empty set."""
    ends = np.asarray(succeeding, dtype=float).ravel()
    if ends.size:
        ends = np.concatenate(([ends[-1] - ORIENTATION_PERIOD_DEG], ends,
                               [ends[0] + ORIENTATION_PERIOD_DEG]))
    ends.setflags(write=False)
    return ends


@functools.lru_cache(maxsize=64)
def _derived_set(net: PipeNetwork, cfg: PlannerConfig, geom: RobotGeometry,
                 with_holonomic: bool
                 ) -> tuple[tuple[Interval, ...] | None, np.ndarray | None,
                            str | None]:
    """success_set's derivation: (the set, its _padded_ends, None), or
    (None, None, the reason).

    Memoised in a bounded lru_cache, as planner._tee_turn is, so a run of
    Monte Carlo calls on one mission derives its set, with the two
    spot-check missions, once.  All four arguments are frozen and
    hashable, and the key is exact: the derivation is pure, and
    arguments that compare equal give equal bits (a network compares its
    segments; its roll_references follow from them).  The only floats
    that compare equal with other bits are +-0.0.  A zero roll field
    (branch_roll_deg, turn_plane_roll_deg) can change only the sign of a
    zero reference shift C_i.  An arc endpoint c - C_i, with
    c = 60 k +- h, then keeps its bits where c != 0; where c = 0 the arc
    has zero width, which normalize drops, or spans the period, which
    normalize returns as (0, 120).  A zero sweep_phi_max_deg or wobble_deadband_deg
    reaches only comparisons, the drive_sign key and the tee sweep,
    which do not tell the zeros apart, and a spot check returns a bool.
    A PlanError is not stored, so it is raised on every call.
    """
    reason = _uncovered(net, cfg, geom, with_holonomic)
    if reason is not None:
        return None, None, reason
    forbidden: list[Interval] = []
    shift = 0.0
    for i, segment in enumerate(net.segments):
        if i > 0:
            shift = shift_reference(shift, net, i - 1, i)
        if _branch_tee(segment):
            h = region_for_tee(segment, cfg, geom).half_width_deg
            forbidden += [(centre - h - shift, centre + h - shift)
                          for centre in (0.0, ORIENTATION_PERIOD_DEG / 2.0)]
    failing = normalize(forbidden, ORIENTATION_PERIOD_DEG)
    succeeding = complement(failing, ORIENTATION_PERIOD_DEG)
    for pieces, completes in ((succeeding, True), (failing, False)):
        if pieces:
            lo, hi = max(pieces, key=lambda piece: piece[1] - piece[0])
            if _completes(net, (lo + hi) / 2.0, cfg, geom,
                          False) is not completes:
                return (None, None,
                        "a scalar trial disagrees with the derived set")
    return tuple(succeeding), _padded_ends(succeeding), None


def _count_successes(net: PipeNetwork, thetas: np.ndarray,
                     padded: np.ndarray | None, cfg: PlannerConfig,
                     geom: RobotGeometry, with_holonomic: bool
                     ) -> tuple[int, int]:
    """(successes, draws run through the scalar path) among ``thetas``.

    With a success set, given as its _padded_ends, one searchsorted gives
    each draw in [0, 120) its parity and its two nearest endpoints; only
    draws within the guard band of an endpoint run the scalar trial.
    Without one (None) every draw runs it.
    """
    if padded is not None and not padded.size:
        return 0, 0
    successes = 0
    if padded is not None:
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


def _integer(value, name: str) -> int:
    """``value`` as a Python int; ValueError for a bool, TypeError for a
    value that is not an integer."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value}")
    return operator.index(value)


def monte_carlo_tee(net: PipeNetwork, cfg: PlannerConfig,
                    geom: RobotGeometry, trials: int, seed: int,
                    with_holonomic: bool) -> MonteCarloResult:
    """Success statistics over uniformly random initial rolls.

    Each trial draws theta5 from [0, 120) deg (the roll symmetry period);
    the rate comes with a 95% Wilson score interval (wilson_interval).
    Draws come in chunks of 4096 from one generator, the same stream as
    a single draw, so memory stays flat in ``trials``.  A ``trials``
    outside [1, MAX_TRIALS] or a negative ``seed`` raises ValueError
    before the first draw.

    Where success_set covers the mission (no roll planned), a draw counts
    as a success when it lies in the set, found by one searchsorted per
    chunk; draws within 1e-6 deg of an endpoint still plan and simulate.
    Elsewhere every trial plans the mission, with or without the
    holonomic escape, and simulates it in a single exact substep per
    step.  Both give the same count draw for draw.  The split between
    the two paths is logged at DEBUG.
    """
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be <= MAX_TRIALS = {MAX_TRIALS}, "
                         f"got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    _, padded, reason = _derived_set(net, cfg, geom, with_holonomic)
    if reason is not None:
        _log.debug("no success set: %s", reason)
    successes = scalar = 0
    for start in range(0, trials, _CHUNK):
        thetas = rng.uniform(0.0, ORIENTATION_PERIOD_DEG,
                             size=min(_CHUNK, trials - start))
        hits, ran = _count_successes(net, thetas, padded, cfg, geom,
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
    its time and of its arc length (drive block) or theta5 (roll block),
    and the block goes out in one write.  The command, twist and sign
    columns are formatted once per run of blocks sharing those objects,
    as the blocks of one mission step do.  Other records are written one
    row per block.
    """
    blocks = (records.blocks() if isinstance(records, Trajectory) else
              ((False, r.segment_index, r.theta5_deg,
                (r.command, r.twist, r.drive_sign), r.singular, r.event,
                (r.time_s,), (r.s_mm,)) for r in records))
    with open(path, "w", newline="") as f:
        f.write(TRAJECTORY_CSV_HEADER + "\n")
        last = middle = None
        for rolls, index, fixed, drive, singular, event, times, varying \
                in blocks:
            c, t, sign = drive
            # by identity: an equal twist may differ in the sign of a zero
            if last is None or not (c is last[0] and t is last[1]
                                    and sign == last[2]):
                last = drive
                middle = ",".join(
                    [repr(float(x)) for x in (
                        c.theta_dot_1, c.theta_dot_2, c.theta_dot_3,
                        c.theta_dot_4, t.omega_x, t.omega_y, t.omega_z,
                        t.v_cz)]
                    + [str(sign)] * 3)
            # an f-string row template formats faster than str.format
            tail = f",{middle},{int(singular)},{event}\n"
            if rolls:
                head = f",{index},{float(fixed)!r},"
            else:
                head = f",{index},"
                tail = f",{float(fixed)!r}{tail}"
            f.write("".join([f"{time_s!r}{head}{x!r}{tail}"
                             for time_s, x in zip(map(float, times),
                                                  map(float, varying))]))


def outcome_to_json(outcome: MissionOutcome) -> str:
    return json.dumps(outcome.to_dict(), sort_keys=True, indent=2)
