"""Crawler drive-direction model and the robot's roll bookkeeping.

Each module translates by running a crawler chain whose lugs give it a
circular cross-section.  When the whole robot rolls about the pipe axis
the modules counter-rotate about their own axes, all three together and
by the same angle, so they share one self-rotation alpha; once it has
turned past 90 deg the upper and lower chain runs cancel and the modules
stop driving, and past that their drive direction reverses.  This module
captures that as a pure sign function of the accumulated self-rotation
alpha, plus the rules that move the roll state (theta5, alpha) along a
network, which the planner predicts with and the simulator integrates
with.  drive_sign is the one place where alpha becomes the sign a
command is flipped by.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, repeat

from .intervals import wrap
from .kinematics import CommandVector, RobotGeometry
from .pipenet import PipeNetwork

# alpha on the no-motion line within +-deadband produces no translation
MAX_DEADBAND_RAD = math.radians(10.0)
DEFAULT_DEADBAND_DEG = 1.0


def line_distance(alpha: float) -> float:
    """Distance (rad) from the self-rotation ``alpha`` to the nearest
    no-motion line, 90 deg + k * 180 deg."""
    return abs(math.fmod(abs(alpha), math.pi) - math.pi / 2.0)


@functools.lru_cache(maxsize=256)
def drive_sign(alpha: float,
               deadband: float = math.radians(DEFAULT_DEADBAND_DEG)) -> int:
    """Direction the modules translate for positive chain drive.

    ``alpha`` is the modules' shared cumulative self-rotation (rad);
    ``deadband`` (rad, within [0, 10 deg]) widens the 90 deg no-motion
    line into a band where the sign is 0.  Elsewhere the sign is
    sign(cos alpha): upright and near-upright modules drive forward,
    modules past 90 deg drive backward, with period 360 deg.

    Only a roll moves alpha, so the planner and the simulator ask for the
    sign at one alpha again and again; a bounded lru_cache keeps it.  Its
    key is exact: alpha is read only through abs and cos, and the
    deadband only through comparisons, so keys that compare equal, +-0.0
    included, give equal signs.  A ValueError for a bad deadband is not
    stored, so it is raised on every call.
    """
    if not 0.0 <= deadband <= MAX_DEADBAND_RAD + 1e-12:
        raise ValueError(f"deadband must lie in [0, 10 deg], got {deadband}")
    if line_distance(alpha) <= deadband:
        return 0
    return 1 if math.cos(alpha) > 0.0 else -1


def signed_drive(cmd: CommandVector, sign: int) -> CommandVector:
    """``cmd`` with each chain rate times the modules' drive sign;
    theta_dot_4 (module spin, not chain drive) passes through."""
    return CommandVector(cmd.theta_dot_1 * sign, cmd.theta_dot_2 * sign,
                         cmd.theta_dot_3 * sign, cmd.theta_dot_4)


def rolling_gain(d_mm: float, geom: RobotGeometry) -> float:
    """Module self-rotation per unit robot roll, rolling without slip.

    A module of outer radius rho rolling on a wall at distance D/2 from
    the pipe axis turns (D/2)/rho times as fast as the robot rolls, in
    the opposite sense.
    """
    return (d_mm / 2.0) / geom.module_outer_radius


def roll(theta5_deg: float, alpha_rad: float, roll_rad: float, d_mm: float,
         geom: RobotGeometry) -> tuple[float, float]:
    """(theta5, alpha) after a roll: every module turns -gain * roll_rad."""
    theta5 = wrap(theta5_deg + math.degrees(roll_rad), 360.0)
    if not roll_rad:
        return theta5, alpha_rad
    return theta5, alpha_rad - roll_rad * rolling_gain(d_mm, geom)


def roll_sums(theta5_deg: float, alpha_rad: float, roll_rad: float,
              d_mm: float, geom: RobotGeometry, m: int
              ) -> tuple[list[float], list[float]]:
    """theta5 before its wrap, and alpha, after each of ``m`` rolls by a
    nonzero ``roll_rad``; entry 0 of each list is the start.

    The sums are roll's own additions in its order (x + (-c) has the bits
    of x - c), so every alpha, and every theta5 that wrap leaves as it is
    (one in [0, 360)), is bit-identical to m calls of roll.
    """
    turn = -(roll_rad * rolling_gain(d_mm, geom))
    return (list(accumulate(repeat(math.degrees(roll_rad), m),
                            initial=theta5_deg)),
            list(accumulate(repeat(turn, m), initial=alpha_rad)))


def shift_reference(theta5_deg: float, net: PipeNetwork, from_index: int,
                    to_index: int) -> float:
    """theta5 on crossing from segment from_index into to_index."""
    refs = net.roll_references
    return wrap(theta5_deg + refs[from_index] - refs[to_index], 360.0)
