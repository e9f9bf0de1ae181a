"""Closed-form differential kinematics of the three-module in-pipe robot.

The robot carries three crawler modules spaced 120 deg apart around the
pipe axis.  Module 1 lies on the local +x axis, module 2 at +120 deg and
module 3 at -120 deg.  Each module translates along the pipe (drive rates
``theta_dot_1..3``) while the whole robot can spin about the pipe axis
(holonomic rate ``theta_dot_4``), which makes the mapping between motor
space and robot twist a constant 4x4 Jacobian.

Units are mm, rad and s throughout.  Angular rates are rad/s, linear
velocities mm/s, lengths mm.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from math import isfinite

import numpy as np

from .errors import InvalidGeometryError, UndefinedCurvatureError

# Angular-speed norm below this is treated as straight drive (infinite R).
ANGULAR_SPEED_EPS = 1e-12

# forward_kinematics takes its product unguarded below this bound
_HALF_FLOAT_MAX = sys.float_info.max / 2.0

# Unit direction of each module center in the local frame (module 1 on +x).
_MODULE_ANGLES = (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0)
_MODULE_DIRS = tuple(
    (math.cos(a), math.sin(a)) for a in _MODULE_ANGLES
)


@dataclass(frozen=True)
class RobotGeometry:
    """Physical constants of the robot.

    Attributes:
        lug_radius_r: rolling radius of the crawler lugs (mm).
        arm_length_l: nominal distance of a module center from the robot
            center (mm).
        a_offset: perpendicular distance from the robot center to the line
            joining the other two modules (mm).  Equals ``arm_length_l / 2``
            for the symmetric construction.
        reach_min: smallest radial distance a module can press against (mm).
        reach_max: largest radial wall distance a module can still press
            against, springs fully extended (mm).
        module_outer_radius: radius of the circular module cross-section
            (mm); sets the rolling coupling between robot spin and module
            self-rotation.
    """

    lug_radius_r: float
    arm_length_l: float
    a_offset: float
    reach_min: float
    reach_max: float
    module_outer_radius: float

    def __post_init__(self):
        for name in ("lug_radius_r", "arm_length_l", "a_offset",
                     "reach_min", "reach_max", "module_outer_radius"):
            value = getattr(self, name)
            # the upper bound rejects inf, and ints past the float range
            if (isinstance(value, bool)
                    or not (isinstance(value, (int, float))
                            and 0 < value <= sys.float_info.max)):
                raise InvalidGeometryError(f"{name} must be finite and > 0, got {value!r}")
        if not (self.reach_min <= self.arm_length_l <= self.reach_max):
            raise InvalidGeometryError(
                "arm_length_l must lie within [reach_min, reach_max], got "
                f"{self.reach_min} <= {self.arm_length_l} <= {self.reach_max}")

    @classmethod
    def symmetric(cls, lug_radius_r: float, arm_length_l: float,
                  reach_min: float, reach_max: float,
                  module_outer_radius: float) -> "RobotGeometry":
        """Construct with the symmetric assumption ``a = l / 2``."""
        return cls(lug_radius_r=lug_radius_r, arm_length_l=arm_length_l,
                   a_offset=arm_length_l / 2.0, reach_min=reach_min,
                   reach_max=reach_max, module_outer_radius=module_outer_radius)


def _reject_non_finite(vector, names: tuple[str, ...]) -> None:
    """Raise ValueError naming the first of ``names`` that is not finite."""
    for name in names:
        if not isfinite(getattr(vector, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class CommandVector:
    """Motor-space input: three drive rates plus the holonomic spin rate.

    ``theta_dot_1..3`` are the crawler drive motor rates (rad/s),
    ``theta_dot_4`` the in-place rotation rate of the robot about the local
    z axis (rad/s).
    """

    theta_dot_1: float
    theta_dot_2: float
    theta_dot_3: float
    theta_dot_4: float

    def __post_init__(self):
        if not (isfinite(self.theta_dot_1) and isfinite(self.theta_dot_2)
                and isfinite(self.theta_dot_3) and isfinite(self.theta_dot_4)):
            _reject_non_finite(self, ("theta_dot_1", "theta_dot_2",
                                      "theta_dot_3", "theta_dot_4"))

    def as_array(self) -> np.ndarray:
        return np.array([self.theta_dot_1, self.theta_dot_2,
                         self.theta_dot_3, self.theta_dot_4])


@dataclass(frozen=True)
class TwistVector:
    """Robot twist: angular velocity (rad/s) and axial speed (mm/s)."""

    omega_x: float
    omega_y: float
    omega_z: float
    v_cz: float

    def __post_init__(self):
        if not (isfinite(self.omega_x) and isfinite(self.omega_y)
                and isfinite(self.omega_z) and isfinite(self.v_cz)):
            _reject_non_finite(self, ("omega_x", "omega_y", "omega_z", "v_cz"))

    def as_array(self) -> np.ndarray:
        return np.array([self.omega_x, self.omega_y, self.omega_z, self.v_cz])

    def angular_norm(self) -> float:
        """Euclidean norm of the angular part (rad/s)."""
        return math.sqrt(self.omega_x ** 2 + self.omega_y ** 2 + self.omega_z ** 2)


@dataclass(frozen=True)
class ModuleVelocities:
    """Per-module axial speeds (mm/s) and instantaneous arm extensions (mm).

    Arm extensions may be unequal: the robot pressed into a non-circular
    section compresses each spring differently.
    """

    v1: float
    v2: float
    v3: float
    arm_l1: float
    arm_l2: float
    arm_l3: float

    def __post_init__(self):
        for name in ("arm_l1", "arm_l2", "arm_l3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def speeds(self) -> tuple[float, float, float]:
        return (self.v1, self.v2, self.v3)

    @property
    def arms(self) -> tuple[float, float, float]:
        return (self.arm_l1, self.arm_l2, self.arm_l3)

    def equal_arms(self) -> bool:
        return self.arm_l1 == self.arm_l2 == self.arm_l3


def module_linear_velocities(cmd: CommandVector,
                             geom: RobotGeometry) -> ModuleVelocities:
    """Axial module speeds from drive rates: ``v_i = r * theta_dot_i``.

    Arm extensions are set to the nominal arm length.
    """
    r = geom.lug_radius_r
    l = geom.arm_length_l
    return ModuleVelocities(v1=r * cmd.theta_dot_1, v2=r * cmd.theta_dot_2,
                            v3=r * cmd.theta_dot_3,
                            arm_l1=l, arm_l2=l, arm_l3=l)


def coriolis_transform(vec_in_rotating_frame, position_of_point,
                       theta_dot_4: float) -> np.ndarray:
    """Re-express a rotating-frame vector in the co-located inertial frame.

    Returns ``vec + (theta_dot_4 * z_hat) x position``: the velocity seen
    from a frame that translates with the robot but does not spin with it.

    Args:
        vec_in_rotating_frame: 3-vector in the spinning robot frame.
        position_of_point: 3-vector position of the point the vector is
            attached to, in the same frame (mm).
        theta_dot_4: robot spin rate about the local z axis (rad/s).
    """
    vec = np.asarray(vec_in_rotating_frame, dtype=float)
    pos = np.asarray(position_of_point, dtype=float)
    omega = np.array([0.0, 0.0, theta_dot_4])
    return vec + np.cross(omega, pos)


def module_positions(mv: ModuleVelocities) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Module center positions in the local frame for given arm extensions."""
    return tuple(
        arm * np.array([dx, dy, 0.0])
        for arm, (dx, dy) in zip(mv.arms, _MODULE_DIRS)
    )


def center_velocity(mv: ModuleVelocities, theta_dot_4: float) -> np.ndarray:
    """Linear velocity of the robot center in the non-spinning frame (mm/s).

    Average of the three module velocity vectors after the spin transform.
    With equal arm extensions the planar components cancel exactly and the
    z component is the plain average of the module speeds; unequal arms
    leave a residual planar velocity.
    """
    total = np.zeros(3)
    for speed, pos in zip(mv.speeds, module_positions(mv)):
        total += coriolis_transform(np.array([0.0, 0.0, speed]), pos, theta_dot_4)
    return total / 3.0


@functools.lru_cache(maxsize=32)
def _cached_jacobian(geom: RobotGeometry) -> np.ndarray:
    r = geom.lug_radius_r
    lever = geom.a_offset + geom.arm_length_l
    cos30 = math.sqrt(3.0) / 2.0
    sin30 = 0.5
    k = r / lever
    J = np.array([
        [0.0,       -cos30 * k, cos30 * k, 0.0],
        [-k,         sin30 * k, sin30 * k, 0.0],
        [0.0,        0.0,       0.0,       1.0],
        [r / 3.0,    r / 3.0,   r / 3.0,   0.0],
    ])
    J.setflags(write=False)
    return J


@functools.lru_cache(maxsize=32)
def jacobian_inverse(geom: RobotGeometry) -> np.ndarray:
    """Closed-form inverse of ``jacobian(geom)``, shared and read-only.

    With lever L = a + l: th1 = (v - 2 L wy / 3) / r,
    th2,3 = (v + L wy / 3 -+ L wx / sqrt 3) / r and th4 = wz.  The
    determinant, 2 sqrt(3) r^3 / (9 l^2) for the symmetric geometry, is
    nonzero for every valid geometry.  Raises InvalidGeometryError where
    L / r or 1 / r overflows a float (e.g. a + l above 1.8e308 mm).
    """
    r = geom.lug_radius_r
    lever = geom.a_offset + geom.arm_length_l
    x = lever / (math.sqrt(3.0) * r)
    y = lever / (3.0 * r)
    J_inv = np.array([
        [0.0, -2.0 * y, 0.0, 1.0 / r],
        [-x,   y,       0.0, 1.0 / r],
        [x,    y,       0.0, 1.0 / r],
        [0.0,  0.0,     1.0, 0.0],
    ])
    if not np.isfinite(J_inv).all():
        raise InvalidGeometryError(
            f"the Jacobian has no finite inverse: lever a + l = {lever} mm "
            f"against lug radius r = {r} mm")
    J_inv.setflags(write=False)
    return J_inv


def jacobian(geom: RobotGeometry) -> np.ndarray:
    """The 4x4 matrix mapping (th1., th2., th3., th4.) to (wx, wy, wz, v_cz).

    Built from the per-module rotation axes at lever arm ``a + l``; for the
    symmetric ``a = l / 2`` case the entries reduce to the familiar
    +-sqrt(3) r / 3l and r / 3l pattern.
    """
    return _cached_jacobian(geom).copy()


def forward_kinematics(cmd: CommandVector, geom: RobotGeometry) -> TwistVector:
    """Map motor rates to the robot twist: ``V_a = J @ omega_a``.

    The rows of J other than the spin row (which passes theta_dot_4
    through) sum in absolute value to at most max(r, 2 r / (a + l)).
    While that bound times the largest rate stays below half the float
    range, no partial sum overflows.  Only a command past it takes the
    product under np.errstate (which costs about a third of an FK call),
    so numpy warns of nothing and TwistVector names the overflowed field.
    """
    rates = cmd.as_array()
    r = geom.lug_radius_r
    if (max(abs(cmd.theta_dot_1), abs(cmd.theta_dot_2), abs(cmd.theta_dot_3),
            abs(cmd.theta_dot_4))
            * max(r, 2.0 * r / (geom.a_offset + geom.arm_length_l))
            < _HALF_FLOAT_MAX):
        out = _cached_jacobian(geom) @ rates
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _cached_jacobian(geom) @ rates
    omega_x, omega_y, omega_z, v_cz = out.tolist()
    return TwistVector(omega_x, omega_y, omega_z, v_cz)


def inverse_kinematics(twist: TwistVector, geom: RobotGeometry) -> CommandVector:
    """Motor rates realizing a desired twist: ``omega_a = J^-1 @ V_a``."""
    # CommandVector rejects the rates an extreme twist overflows to
    with np.errstate(over="ignore", invalid="ignore"):
        out = jacobian_inverse(geom) @ twist.as_array()
    return CommandVector(theta_dot_1=out[0], theta_dot_2=out[1],
                         theta_dot_3=out[2], theta_dot_4=out[3])


def radius_of_curvature(mv: ModuleVelocities, twist: TwistVector) -> float:
    """Instantaneous radius of curvature (mm) of the driven path.

    Mean absolute module speed over the angular speed norm.  Returns
    ``math.inf`` when the angular norm is below ANGULAR_SPEED_EPS (straight
    drive).  Raises UndefinedCurvatureError for the degenerate all-zero
    case, which is distinct from straight drive.
    """
    speed_sum = abs(mv.v1) + abs(mv.v2) + abs(mv.v3)
    omega_norm = twist.angular_norm()
    if omega_norm < ANGULAR_SPEED_EPS:
        if speed_sum == 0.0:
            raise UndefinedCurvatureError(
                "all module speeds and angular rates are zero")
        return math.inf
    return speed_sum / (3.0 * omega_norm)


def with_nominal_arms(mv: ModuleVelocities, geom: RobotGeometry) -> ModuleVelocities:
    """Copy of ``mv`` with arm extensions reset to the nominal length."""
    l = geom.arm_length_l
    return replace(mv, arm_l1=l, arm_l2=l, arm_l3=l)
