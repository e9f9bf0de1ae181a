"""Closed-form differential kinematics of the three-module in-pipe robot.

The robot carries three crawler modules spaced 120 deg apart around the
pipe axis.  Module 1 lies on the local +x axis, module 2 at +120 deg and
module 3 at -120 deg.  Each module translates along the pipe (drive rates
``theta_dot_1..3``) while the whole robot can spin about the pipe axis
(holonomic rate ``theta_dot_4``), which makes the mapping between motor
space and robot twist a constant 4x4 Jacobian.

Units are mm, rad and s throughout.  Angular rates are rad/s, linear
velocities mm/s, lengths mm.  Every map evaluates in Python floats and
returns its vectors and matrices as tuples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from math import isfinite

from .errors import InvalidGeometryError, UndefinedCurvatureError, real_number
from .tolerances import ANGULAR_SPEED_EPS

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
        # stored as floats, so equal geometries hold equal floats and give
        # equal bits wherever they are used
        for name in ("lug_radius_r", "arm_length_l", "a_offset", "reach_min",
                     "reach_max", "module_outer_radius"):
            object.__setattr__(self, name, real_number(
                getattr(self, name), name, InvalidGeometryError,
                positive=True))
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


def _finite_floats(a, b, c, d) -> bool:
    """True for four floats whose sum is finite, which makes each of them
    finite: the common case, in one test, before the field-by-field
    errors.real_number."""
    return (type(a) is float and type(b) is float and type(c) is float
            and type(d) is float and isfinite(a + b + c + d))


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
        if not _finite_floats(self.theta_dot_1, self.theta_dot_2,
                              self.theta_dot_3, self.theta_dot_4):
            for name in ("theta_dot_1", "theta_dot_2", "theta_dot_3",
                         "theta_dot_4"):
                real_number(getattr(self, name), name, ValueError)


@dataclass(frozen=True)
class TwistVector:
    """Robot twist: angular velocity (rad/s) and axial speed (mm/s)."""

    omega_x: float
    omega_y: float
    omega_z: float
    v_cz: float

    def __post_init__(self):
        if not _finite_floats(self.omega_x, self.omega_y, self.omega_z,
                              self.v_cz):
            for name in ("omega_x", "omega_y", "omega_z", "v_cz"):
                real_number(getattr(self, name), name, ValueError)

    def angular_norm(self) -> float:
        """Euclidean norm of the angular part (rad/s), by math.hypot: it
        neither overflows nor underflows where the norm is a finite
        float, and is within one ulp of the exact norm."""
        return math.hypot(self.omega_x, self.omega_y, self.omega_z)


@dataclass(frozen=True)
class ModuleVelocities:
    """Per-module axial speeds (mm/s) and instantaneous arm extensions (mm).

    Arm extensions may be unequal: the robot pressed into a non-circular
    section compresses each spring differently.  Each field must be a
    finite real number, as in CommandVector, and each arm > 0.
    """

    v1: float
    v2: float
    v3: float
    arm_l1: float
    arm_l2: float
    arm_l3: float

    def __post_init__(self):
        for name in ("v1", "v2", "v3", "arm_l1", "arm_l2", "arm_l3"):
            real_number(getattr(self, name), name, ValueError,
                        positive=name.startswith("arm"))

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
                       theta_dot_4: float) -> tuple[float, float, float]:
    """Re-express a rotating-frame vector in the co-located inertial frame.

    Returns ``vec + (theta_dot_4 * z_hat) x position``: the velocity seen
    from a frame that translates with the robot but does not spin with it.

    Args:
        vec_in_rotating_frame: 3-vector in the spinning robot frame.
        position_of_point: 3-vector position of the point the vector is
            attached to, in the same frame (mm).
        theta_dot_4: robot spin rate about the local z axis (rad/s).
    """
    vx, vy, vz = map(float, vec_in_rotating_frame)
    px, py, _ = map(float, position_of_point)
    return (vx - theta_dot_4 * py, vy + theta_dot_4 * px, vz)


def module_positions(mv: ModuleVelocities
                     ) -> tuple[tuple[float, float, float], ...]:
    """Module center positions in the local frame for given arm extensions."""
    return tuple((arm * dx, arm * dy, 0.0)
                 for arm, (dx, dy) in zip(mv.arms, _MODULE_DIRS))


def center_velocity(mv: ModuleVelocities,
                    theta_dot_4: float) -> tuple[float, float, float]:
    """Linear velocity of the robot center in the non-spinning frame (mm/s).

    Average of the three module velocity vectors after the spin transform.
    With equal arm extensions the planar components cancel exactly and the
    z component is the plain average of the module speeds; unequal arms
    leave a residual planar velocity.
    """
    v1, v2, v3 = (coriolis_transform((0.0, 0.0, speed), pos, theta_dot_4)
                  for speed, pos in zip(mv.speeds, module_positions(mv)))
    return tuple((0.0 + a + b + c) / 3.0 for a, b, c in zip(v1, v2, v3))


def _map_scalars(geom: RobotGeometry, inverse: bool) -> tuple[float, ...]:
    """The distinct entries of J (k = r / L, (sqrt 3 / 2) k, k / 2, r / 3)
    or of J^-1 (L / (sqrt 3 r), L / (3 r), twice that, 1 / r), L = a + l.

    Raises InvalidGeometryError where one of them is not a finite float,
    e.g. r / L for r = 1e300 mm and L = 1.5e-10 mm.
    """
    r = geom.lug_radius_r
    lever = geom.a_offset + geom.arm_length_l
    if inverse:
        y = lever / (3.0 * r)
        scalars = (lever / (math.sqrt(3.0) * r), y, 2.0 * y, 1.0 / r)
    else:
        k = r / lever
        scalars = (k, math.sqrt(3.0) / 2.0 * k, k / 2.0, r / 3.0)
    if not all(map(isfinite, scalars)):
        what = "has no finite inverse" if inverse else "is not finite"
        raise InvalidGeometryError(
            f"the Jacobian {what}: lever a + l = {lever} mm against lug "
            f"radius r = {r} mm")
    return scalars


def jacobian(geom: RobotGeometry) -> tuple[tuple[float, ...], ...]:
    """The 4x4 matrix mapping (th1., th2., th3., th4.) to (wx, wy, wz, v_cz),
    as four row tuples.

    Built from the per-module rotation axes at lever arm ``a + l``; for the
    symmetric ``a = l / 2`` case the entries reduce to the familiar
    +-sqrt(3) r / 3l and r / 3l pattern.  The matrix of forward_kinematics
    for the API.
    """
    k, s, h, t = _map_scalars(geom, False)
    return ((0.0, -s,  s,  0.0),
            (-k,   h,  h,  0.0),
            (0.0, 0.0, 0.0, 1.0),
            (t,    t,  t,  0.0))


def jacobian_inverse(geom: RobotGeometry) -> tuple[tuple[float, ...], ...]:
    """Closed-form inverse of ``jacobian(geom)``, as four row tuples; the
    matrix of inverse_kinematics for the API.  Its determinant,
    2 sqrt(3) r^3 / (9 l^2) for the symmetric geometry, is nonzero for
    every valid geometry.  Raises InvalidGeometryError where L / r or 1 / r
    overflows a float (e.g. a + l above 1.8e308 mm).
    """
    x, y, y2, q = _map_scalars(geom, True)
    return ((0.0, -y2, 0.0, q),
            (-x,   y,  0.0, q),
            (x,    y,  0.0, q),
            (0.0, 0.0, 1.0, 0.0))


def forward_kinematics(cmd: CommandVector, geom: RobotGeometry) -> TwistVector:
    """Map motor rates to the robot twist, ``V_a = J @ omega_a``.

    Each component is the dot product of a row of J with the rates, in
    Python floats, over the row's nonzero entries from +0.0 left to right:
    wx = 0 - s th2 + s th3, wy = 0 - k th1 + h th2 + h th3, wz = 0 + th4,
    v_cz = 0 + t th1 + t th2 + t th3 (k, s, h, t as in _map_scalars).
    Each step is one correctly rounded IEEE operation, so the bits do not
    depend on the host, a zero is +0.0 and equal drive rates give
    wx = wy = 0.0 exactly unless k / 2 is subnormal.  A product below
    the normal range would round on its own and break that zero, so
    where the largest drive rate times a nonzero min(h, t) is below
    2^-1022, the three drive rates are scaled by 2^e, e = -1020 less the
    math.frexp exponents of both factors, and wx, wy and v_cz by 2^-e
    after.  This leaves normal-range bits alone.  TwistVector names a
    component that overflows.
    """
    k, s, h, t = _map_scalars(geom, False)
    th1, th2, th3 = cmd.theta_dot_1, cmd.theta_dot_2, cmd.theta_dot_3
    top, low = max(abs(th1), abs(th2), abs(th3)), min(h, t)
    e = 0
    if top * low < sys.float_info.min and top and low:
        # top * low * 2^e lies in [2^-1022, 2^-1020), so no product
        # overflows
        e = -1020 - math.frexp(top)[1] - math.frexp(low)[1]
        th1, th2, th3 = (math.ldexp(th, e) for th in (th1, th2, th3))
    return TwistVector(math.ldexp(0.0 - s * th2 + s * th3, -e),
                       math.ldexp(0.0 - k * th1 + h * th2 + h * th3, -e),
                       0.0 + cmd.theta_dot_4,
                       math.ldexp(0.0 + t * th1 + t * th2 + t * th3, -e))


def inverse_kinematics(twist: TwistVector, geom: RobotGeometry) -> CommandVector:
    """Motor rates realizing a desired twist, ``omega_a = J^-1 @ V_a``, in
    forward_kinematics' order: th1 = 0 - y2 wy + q v,
    th2,3 = 0 -+ x wx + y wy + q v, th4 = 0 + wz (x, y, y2, q as in
    _map_scalars).  CommandVector names a rate that overflows.
    """
    x, y, y2, q = _map_scalars(geom, True)
    wx, wy, v = twist.omega_x, twist.omega_y, twist.v_cz
    return CommandVector(0.0 - y2 * wy + q * v,
                         0.0 - x * wx + y * wy + q * v,
                         0.0 + x * wx + y * wy + q * v,
                         0.0 + twist.omega_z)


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
