import inspect
import math
import operator
import re
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from omnipipe import (CommandVector, InvalidGeometryError, ModuleVelocities,
                      RobotGeometry, TwistVector, UndefinedCurvatureError,
                      center_velocity, coriolis_transform, forward_kinematics,
                      inverse_kinematics, jacobian, jacobian_inverse,
                      module_linear_velocities,
                      module_positions, radius_of_curvature,
                      with_nominal_arms)

RATES = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)


def ref_geom() -> RobotGeometry:
    return RobotGeometry.symmetric(15.0, 60.0, 40.0, 110.0, 20.0)


# -- geometry validation ------------------------------------------------------

def test_geometry_rejects_nonpositive_fields():
    with pytest.raises(InvalidGeometryError):
        RobotGeometry(0.0, 60.0, 30.0, 40.0, 110.0, 20.0)
    with pytest.raises(InvalidGeometryError):
        RobotGeometry(15.0, 60.0, 30.0, 40.0, math.inf, 20.0)


def test_geometry_requires_arm_within_reach_band():
    with pytest.raises(InvalidGeometryError):
        RobotGeometry(15.0, 120.0, 60.0, 40.0, 110.0, 20.0)
    with pytest.raises(InvalidGeometryError):
        RobotGeometry(15.0, 30.0, 15.0, 40.0, 110.0, 20.0)


def test_symmetric_constructor_sets_half_arm_offset():
    assert ref_geom().a_offset == 30.0


# -- forward map --------------------------------------------------------------

def test_equal_drive_is_pure_translation():
    twist = forward_kinematics(CommandVector(2.0, 2.0, 2.0, 0.0), ref_geom())
    assert twist.v_cz == 30.0
    assert twist.omega_x == 0.0
    assert twist.omega_y == 0.0
    assert twist.omega_z == 0.0


def test_forward_map_mixed_command():
    twist = forward_kinematics(CommandVector(1.0, 2.0, 3.0, 0.0), ref_geom())
    assert twist.omega_x == pytest.approx(math.sqrt(3.0) / 12.0, rel=1e-12)
    assert twist.omega_y == pytest.approx(0.25, rel=1e-12)
    assert twist.omega_z == 0.0
    assert twist.v_cz == pytest.approx(30.0, rel=1e-12)


def test_spin_rate_passes_straight_through():
    twist = forward_kinematics(CommandVector(0.0, 0.0, 0.0, 5.0), ref_geom())
    assert (twist.omega_x, twist.omega_y, twist.omega_z,
            twist.v_cz) == (0.0, 0.0, 5.0, 0.0)


def test_jacobian_scalar_form():
    geom = ref_geom()
    J = jacobian(geom)
    r, l = 15.0, 60.0
    expected = np.array([
        [0.0, -math.sqrt(3.0) * r / (3.0 * l),
         math.sqrt(3.0) * r / (3.0 * l), 0.0],
        [-2.0 * r / (3.0 * l), r / (3.0 * l), r / (3.0 * l), 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [r / 3.0, r / 3.0, r / 3.0, 0.0],
    ])
    assert np.allclose(J, expected, rtol=1e-12, atol=0.0)


def test_jacobian_invertible_with_expected_determinant_magnitude():
    geom = ref_geom()
    det = np.linalg.det(jacobian(geom))
    r, l = geom.lug_radius_r, geom.arm_length_l
    assert abs(det) == pytest.approx(2.0 * math.sqrt(3.0) * r ** 3
                                     / (9.0 * l ** 2), rel=1e-9)


def test_jacobian_is_a_tuple_of_float_rows():
    # immutable, so one call's matrix cannot change another's
    for matrix in (jacobian(ref_geom()), jacobian_inverse(ref_geom())):
        assert type(matrix) is tuple and len(matrix) == 4
        assert all(type(row) is tuple and len(row) == 4
                   and all(type(v) is float for v in row) for row in matrix)


# -- inverse map --------------------------------------------------------------

def test_inverse_of_pure_spin():
    cmd = inverse_kinematics(TwistVector(0.0, 0.0, 5.0, 0.0), ref_geom())
    assert cmd.theta_dot_1 == pytest.approx(0.0, abs=1e-12)
    assert cmd.theta_dot_2 == pytest.approx(0.0, abs=1e-12)
    assert cmd.theta_dot_3 == pytest.approx(0.0, abs=1e-12)
    assert cmd.theta_dot_4 == pytest.approx(5.0, rel=1e-12)


def test_inverse_of_pure_translation():
    cmd = inverse_kinematics(TwistVector(0.0, 0.0, 0.0, 30.0), ref_geom())
    for rate in (cmd.theta_dot_1, cmd.theta_dot_2, cmd.theta_dot_3):
        assert rate == pytest.approx(2.0, rel=1e-12)
    assert cmd.theta_dot_4 == pytest.approx(0.0, abs=1e-12)


@st.composite
def geometries(draw):
    """Valid geometries, the offset a free of the symmetric l / 2."""
    length = st.floats(min_value=1.0, max_value=1000.0)
    arm = draw(length)
    return RobotGeometry(
        lug_radius_r=draw(length), arm_length_l=arm,
        a_offset=draw(st.floats(min_value=0.01, max_value=10.0)) * arm,
        reach_min=arm, reach_max=arm, module_outer_radius=draw(length))


def exact_solve(matrix, rhs) -> list[Fraction]:
    """x with matrix @ x = rhs exactly, on the Fractions of their floats,
    by Gauss-Jordan elimination."""
    rows = [[Fraction(float(v)) for v in row] + [Fraction(float(b))]
            for row, b in zip(matrix, rhs)]
    n = len(rows)
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for i in range(n):
            factor = rows[i][col]
            if i != col and factor:
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[col])]
    return [row[n] for row in rows]


# IK forms each rate in at most six operations, 0 -+ c1 w1 + c2 w2 + c3 w3.
# Each result is rounded to within 2^-53 of itself, relative, or to within
# half the subnormal spacing, 2^-1075, absolute.  The scalars c_j lie
# within a few 2^-53 of the exact inverse of J's float entries.  So a rate
# lies within ~10 * 2^-53 * S of the exact solve, S = sum_j |c_j w_j|,
# plus 6 * 2^-1075 where results are subnormal; 1e-12 S covers the first
# part with room, and a floor of six half-spacings the second.
_IK_SUBNORMAL_SLACK = Fraction(6, 2 ** 1075)


@settings(max_examples=300, deadline=None)
@given(geometries(), RATES, RATES, RATES, RATES)
@example(geom=RobotGeometry(12.0, 1.0, 1.0, 1.0, 1.0, 12.0), wx=0.0, wy=0.0,
         wz=0.0, v=2.225073858507e-311)
@example(geom=RobotGeometry(1.0, 2.0, 6.0, 2.0, 2.0, 1.0), wx=0.0,
         wy=5e-324, wz=0.0, v=0.0)
def test_closed_form_inverse_matches_a_numerical_solve(geom, wx, wy, wz, v):
    J = jacobian(geom)
    J_inv = jacobian_inverse(geom)
    assert np.max(np.abs(np.array(J_inv) @ np.array(J) - np.eye(4))) <= 1e-15
    twist = TwistVector(wx, wy, wz, v)
    exact = exact_solve(J, astuple(twist))
    got = astuple(inverse_kinematics(twist, geom))
    for i in range(4):
        scale = sum(abs(Fraction(float(c)) * Fraction(w))
                    for c, w in zip(J_inv[i], astuple(twist)))
        assert (abs(Fraction(got[i]) - exact[i])
                <= Fraction(1e-12) * scale + _IK_SUBNORMAL_SLACK), i


@pytest.mark.parametrize("r, arm", [(15.0, 1e308), (1e-308, 60.0),
                                    (1e-310, 1e-310)])
def test_inverse_rejects_a_lever_to_radius_ratio_past_the_float_range(
        r, arm):
    geom = RobotGeometry(r, arm, arm, arm, arm, 20.0)
    with pytest.raises(InvalidGeometryError, match="no finite inverse"):
        inverse_kinematics(TwistVector(0.0, 0.5, 0.0, 100.0), geom)


def bits(values) -> list[str]:
    """Exact images of floats, signed zeros told apart."""
    return [float(v).hex() for v in values]


def forward_scalars(geom: RobotGeometry) -> tuple[float, ...]:
    r = geom.lug_radius_r
    k = r / (geom.a_offset + geom.arm_length_l)
    return k, math.sqrt(3.0) / 2.0 * k, k / 2.0, r / 3.0


def inverse_scalars(geom: RobotGeometry) -> tuple[float, ...]:
    r = geom.lug_radius_r
    lever = geom.a_offset + geom.arm_length_l
    y = lever / (3.0 * r)
    return lever / (math.sqrt(3.0) * r), y, 2.0 * y, 1.0 / r


def forward_by_scalars(cmd: CommandVector, geom: RobotGeometry) -> tuple:
    """The forward map as forward_kinematics documents it."""
    k, s, h, t = forward_scalars(geom)
    th1, th2, th3, th4 = astuple(cmd)
    top = max(abs(th1), abs(th2), abs(th3))
    e = 0
    if top and min(h, t) and top * min(h, t) < 2.0 ** -1022:
        e = -1020 - math.frexp(top)[1] - math.frexp(min(h, t))[1]
    th1, th2, th3 = (math.ldexp(th, e) for th in (th1, th2, th3))
    return (math.ldexp(0.0 - s * th2 + s * th3, -e),
            math.ldexp(0.0 - k * th1 + h * th2 + h * th3, -e), 0.0 + th4,
            math.ldexp(0.0 + t * th1 + t * th2 + t * th3, -e))


def inverse_by_scalars(twist: TwistVector, geom: RobotGeometry) -> tuple:
    """The inverse map as inverse_kinematics documents it."""
    x, y, y2, q = inverse_scalars(geom)
    wx, wy, wz, v = astuple(twist)
    return (0.0 - y2 * wy + q * v, 0.0 - x * wx + y * wy + q * v,
            0.0 + x * wx + y * wy + q * v, 0.0 + wz)


@st.composite
def near_overflow(draw, scale_of):
    """A geometry from 1e-300 to 1e300 mm and four values whose largest
    may lie near the one at which ``scale_of(geom)`` times it overflows."""
    size = st.floats(min_value=1e-300, max_value=1e300)
    r, arm = draw(size), draw(size)
    geom = RobotGeometry(r, arm, arm * draw(st.floats(0.01, 10.0)), arm,
                         arm, 20.0)
    near = (min(sys.float_info.max / 2.0 / scale_of(geom)
                * draw(st.floats(0.25, 4.0)), sys.float_info.max)
            * draw(st.sampled_from([1.0, -1.0])))
    value = st.just(near) | st.floats(allow_nan=False, allow_infinity=False)
    return geom, tuple(draw(value) for _ in range(4))


def _forward_scale(geom: RobotGeometry) -> float:
    r = geom.lug_radius_r
    return max(r, 2.0 * r / (geom.a_offset + geom.arm_length_l))


def _inverse_scale(geom: RobotGeometry) -> float:
    r = geom.lug_radius_r
    return max(1.0 / r, (geom.a_offset + geom.arm_length_l) / r)


@settings(max_examples=300, deadline=None)
@given(near_overflow(_forward_scale))
@example((ref_geom(), (1e308, -1e308, 1e308, 0.0)))
@example((ref_geom(), (-0.0, 0.0, -0.0, -0.0)))
@example((RobotGeometry(1e300, 1e-10, 5e-11, 1e-10, 1.0, 20.0),
          (1.0, 1.0, 1.0, 0.0)))
def test_forward_map_overflows_to_the_typed_error_without_a_warning(case):
    # RuntimeWarnings are errors in this suite.  Where the documented
    # scalar expression is finite the twist holds exactly its bits
    geom, rates = case
    cmd = CommandVector(*rates)
    if not all(map(math.isfinite, forward_scalars(geom))):
        with pytest.raises(InvalidGeometryError, match="not finite"):
            forward_kinematics(cmd, geom)
        return
    expected = forward_by_scalars(cmd, geom)
    if all(map(math.isfinite, expected)):
        assert bits(astuple(forward_kinematics(cmd, geom))) == bits(expected)
    else:
        with pytest.raises(ValueError, match="must be finite"):
            forward_kinematics(cmd, geom)


@settings(max_examples=300, deadline=None)
@given(near_overflow(_inverse_scale))
@example((ref_geom(), (1e308, -1e308, 1e308, -0.0)))
@example((ref_geom(), (0.0, -0.0, -0.0, -0.0)))
def test_inverse_map_equals_its_scalar_expression(case):
    geom, values = case
    twist = TwistVector(*values)
    if not all(map(math.isfinite, inverse_scalars(geom))):
        with pytest.raises(InvalidGeometryError, match="no finite inverse"):
            inverse_kinematics(twist, geom)
        return
    expected = inverse_by_scalars(twist, geom)
    if all(map(math.isfinite, expected)):
        assert bits(astuple(inverse_kinematics(twist, geom))) \
            == bits(expected)
    else:
        with pytest.raises(ValueError, match="must be finite"):
            inverse_kinematics(twist, geom)


@st.composite
def wide_geometries(draw):
    """Geometries from 1e-300 to 1e300 mm whose forward scalars are
    finite and whose k / 2 is a normal float."""
    size = st.floats(min_value=1e-300, max_value=1e300)
    arm = draw(size)
    geom = RobotGeometry(draw(size), arm, arm * draw(st.floats(0.01, 10.0)),
                         arm, arm, 20.0)
    scalars = forward_scalars(geom)
    assume(all(map(math.isfinite, scalars))
           and scalars[2] >= sys.float_info.min)
    return geom


@settings(max_examples=300, deadline=None)
@given(geometries() | wide_geometries(),
       st.floats(min_value=1e-300, max_value=1e300)
       | st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                   st.integers(-1073, -1000)),
       st.sampled_from([1.0, -1.0]))
@example(geom=ref_geom(), rate=3e-323, sign=1.0)
@example(geom=ref_geom(), rate=5e-324, sign=-1.0)
def test_equal_drive_rates_give_exactly_zero_wobble(geom, rate, sign):
    # criterion 2 in the documented order, down to subnormal rates, for
    # every geometry whose k / 2 is a normal float
    assume(math.isfinite(4.0 * max(forward_scalars(geom)) * rate))
    twist = forward_kinematics(CommandVector(*(sign * rate,) * 3, 0.0), geom)
    assert bits((twist.omega_x, twist.omega_y, twist.omega_z)) \
        == bits((0.0, 0.0, 0.0))
    # v_cz is 3 t th to three roundings, or to 2^-1074 where subnormal
    exact = 3 * Fraction(forward_scalars(geom)[3]) * Fraction(sign * rate)
    assert twist.v_cz == pytest.approx(float(exact), rel=4.0 * 2.0 ** -53,
                                       abs=2.0 ** -1074)


def test_each_map_checks_only_its_own_scalars():
    # r / (a + l) overflows, the inverse's scalars do not
    wide = RobotGeometry(1e300, 1e-10, 5e-11, 1e-10, 1.0, 20.0)
    with pytest.raises(InvalidGeometryError, match="not finite"):
        jacobian(wide)
    assert inverse_kinematics(TwistVector(1.0, 1.0, 1.0, 0.0), wide)
    # (a + l) / r overflows, the forward scalars do not
    long = RobotGeometry(15.0, 1e308, 1e308, 1e308, 1e308, 20.0)
    with pytest.raises(InvalidGeometryError, match="no finite inverse"):
        jacobian_inverse(long)
    assert forward_kinematics(CommandVector(1.0, 1.0, 1.0, 0.0), long)


def test_kinematics_and_planner_carry_no_numpy_overflow_guards():
    # the closed forms run on Python floats, which overflow to inf or nan
    # without a warning; the matrix products and their guards are gone
    from omnipipe import kinematics, planner
    for module in (kinematics, planner):
        assert not any(
            getattr(value, "__name__", "").split(".")[0] == "numpy"
            or type(value).__module__.split(".")[0] == "numpy"
            for value in vars(module).values())
        assert "numpy" not in inspect.getsource(module)
    source = inspect.getsource(kinematics)
    assert "errstate" not in source and "_HALF_FLOAT_MAX" not in source


def test_vectors_name_their_first_non_finite_field():
    with pytest.raises(ValueError,
                       match="^theta_dot_2 must be finite, got inf$"):
        CommandVector(1.0, math.inf, math.nan, 0.0)
    with pytest.raises(ValueError, match="^v_cz must be finite, got nan$"):
        TwistVector(0.0, -0.0, 1e308, math.nan)
    with pytest.raises(ValueError,
                       match="^omega_y must lie within the float range$"):
        TwistVector(0, -(10 ** 400), 0.0, 0.0)


@pytest.mark.parametrize("value", [True, False, "1", None, 1j])
def test_vectors_name_a_field_that_is_not_a_number(value):
    with pytest.raises(ValueError, match=re.escape(
            f"theta_dot_1 must be a number, got {value!r}")):
        CommandVector(value, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=re.escape(
            f"v_cz must be a number, got {value!r}")):
        TwistVector(0.0, 0.0, 0.0, value)


def test_vectors_take_ints_and_numpy_scalars():
    assert CommandVector(1, 2, 3, 0) == CommandVector(1.0, 2.0, 3.0, 0.0)
    assert TwistVector(np.float32(0.5), 0, 0, 1) == TwistVector(0.5, 0.0,
                                                                0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(RATES, RATES, RATES, RATES)
def test_roundtrip_inverse_of_forward(t1, t2, t3, t4):
    geom = ref_geom()
    cmd = CommandVector(t1, t2, t3, t4)
    back = inverse_kinematics(forward_kinematics(cmd, geom), geom)
    assert np.allclose(astuple(back), astuple(cmd), atol=1e-9)


# -- Coriolis transform and center velocity -----------------------------------

def test_coriolis_transform_adds_cross_term():
    out = coriolis_transform([0.0, 0.0, 10.0], [60.0, 0.0, 0.0], 0.5)
    assert np.allclose(out, [0.0, 30.0, 10.0])


def test_coriolis_transform_identity_without_spin():
    out = coriolis_transform([1.0, 2.0, 3.0], [60.0, 0.0, 0.0], 0.0)
    assert np.allclose(out, [1.0, 2.0, 3.0])


def test_center_velocity_planar_cancellation_equal_arms():
    mv = ModuleVelocities(10.0, 20.0, 30.0, 60.0, 60.0, 60.0)
    v = center_velocity(mv, 2.0)
    assert abs(v[0]) < 1e-12 and abs(v[1]) < 1e-12
    assert v[2] == pytest.approx(20.0, rel=1e-12)


def test_center_velocity_unequal_arms_leaves_residual():
    mv = ModuleVelocities(0.0, 0.0, 0.0, 60.0, 55.0, 50.0)
    v = center_velocity(mv, 1.0)
    # hand-expanded cross products for arms 60/55/50 at 0/+120/-120 deg
    assert v[0] == pytest.approx(-math.sqrt(3.0) * 5.0 / 6.0, rel=1e-12)
    assert v[1] == pytest.approx(2.5, rel=1e-12)
    assert v[2] == 0.0


def test_module_positions_on_circle():
    mv = ModuleVelocities(0.0, 0.0, 0.0, 60.0, 60.0, 60.0)
    p1, p2, p3 = module_positions(mv)
    assert np.allclose(p1, [60.0, 0.0, 0.0])
    assert np.allclose(p2, [-30.0, 30.0 * math.sqrt(3.0), 0.0])
    assert np.allclose(p3, [-30.0, -30.0 * math.sqrt(3.0), 0.0])


def test_lumped_model_returns_tuples_of_floats():
    mv = ModuleVelocities(10, 20, 30, 60, 55, 50)
    vectors = (*module_positions(mv), center_velocity(mv, 2),
               coriolis_transform([0, 0, 10], [60, 0, 0], 0.5))
    for vector in vectors:
        assert type(vector) is tuple and len(vector) == 3
        assert all(type(v) is float for v in vector)


@pytest.mark.parametrize("field, value, message", [
    ("v1", math.nan, "v1 must be finite, got nan"),
    ("v3", -math.inf, "v3 must be finite, got -inf"),
    ("v2", 10 ** 400, "v2 must lie within the float range"),
    ("v2", True, "v2 must be a number, got True"),
    ("v1", "60", "v1 must be a number, got '60'"),
    ("arm_l2", None, "arm_l2 must be a number, got None"),
    ("arm_l3", math.inf, "arm_l3 must be finite, got inf"),
    ("arm_l1", 0.0, "arm_l1 must be > 0, got 0.0"),
])
def test_module_velocities_name_a_bad_field(field, value, message):
    fields = dict(v1=60.0, v2=60.0, v3=60.0, arm_l1=60.0, arm_l2=55.0,
                  arm_l3=50.0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModuleVelocities(**fields)


def test_module_linear_velocities_scale_by_lug_radius():
    mv = module_linear_velocities(CommandVector(1.0, 2.0, 3.0, 0.0),
                                  ref_geom())
    assert mv.speeds == (15.0, 30.0, 45.0)
    assert mv.equal_arms()


def test_with_nominal_arms_resets_extensions():
    mv = ModuleVelocities(1.0, 2.0, 3.0, 50.0, 55.0, 65.0)
    assert with_nominal_arms(mv, ref_geom()).arms == (60.0, 60.0, 60.0)


# -- radius of curvature -------------------------------------------------------

def test_radius_of_curvature_worked_value():
    mv = ModuleVelocities(15.0, 30.0, 45.0, 60.0, 60.0, 60.0)
    twist = TwistVector(math.sqrt(3.0) / 12.0, 0.25, 0.0, 30.0)
    assert radius_of_curvature(mv, twist) == pytest.approx(
        60.0 * math.sqrt(3.0), rel=1e-12)


def test_radius_of_curvature_straight_is_infinite():
    mv = ModuleVelocities(30.0, 30.0, 30.0, 60.0, 60.0, 60.0)
    twist = TwistVector(0.0, 0.0, 0.0, 30.0)
    assert radius_of_curvature(mv, twist) == math.inf


def test_radius_of_curvature_all_zero_is_undefined():
    mv = ModuleVelocities(0.0, 0.0, 0.0, 60.0, 60.0, 60.0)
    with pytest.raises(UndefinedCurvatureError):
        radius_of_curvature(mv, TwistVector(0.0, 0.0, 0.0, 0.0))


@settings(max_examples=100, deadline=None)
@given(RATES, RATES, RATES)
def test_radius_infinite_iff_angular_rate_negligible(t1, t2, t3):
    geom = ref_geom()
    cmd = CommandVector(t1, t2, t3, 0.0)
    twist = forward_kinematics(cmd, geom)
    mv = module_linear_velocities(cmd, geom)
    if (t1, t2, t3) == (0.0, 0.0, 0.0):
        return
    R = radius_of_curvature(mv, twist)
    if twist.angular_norm() < 1e-12:
        assert R == math.inf
    else:
        assert R > 0.0


# -- exact oracles -------------------------------------------------------------
# Each helper is one IEEE double operation: on finite operands the exact
# rational result rounded to nearest-even, overflowing to an infinity; on
# an infinite operand, Python's own float operation, which IEEE defines
# exactly.


def _rounded(q: Fraction) -> float:
    """The nonzero rational q correctly rounded to a float."""
    try:
        f = float(q)  # int / int true division rounds correctly
    except OverflowError:
        f = math.inf
    return math.copysign(f, -1.0 if q < 0 else 1.0)  # an underflow too


def _negative(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _exact(op, x: float, y: float, zero_sign) -> float:
    if not (math.isfinite(x) and math.isfinite(y)):
        return op(x, y)
    q = op(Fraction(x), Fraction(y))
    if q == 0:
        return -0.0 if zero_sign(_negative(x), _negative(y)) else 0.0
    return _rounded(q)


def exact_add(x: float, y: float) -> float:
    # an exact zero sum is -0.0 only from two -0.0
    return _exact(operator.add, x, y, lambda a, b: a and b)


def exact_sub(x: float, y: float) -> float:
    return exact_add(x, -y)


def exact_mul(x: float, y: float) -> float:
    return _exact(operator.mul, x, y, operator.ne)


def exact_div(x: float, y: float) -> float:
    return _exact(operator.truediv, x, y, operator.ne)


def exact_ldexp(x: float, e: int) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return _rounded(Fraction(x) * Fraction(2) ** e)


SQRT3 = math.sqrt(3.0)  # IEEE sqrt rounds correctly on every host


def exact_forward(cmd: CommandVector, geom: RobotGeometry) -> tuple:
    """forward_kinematics' documented sequence from the geometry on:
    (its four scalars, the twist)."""
    r = geom.lug_radius_r
    lever = exact_add(geom.a_offset, geom.arm_length_l)
    k = exact_div(r, lever)
    s = exact_mul(exact_div(SQRT3, 2.0), k)
    h, t = exact_div(k, 2.0), exact_div(r, 3.0)
    th1, th2, th3, th4 = astuple(cmd)
    top, low = max(abs(th1), abs(th2), abs(th3)), min(h, t)
    e = 0
    if exact_mul(top, low) < sys.float_info.min and top and low:
        e = -1020 - math.frexp(top)[1] - math.frexp(low)[1]
        th1, th2, th3 = (exact_ldexp(th, e) for th in (th1, th2, th3))
    wx = exact_add(exact_sub(0.0, exact_mul(s, th2)), exact_mul(s, th3))
    wy = exact_add(exact_add(exact_sub(0.0, exact_mul(k, th1)),
                             exact_mul(h, th2)), exact_mul(h, th3))
    v = exact_add(exact_add(exact_add(0.0, exact_mul(t, th1)),
                            exact_mul(t, th2)), exact_mul(t, th3))
    return (k, s, h, t), (exact_ldexp(wx, -e), exact_ldexp(wy, -e),
                          exact_add(0.0, th4), exact_ldexp(v, -e))


def exact_inverse(twist: TwistVector, geom: RobotGeometry) -> tuple:
    """inverse_kinematics' documented sequence from the geometry on:
    (its four scalars, the rates)."""
    r = geom.lug_radius_r
    lever = exact_add(geom.a_offset, geom.arm_length_l)
    y = exact_div(lever, exact_mul(3.0, r))
    x = exact_div(lever, exact_mul(SQRT3, r))
    y2, q = exact_mul(2.0, y), exact_div(1.0, r)
    wx, wy, wz, v = astuple(twist)
    common = (exact_mul(y, wy), exact_mul(q, v))
    return (x, y, y2, q), (
        exact_add(exact_sub(0.0, exact_mul(y2, wy)), common[1]),
        exact_add(exact_add(exact_sub(0.0, exact_mul(x, wx)), common[0]),
                  common[1]),
        exact_add(exact_add(exact_add(0.0, exact_mul(x, wx)), common[0]),
                  common[1]),
        exact_add(0.0, wz))


def any_exponent(low: int = -1074, high: int = 1023):
    """Floats of either sign whose binary exponent is drawn uniformly from
    [low, high], subnormals included, and signed zeros."""
    return st.builds(
        lambda m, e, sign: sign * math.ldexp(m, e),
        st.floats(0.5, 1.0, exclude_max=True), st.integers(low, high + 1),
        st.sampled_from([1.0, -1.0])).filter(math.isfinite) | st.sampled_from(
            [0.0, -0.0])


@st.composite
def geometries_at_every_scale(draw):
    """Geometries whose lug radius, arm and offset each lie anywhere in
    the positive float range."""
    size = any_exponent().map(abs).filter(bool)
    arm = draw(size)
    return RobotGeometry(draw(size), arm, draw(size), arm, arm, 20.0)


def assert_equals_the_exact_sequence(compute, exact, value, geom):
    """compute(value, geom) holds the exact sequence's bits, or raises the
    typed error where a scalar or a component is not a finite float."""
    scalars, expected = exact(value, geom)
    if not all(map(math.isfinite, scalars)):
        with pytest.raises(InvalidGeometryError, match="finite"):
            compute(value, geom)
    elif not all(map(math.isfinite, expected)):
        with pytest.raises(ValueError, match="must be finite"):
            compute(value, geom)
    else:
        assert bits(astuple(compute(value, geom))) == bits(expected)


@settings(max_examples=600, deadline=None)
@given(geometries() | wide_geometries() | geometries_at_every_scale(),
       st.tuples(*[any_exponent()] * 4)
       | st.tuples(*[any_exponent(-1074, -1000)] * 3, any_exponent()))
@example(geom=ref_geom(), rates=(3e-323, 3e-323, 3e-323, 0.0))
@example(geom=ref_geom(), rates=(5e-324, -5e-324, 0.0, -0.0))
@example(geom=ref_geom(), rates=(1e308, -1e308, 1e308, 0.0))
def test_forward_map_equals_its_exact_sequence_at_every_scale(geom, rates):
    # every component, the subnormal scaling branch too, is the
    # documented left-to-right sequence of correctly rounded operations
    assert_equals_the_exact_sequence(forward_kinematics, exact_forward,
                                     CommandVector(*rates), geom)


@settings(max_examples=600, deadline=None)
@given(geometries() | wide_geometries() | geometries_at_every_scale(),
       st.tuples(*[any_exponent()] * 4))
@example(geom=ref_geom(), values=(5e-324, -5e-324, 0.0, -0.0))
@example(geom=ref_geom(), values=(1e308, -1e308, 1e308, -0.0))
def test_inverse_map_equals_its_exact_sequence_at_every_scale(geom, values):
    assert_equals_the_exact_sequence(inverse_kinematics, exact_inverse,
                                     TwistVector(*values), geom)


def test_the_scaling_branch_is_drawn():
    # rates whose largest times min(h, t) is below 2^-1022 take the
    # branch; the exact sequence then differs from the unscaled one
    cmd = CommandVector(3e-323, 5e-324, 2e-323, 0.0)
    scaled = exact_forward(cmd, ref_geom())[1]
    assert bits(astuple(forward_kinematics(cmd, ref_geom()))) == bits(scaled)
    k, s, h, t = forward_scalars(ref_geom())
    unscaled = (0.0 - s * 5e-324 + s * 2e-323,
                0.0 - k * 3e-323 + h * 5e-324 + h * 2e-323)
    assert bits(scaled[:2]) != bits(unscaled)


def exact_norm_within_one_ulp(norm: float, components) -> bool:
    """norm lies within one ulp of the exact Euclidean norm."""
    square = sum(Fraction(c) ** 2 for c in components)
    if math.isinf(norm):
        return square > Fraction(sys.float_info.max) ** 2
    ulp = Fraction(math.ulp(norm))
    low = max(Fraction(norm) - ulp, Fraction(0))
    return low ** 2 <= square <= (Fraction(norm) + ulp) ** 2


@settings(max_examples=500, deadline=None)
@given(st.tuples(*[any_exponent()] * 3))
@example((1e200, 0.0, 0.0))
@example((3e-200, 4e-200, 0.0))
@example((5e-324, 5e-324, 5e-324))
@example((1.7e308, 1.7e308, 0.0))
def test_angular_norm_is_within_one_ulp_at_every_scale(components):
    norm = TwistVector(*components, 0.0).angular_norm()
    assert exact_norm_within_one_ulp(norm, components)


def test_angular_norm_neither_overflows_nor_underflows():
    assert TwistVector(1e200, 0.0, 0.0, 0.0).angular_norm() == 1e200
    assert TwistVector(0.0, -1e200, 0.0, 0.0).angular_norm() == 1e200
    assert TwistVector(3e-200, 4e-200, 0.0, 0.0).angular_norm() == 5e-200
    assert TwistVector(1e-200, 0.0, 0.0, 0.0).angular_norm() == 1e-200
    mv = ModuleVelocities(15.0, 15.0, 15.0, 60.0, 60.0, 60.0)
    assert radius_of_curvature(mv, TwistVector(1e200, 0.0, 0.0, 0.0)) \
        == 45.0 / (3.0 * 1e200)
    assert radius_of_curvature(mv, TwistVector(1e200, -1e200, 1e200, 0.0)) \
        == 45.0 / (3.0 * math.hypot(1e200, 1e200, 1e200))
