import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_jacobian_returns_private_copy():
    geom = ref_geom()
    J = jacobian(geom)
    J[0, 0] = 99.0
    assert jacobian(geom)[0, 0] == 0.0


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


@settings(max_examples=300, deadline=None)
@given(geometries(), RATES, RATES, RATES, RATES)
def test_closed_form_inverse_matches_a_numerical_solve(geom, wx, wy, wz, v):
    J = jacobian(geom)
    assert np.max(np.abs(jacobian_inverse(geom) @ J - np.eye(4))) <= 1e-15
    twist = TwistVector(wx, wy, wz, v)
    reference = np.linalg.solve(J, twist.as_array())
    got = inverse_kinematics(twist, geom).as_array()
    assert (np.max(np.abs(got - reference))
            <= 1e-12 * np.max(np.abs(reference)))
    with pytest.raises(ValueError):
        jacobian_inverse(geom)[0, 0] = 1.0


@pytest.mark.parametrize("r, arm", [(15.0, 1e308), (1e-308, 60.0),
                                    (1e-310, 1e-310)])
def test_inverse_rejects_a_lever_to_radius_ratio_past_the_float_range(
        r, arm):
    geom = RobotGeometry(r, arm, arm, arm, arm, 20.0)
    with pytest.raises(InvalidGeometryError, match="no finite inverse"):
        inverse_kinematics(TwistVector(0.0, 0.5, 0.0, 100.0), geom)


@st.composite
def rates_near_overflow(draw):
    """A geometry from 1e-300 to 1e300 mm and a command whose largest rate
    lies near the one at which the forward map's product overflows."""
    size = st.floats(min_value=1e-300, max_value=1e300)
    r, arm = draw(size), draw(size)
    geom = RobotGeometry(r, arm, arm * draw(st.floats(0.01, 10.0)), arm,
                         arm, 20.0)
    scale = max(r, 2.0 * r / (geom.a_offset + geom.arm_length_l))
    near = (min(sys.float_info.max / 2.0 / scale * draw(st.floats(0.25, 4.0)),
                sys.float_info.max) * draw(st.sampled_from([1.0, -1.0])))
    rate = st.just(near) | st.floats(allow_nan=False, allow_infinity=False)
    return geom, CommandVector(draw(rate), draw(rate), draw(rate),
                               draw(rate))


@settings(max_examples=300, deadline=None)
@given(rates_near_overflow())
@example((ref_geom(), CommandVector(1e308, -1e308, 1e308, 0.0)))
def test_forward_map_overflows_to_the_typed_error_without_a_warning(case):
    # RuntimeWarnings are errors in this suite, so the unguarded product
    # must never run where it overflows; where it does not, the twist is
    # the plain product's bits
    geom, cmd = case
    with np.errstate(all="ignore"):
        expected = jacobian(geom) @ cmd.as_array()
    if np.isfinite(expected).all():
        twist = forward_kinematics(cmd, geom)
        assert twist.as_array().tobytes() == expected.tobytes()
    else:
        with pytest.raises(ValueError, match="must be finite"):
            forward_kinematics(cmd, geom)


def test_vectors_name_their_first_non_finite_field():
    with pytest.raises(ValueError, match="^theta_dot_2 must be finite$"):
        CommandVector(1.0, math.inf, math.nan, 0.0)
    with pytest.raises(ValueError, match="^v_cz must be finite$"):
        TwistVector(0.0, -0.0, 1e308, math.nan)


@settings(max_examples=200, deadline=None)
@given(RATES, RATES, RATES, RATES)
def test_roundtrip_inverse_of_forward(t1, t2, t3, t4):
    geom = ref_geom()
    cmd = CommandVector(t1, t2, t3, t4)
    back = inverse_kinematics(forward_kinematics(cmd, geom), geom)
    assert np.allclose(back.as_array(), cmd.as_array(), atol=1e-9)


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
