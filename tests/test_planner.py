import json
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnipipe import (REFERENCE_GEOMETRY, CommandVector, MissionStep,
                      PlanError, PlannerConfig, RatioMode, StepKind,
                      drive_sign, elbow, escape_rotation,
                      forward_kinematics, holonomic_rotate_step,
                      in_singularity, module_linear_velocities, plan_elbow,
                      plan_mission, plan_straight, plan_tee, plan_to_dict,
                      plan_to_json, radius_of_curvature, region_for_tee,
                      roll, rolling_gain, run_mission, straight, tee)
from omnipipe import (PipeNetwork, RobotGeometry, SegmentKind, TeeExit,
                      TwistVector, inverse_kinematics, shift_reference)
from omnipipe import intervals as iv
from omnipipe import drive, planner, sim

D = 160.0


def tee_region(cfg, geom):
    return region_for_tee(tee(D), cfg, geom)


# -- straight runs -------------------------------------------------------------

def test_plan_straight_speed_and_duration(cfg, geom):
    step = plan_straight(1000.0, cfg, geom)
    assert step.kind is StepKind.DRIVE
    assert step.duration_s == pytest.approx(10.0)
    rate = 100.0 / 15.0
    assert step.command == CommandVector(rate, rate, rate, 0.0)
    twist = forward_kinematics(step.command, geom)
    assert twist.v_cz == pytest.approx(100.0, rel=1e-12)
    assert twist.angular_norm() < 1e-15


def test_plan_straight_pre_flips_and_tags_its_segment(cfg, geom):
    rate = 100.0 / 15.0
    step = plan_straight(1000.0, cfg, geom, alpha_rad=math.pi,
                         segment_index=4)
    assert step.command == CommandVector(-rate, -rate, -rate, 0.0)
    assert step.segment_index == 4
    # modules in the deadband keep their sign: 0 pre-flips as 1
    step = plan_straight(1000.0, cfg, geom, alpha_rad=math.pi / 2.0)
    assert step.command == CommandVector(rate, rate, rate, 0.0)


def test_plan_straight_rejects_zero_length(cfg, geom):
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(PlanError):
            plan_straight(bad, cfg, geom)


# -- holonomic rotation ---------------------------------------------------------

def rotated(delta, geom, theta5=0.0, alpha=0.0):
    """holonomic_rotate_step's step, after checking that the roll state it
    returns is drive.roll's for the step's roll."""
    step, theta5_after, alpha_after = holonomic_rotate_step(
        delta, 0.5, geom, D, theta5, alpha)
    roll_rad = 0.0 if step is None else (step.command.theta_dot_4
                                         * step.duration_s)
    assert (theta5_after, alpha_after) == roll(theta5, alpha, roll_rad, D,
                                               geom)
    return step


def test_rotate_step_sets_rate_sign_and_duration(geom):
    step = rotated(30.0, geom, theta5=100.0, alpha=3.0)
    assert step.kind is StepKind.HOLONOMIC_ROTATE
    assert step.command == CommandVector(0.0, 0.0, 0.0, 0.5)
    assert step.duration_s == pytest.approx(math.radians(30.0) / 0.5)
    assert step.roll_delta_deg() == pytest.approx(30.0)
    down = rotated(-10.0, geom, theta5=5.0)
    assert down.command.theta_dot_4 == -0.5
    assert down.roll_delta_deg() == pytest.approx(-10.0)


def test_rotate_step_zero_delta_is_no_step(geom):
    assert rotated(0.0, geom, theta5=42.0, alpha=2.0) is None


def test_rotate_step_bounds(geom):
    with pytest.raises(PlanError):
        holonomic_rotate_step(60.1, 0.5, geom, D)
    with pytest.raises(PlanError):
        holonomic_rotate_step(10.0, 0.0, geom, D)
    assert rotated(60.0, geom, theta5=330.0) is not None


def test_rotate_hazard_marks_drive_line_crossings(geom):
    # gain is 4, so 22.5 deg of roll re-aims the wheels by 90 deg
    assert rolling_gain(D, geom) == pytest.approx(4.0)
    assert rotated(22.5, geom).hazard_self_rotation
    assert rotated(30.0, geom).hazard_self_rotation
    assert not rotated(22.0, geom).hazard_self_rotation
    # the flag follows the accumulated self-rotation, not the roll alone
    assert rotated(-20.0, geom,
                   alpha=math.radians(12.0)).hazard_self_rotation
    assert not rotated(30.0, geom,
                       alpha=math.radians(-100.0)).hazard_self_rotation
    # the first elbow's -3 deg roll takes alpha to 12 deg, and the second
    # elbow's -20 deg roll from 12 to 92 deg
    net = PipeNetwork((straight(D, 300.0), elbow(D, 320.0, 90.0, 0.0),
                       straight(D, 300.0), elbow(D, 320.0, 90.0, -140.0),
                       straight(D, 300.0)))
    rolls = [s for s in plan_mission(net, 3.0, PlannerConfig(), geom)
             if s.kind is StepKind.HOLONOMIC_ROTATE]
    assert [s.roll_delta_deg() for s in rolls] == pytest.approx([-3.0, -20.0])
    assert [s.hazard_self_rotation for s in rolls] == [False, True]


# -- elbows ----------------------------------------------------------------------

def test_elbow_plan_when_already_aligned(cfg, geom):
    seg = elbow(D, 240.0, 90.0)
    steps, _, _ = plan_elbow(seg, 0.0, cfg, geom)
    assert [s.kind for s in steps] == [StepKind.TURN_ELBOW]
    cmd = steps[0].command
    speeds = [15.0 * v for v in (cmd.theta_dot_1, cmd.theta_dot_2,
                                 cmd.theta_dot_3)]
    assert speeds == pytest.approx([100.0 * 160.0 / 240.0,
                                    100.0 * 280.0 / 240.0,
                                    100.0 * 280.0 / 240.0], rel=1e-12)
    assert sum(speeds) / 3.0 == pytest.approx(100.0, rel=1e-12)
    assert cmd.theta_dot_4 == 0.0
    assert steps[0].duration_s == pytest.approx(seg.arc_length() / 100.0)


def test_elbow_plan_rotates_onto_inner_module_grid(cfg, geom):
    seg = elbow(D, 240.0, 90.0)
    steps, _, _ = plan_elbow(seg, 60.0, cfg, geom)
    assert [s.kind for s in steps] == [StepKind.HOLONOMIC_ROTATE,
                                       StepKind.TURN_ELBOW]
    assert steps[0].roll_delta_deg() == pytest.approx(-60.0)
    # 60 deg of roll self-rotates the wheels 240 deg, so forward drive
    # needs reversed spin commands
    drive = steps[1].command
    assert drive.theta_dot_1 < 0 and drive.theta_dot_2 < 0
    ratios = sorted(abs(v) for v in (drive.theta_dot_1, drive.theta_dot_2,
                                     drive.theta_dot_3))
    assert ratios[1] / ratios[0] == pytest.approx(280.0 / 160.0, rel=1e-12)


def test_elbow_speed_mean_holds_across_roll_grid(cfg, geom):
    seg = elbow(D, 240.0, 90.0)
    for theta5 in np.arange(2.0, 120.0, 7.0):
        steps, _, _ = plan_elbow(seg, float(theta5), cfg, geom,
                                 with_holonomic=False)
        cmd = steps[-1].command
        mean = 15.0 * (cmd.theta_dot_1 + cmd.theta_dot_2
                       + cmd.theta_dot_3) / 3.0
        assert abs(mean) == pytest.approx(100.0, rel=1e-12)


def test_elbow_ratio_mode_flows_through(geom):
    seg = elbow(D, 300.0, 90.0)
    gen = plan_elbow(seg, 0.0, PlannerConfig(ratio_mode=RatioMode.GENERALIZED),
                     geom)[0][-1].command
    fixed = plan_elbow(seg, 0.0,
                        PlannerConfig(ratio_mode=RatioMode.FIXED_RATIO),
                        geom)[0][-1].command
    assert gen.theta_dot_2 / gen.theta_dot_1 == pytest.approx(340.0 / 220.0,
                                                              rel=1e-12)
    assert fixed.theta_dot_2 / fixed.theta_dot_1 == pytest.approx(
        280.0 / 160.0, rel=1e-12)


def test_elbow_rejects_other_segments(cfg, geom):
    with pytest.raises(PlanError):
        plan_elbow(straight(D, 100.0), 0.0, cfg, geom)


def test_alignment_dodges_the_no_motion_line(cfg, geom):
    # a -22.5 deg roll would park the wheels exactly on the 90 deg line;
    # the planner nudges the target so drive authority survives
    steps, _, _ = plan_elbow(elbow(D, 240.0, 90.0), 22.5, cfg, geom)
    assert steps[0].kind is StepKind.HOLONOMIC_ROTATE
    applied = steps[0].roll_delta_deg()
    assert applied != pytest.approx(-22.5, abs=1e-6)
    assert abs(applied + 22.5) < 1.0
    alpha = -math.radians(applied) * rolling_gain(D, geom)
    assert drive_sign(alpha, cfg.deadband_rad) != 0
    drive = steps[1].command
    assert abs(drive.theta_dot_1) > 0


# -- tees ------------------------------------------------------------------------

def test_tee_branch_plan_from_gap_center(cfg, geom):
    region = tee_region(cfg, geom)
    steps, _, _ = plan_tee(tee(D), 30.0, region, cfg, geom)
    assert [s.kind for s in steps] == [StepKind.DRIVE, StepKind.TURN_TEE,
                                       StepKind.DRIVE]
    approach, turn, exit_ = steps
    assert approach.duration_s == pytest.approx(0.25 * D / 100.0)
    assert (forward_kinematics(approach.command, geom).v_cz
            * approach.duration_s) == pytest.approx(0.25 * D, rel=1e-12)
    twist = forward_kinematics(turn.command, geom)
    assert twist.v_cz == pytest.approx(100.0, rel=1e-12)
    mv = module_linear_velocities(turn.command, geom)
    assert radius_of_curvature(mv, twist) == pytest.approx(80.0, rel=1e-12)
    assert twist.omega_z == pytest.approx(0.0, abs=1e-12)
    assert turn.duration_s == pytest.approx((math.pi / 2.0)
                                            / (100.0 / 80.0), rel=1e-12)
    # approach + turn arc + exit covers the whole segment
    total = 100.0 * (approach.duration_s + turn.duration_s
                     + exit_.duration_s)
    assert total == pytest.approx(tee(D).arc_length(), rel=1e-12)


def test_tee_turn_axis_follows_roll(cfg, geom):
    region = tee_region(cfg, geom)
    for theta5 in (30.0, 90.0):
        turn = [s for s in plan_tee(tee(D), theta5, region, cfg, geom)[0]
                if s.kind is StepKind.TURN_TEE][0]
        twist = forward_kinematics(turn.command, geom)
        expect = (-math.sin(math.radians(theta5)),
                  math.cos(math.radians(theta5)))
        norm = twist.angular_norm()
        assert (twist.omega_x / norm, twist.omega_y / norm) \
            == pytest.approx(expect, rel=1e-9)


def test_tee_plan_escapes_singular_start(cfg, geom):
    region = tee_region(cfg, geom)
    steps, _, _ = plan_tee(tee(D), 0.0, region, cfg, geom)
    assert steps[0].kind is StepKind.HOLONOMIC_ROTATE
    assert steps[0].roll_delta_deg() == pytest.approx(30.0)
    assert steps[0].hazard_self_rotation


def test_tee_plan_without_holonomic_never_rotates(cfg, geom):
    region = tee_region(cfg, geom)
    for theta5 in (0.0, 30.0, 58.0, 117.0):
        steps, _, _ = plan_tee(tee(D), theta5, region, cfg, geom,
                         with_holonomic=False)
        assert all(s.kind is not StepKind.HOLONOMIC_ROTATE for s in steps)


def test_tee_turn_onset_clears_singularity_for_any_start(cfg, geom):
    region = tee_region(cfg, geom)
    for theta5 in np.arange(0.0, 120.0, 1.0):
        steps, _, _ = plan_tee(tee(D), float(theta5), region, cfg, geom)
        applied = sum(s.roll_delta_deg() for s in steps)
        assert not in_singularity(float(theta5) + applied, region)


def test_tee_through_plan_straddles_branch(cfg, geom):
    region = tee_region(cfg, geom)
    seg = tee(D, exit=TeeExit.THROUGH)
    aligned, _, _ = plan_tee(seg, 60.0, region, cfg, geom)
    assert [s.kind for s in aligned] == [StepKind.DRIVE]
    assert aligned[0].duration_s == pytest.approx(D / 100.0)
    offset, _, _ = plan_tee(seg, 40.0, region, cfg, geom)
    assert offset[0].kind is StepKind.HOLONOMIC_ROTATE
    assert offset[0].roll_delta_deg() == pytest.approx(20.0)


def test_tee_unreachable_equivalent_radius(cfg, geom):
    region = tee_region(cfg, geom)
    for _ in range(2):  # the turn memo stores no error
        with pytest.raises(PlanError):
            plan_tee(tee(D, equivalent_radius_mm=10.0), 30.0, region, cfg,
                     geom)


def turn_weights(axis, geom):
    """r (row i of J^-1) . axis, as the turn-rate solve forms them."""
    rates = inverse_kinematics(TwistVector(axis[0], axis[1], 0.0, 0.0),
                               geom)
    r = geom.lug_radius_r
    return (r * rates.theta_dot_1, r * rates.theta_dot_2,
            r * rates.theta_dot_3)


@settings(max_examples=300, deadline=None)
@given(lever=st.floats(1e8, 1e300), r=st.floats(1e-3, 1e3),
       theta5=st.floats(0.0, 360.0), ulps=st.integers(-3, 3),
       speed=st.sampled_from([1e-300, 1e300]) | st.floats(1e-300, 1e300))
@example(lever=6.1e13, r=1.0, theta5=118.0, ulps=1, speed=100.0)
def test_turn_rate_near_its_bound_ends_in_plan_error(lever, r, theta5, ulps,
                                                     speed):
    # past 1e8 mm of lever the 1e-9 mm margin is below the bound's
    # rounding, so R can pass the bound check and still round the fixed
    # point's denominator 3R - s . w to zero (the example does)
    geom = RobotGeometry(r, lever / 2.0, lever / 2.0, lever / 2.0,
                         lever / 2.0, 20.0)
    axis = (-math.sin(math.radians(theta5)), math.cos(math.radians(theta5)))
    radius = sum(map(abs, turn_weights(axis, geom))) / 3.0
    for _ in range(abs(ulps)):
        radius = math.nextafter(radius, math.copysign(math.inf, ulps))
    try:
        omega = planner._turn_rate_for_radius(speed, axis, radius, geom)
    except PlanError:
        return
    assert math.isfinite(omega) and omega > 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 1e6), st.floats(1.0, 1e6), st.floats(0.01, 10.0))
def test_forward_turn_radius_is_the_row_norm_of_the_turn_weights(r, arm,
                                                                 ratio):
    geom = RobotGeometry(r, arm, ratio * arm, arm, arm, 20.0)
    lever = geom.a_offset + geom.arm_length_l
    assert planner.forward_turn_radius(geom) == 2.0 * lever / 3.0
    # row i of r J^-1[:3, :2] holds module i's weights for the x and y axes
    rows = zip(turn_weights((1.0, 0.0), geom), turn_weights((0.0, 1.0), geom))
    for wx, wy in rows:
        assert math.hypot(wx, wy) == pytest.approx(2.0 * lever / 3.0,
                                                   rel=1e-15)


def test_drives_at_one_roll_state_share_one_command(cfg, geom, tee_net):
    plan = plan_mission(tee_net, 30.0, cfg, geom)
    drives = [s for s in plan if s.kind is StepKind.DRIVE]
    assert [s.note for s in drives] == ["", "approach junction",
                                        "exit junction", ""]
    assert all(s.command is drives[0].command for s in drives)


@pytest.mark.parametrize("sign", [1, -1, 0])
def test_tee_turn_at_either_zero_roll_has_the_same_bits(geom, sign):
    # so the turn memo may key theta5 = 0.0 and -0.0 alike
    solve = planner._tee_turn.__wrapped__
    turns = [solve(100.0, theta5, tee(D).tee_equivalent_radius, geom, sign)
             for theta5 in (0.0, -0.0)]
    images = [[x.hex() for x in (omega, *astuple(command))]
              for omega, command in turns]
    assert images[0] == images[1]


def test_turn_and_drive_memos_are_bounded(cfg, geom):
    # without the escape each initial roll starts the turn at its own roll
    net = PipeNetwork((tee(D), straight(D, 300.0)))
    turns = planner._tee_turn.cache_info().maxsize
    for k in range(turns + 10):
        plan_mission(net, k * 0.1, cfg, geom, with_holonomic=False)
    assert planner._tee_turn.cache_info().currsize == turns
    info = planner._drive_command.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_tee_trigger_fraction_is_configurable(geom):
    cfg = PlannerConfig(tee_trigger_fraction=0.4)
    region = tee_region(cfg, geom)
    steps, _, _ = plan_tee(tee(D), 30.0, region, cfg, geom)
    approach, turn = steps[0], steps[1]
    assert approach.kind is StepKind.DRIVE
    assert turn.kind is StepKind.TURN_TEE
    assert approach.duration_s == pytest.approx(0.4 * D / 100.0)
    assert (forward_kinematics(approach.command, geom).v_cz
            * approach.duration_s) == pytest.approx(0.4 * D, rel=1e-12)


# -- whole missions ---------------------------------------------------------------

def test_mission_tags_segments_and_tracks_roll(cfg, geom, tee_net):
    steps = plan_mission(tee_net, 0.0, cfg, geom)
    assert steps[0].segment_index == 0
    assert steps[-1].segment_index == 2
    assert all(s.segment_index is not None for s in steps)
    kinds = [s.kind for s in steps]
    assert StepKind.TURN_TEE in kinds
    assert kinds[0] is StepKind.DRIVE


def test_mission_reverses_drive_after_quarter_wheel_roll(cfg, geom):
    net = PipeNetwork((straight(D, 500.0), elbow(D, 240.0, 90.0),
                       straight(D, 300.0)))
    steps = plan_mission(net, 60.0, cfg, geom)
    assert steps[0].command.theta_dot_1 > 0
    rotates = [s for s in steps if s.kind is StepKind.HOLONOMIC_ROTATE]
    assert len(rotates) == 1
    assert rotates[0].roll_delta_deg() == pytest.approx(-60.0)
    # -60 deg of roll self-rotates the wheels +240 deg; every later drive
    # command is pre-flipped so the robot still advances
    after = [s for s in steps[steps.index(rotates[0]) + 1:]
             if s.kind is not StepKind.HOLONOMIC_ROTATE]
    assert after and all(s.command.theta_dot_1 < 0 for s in after)


def test_mission_shifts_roll_reference_between_turns(cfg, geom):
    # first turn plane at 45 deg, second at 30: after the elbow the frame
    # reference changes by 15 deg and the tee alignment must absorb it
    net = PipeNetwork((
        straight(D, 400.0),
        elbow(D, 240.0, 90.0, turn_plane_roll_deg=45.0),
        straight(D, 300.0),
        tee(D, branch_roll_deg=30.0),
        straight(D, 200.0),
    ))
    steps = plan_mission(net, 30.0, cfg, geom)
    region = region_for_tee(net.segments[3], cfg, geom)
    theta5 = 30.0
    refs = [45.0, 45.0, 30.0, 30.0, 30.0]
    seg_of = {}
    for s in steps:
        seg_of.setdefault(s.segment_index, []).append(s)
    for i in range(1, 4):
        theta5 += refs[i - 1] - refs[i]
        for s in seg_of.get(i, []):
            theta5 += s.roll_delta_deg()
    turn = [s for s in seg_of[3] if s.kind is StepKind.TURN_TEE][0]
    assert turn is not None
    assert not in_singularity(theta5, region)
    gaps = sorted(abs(iv.signed_delta(theta5, c, 120.0))
                  for c in (30.0, 90.0))
    assert gaps[0] < 1e-6  # lands on a free-gap center


TURNS = st.one_of(
    st.builds(lambda r, ang, roll: elbow(D, r, ang, roll),
              st.floats(min_value=1.5 * D, max_value=4.0 * D),
              st.floats(min_value=15.0, max_value=90.0),
              st.floats(min_value=-180.0, max_value=180.0)),
    st.builds(lambda roll, ex: tee(D, roll, ex),
              st.floats(min_value=-180.0, max_value=180.0),
              st.sampled_from(TeeExit)))


@settings(max_examples=200, deadline=None)
@given(st.lists(TURNS, min_size=1, max_size=4),
       st.floats(min_value=-360.0, max_value=360.0))
@example(turns=[elbow(D, 240.0, 90.0)], theta5=40.0)
def test_plans_without_holonomic_never_rotate(turns, theta5):
    # elbows included: with_holonomic=False skips the alignment roll too
    segments = [straight(D, 300.0)]
    for turn in turns:
        segments += [turn, straight(D, 300.0)]
    try:
        steps = plan_mission(PipeNetwork(tuple(segments)), theta5,
                             PlannerConfig(), REFERENCE_GEOMETRY,
                             with_holonomic=False)
    except PlanError:
        return  # a turn the robot cannot take
    assert all(s.kind is not StepKind.HOLONOMIC_ROTATE for s in steps)


@settings(max_examples=300, deadline=None)
@given(st.lists(TURNS, min_size=1, max_size=4),
       st.floats(min_value=0.0, max_value=120.0))
def test_planned_rolls_stay_within_60_deg(turns, theta5):
    segments = [straight(D, 300.0)]
    for turn in turns:
        segments += [turn, straight(D, 300.0)]
    net = PipeNetwork(tuple(segments))
    cfg = PlannerConfig()
    steps = plan_mission(net, theta5, cfg, REFERENCE_GEOMETRY)
    for s in steps:
        if s.kind is StepKind.HOLONOMIC_ROTATE:
            assert abs(s.roll_delta_deg()) <= 60.0 + 1e-6
    # the simulator agrees with the roll state the planner predicted
    outcome, records = run_mission(net, steps, cfg, REFERENCE_GEOMETRY,
                                   theta5_deg=theta5, dt=None)
    assert outcome.reason == "completed", outcome
    assert len(records) == len(steps)
    for i, (s, rec) in enumerate(zip(steps, records)):
        if s.kind is not StepKind.HOLONOMIC_ROTATE:
            # pre-flipped by the predicted signs, so it advances
            assert rec.twist.v_cz > 0.0
        if s.kind is StepKind.TURN_TEE:
            onset = records[i - 1]
            region = region_for_tee(net.segments[onset.segment_index], cfg,
                                    REFERENCE_GEOMETRY)
            escape = escape_rotation(onset.theta5_deg, region)
            if escape != 0.0:
                # only a roll nudged off the no-motion line ends off the
                # gap center: rolling back by the rest parks the modules
                gain = rolling_gain(D, REFERENCE_GEOMETRY)
                alpha = -gain * math.radians(
                    sum(x.roll_delta_deg() for x in steps[:i]))
                assert drive_sign(alpha - math.radians(escape) * gain,
                                  cfg.deadband_rad) == 0


@pytest.mark.parametrize("second_roll", [-60.0, 60.0])
def test_rolls_nudged_off_no_motion_line_stay_within_60_deg(second_roll):
    # a fine theta5 grid puts some second-elbow alignment rolls near
    # +-60 deg with the module self-rotation on the no-motion line
    net = PipeNetwork((straight(D, 300.0), elbow(D, 320.0, 90.0, 0.0),
                       straight(D, 300.0),
                       elbow(D, 320.0, 90.0, second_roll),
                       straight(D, 300.0)))
    for theta5 in np.arange(0.0, 120.0, 0.1):
        steps = plan_mission(net, float(theta5), PlannerConfig(),
                             REFERENCE_GEOMETRY)
        assert all(abs(s.roll_delta_deg()) <= 60.0 + 1e-6 for s in steps)


def test_mission_plan_survives_json_round_trip(cfg, geom, tee_net):
    steps = plan_mission(tee_net, 15.0, cfg, geom)
    assert json.loads(plan_to_json(steps)) == plan_to_dict(steps)


def test_plan_steps_hold_exactly_the_documented_keys(cfg, geom, tee_net):
    keys = {"kind", "command", "duration_s", "hazard_self_rotation",
            "segment_index", "note"}
    for theta5 in (0.0, 30.0):
        steps = plan_mission(tee_net, theta5, cfg, geom)
        assert StepKind.TURN_TEE in {s.kind for s in steps}
        for doc in json.loads(plan_to_json(steps))["steps"]:
            assert set(doc) == keys


def test_mission_plan_is_deterministic(cfg, geom, tee_net):
    a = plan_to_json(plan_mission(tee_net, 41.0, cfg, geom))
    b = plan_to_json(plan_mission(tee_net, 41.0, cfg, geom))
    assert a == b


# -- drive signs per roll state -----------------------------------------------------

def oracle_plan(net, theta5, cfg, geom, with_holonomic):
    """plan_mission with the drive signs computed afresh from alpha at
    every segment: the drive_sign memo is emptied before each one."""
    theta5, alpha = iv.wrap(theta5, 360.0), 0.0
    steps = []
    for i, segment in enumerate(net.segments):
        drive.drive_sign.cache_clear()
        if i > 0:
            theta5 = shift_reference(theta5, net, i - 1, i)
        if segment.kind is SegmentKind.STRAIGHT:
            steps.append(plan_straight(segment.length_mm, cfg, geom, alpha,
                                       i))
            continue
        if segment.kind is SegmentKind.ELBOW:
            new, theta5, alpha = plan_elbow(segment, theta5, cfg, geom,
                                            with_holonomic, alpha, i)
        else:
            new, theta5, alpha = plan_tee(
                segment, theta5, region_for_tee(segment, cfg, geom), cfg,
                geom, with_holonomic, alpha, i)
        steps += new
    return steps


@st.composite
def sign_networks(draw):
    """Elbows and tees of both exits between straights, with turn planes
    on the roll grid (so some elbows need no alignment) or anywhere."""
    d = draw(st.sampled_from([140.0, 160.0, 165.0]))
    roll_deg = (st.sampled_from([0.0, -0.0, 60.0, 120.0, 240.0])
                | st.floats(-360.0, 360.0))
    segments = [straight(d, draw(st.floats(50.0, 400.0)))]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            segments.append(elbow(d, draw(st.floats(1.5, 3.0)) * d,
                                  draw(st.floats(15.0, 180.0)),
                                  draw(roll_deg)))
        else:
            segments.append(tee(d, draw(roll_deg),
                                exit=draw(st.sampled_from(TeeExit))))
        segments.append(straight(d, draw(st.floats(50.0, 400.0))))
    return PipeNetwork(tuple(segments))


@settings(max_examples=200, deadline=None)
@given(sign_networks(),
       st.sampled_from([0.0, -0.0, 60.0, 120.0]) | st.floats(-360.0, 360.0),
       st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 10.0),
       st.sampled_from([0.5, 0.37]) | st.floats(0.05, 5.0), st.booleans())
def test_plan_matches_signs_recomputed_at_every_segment(
        net, theta5, deadband_deg, rate, with_holonomic):
    cfg = PlannerConfig(wobble_deadband_deg=deadband_deg,
                        rotate_rate_rad_s=rate)
    try:
        expected = plan_to_json(oracle_plan(net, theta5, cfg,
                                            REFERENCE_GEOMETRY,
                                            with_holonomic))
    except PlanError as error:
        with pytest.raises(PlanError, match=re.escape(str(error))):
            plan_mission(net, theta5, cfg, REFERENCE_GEOMETRY,
                         with_holonomic)
        return
    assert plan_to_json(plan_mission(net, theta5, cfg, REFERENCE_GEOMETRY,
                                     with_holonomic)) == expected


def integrated_alpha(steps, theta5, alpha, d_mm, cfg, dt):
    """alpha after ``steps`` as run_mission integrates them: whole dt
    substeps of sim.step plus one final partial one (one exact substep
    for dt None)."""
    net = PipeNetwork((straight(d_mm, 1000.0),))
    state = sim.SimState(theta5_deg=theta5, alpha_rad=alpha)
    for mstep in steps:
        h = mstep.duration_s if dt is None else dt
        n = max(1, math.ceil(mstep.duration_s / h - 1e-12))
        for k in range(n):
            h_k = mstep.duration_s - h * (n - 1) if k == n - 1 else h
            if n > 1 and k == n - 1 and h_k <= 1e-15:
                break
            state, _ = sim.step(state, mstep.command, h_k, net,
                                REFERENCE_GEOMETRY, cfg)
    return state.alpha_rad


@settings(max_examples=300, deadline=None)
@given(st.floats(-60.0, 60.0), st.floats(0.0, 360.0, exclude_max=True),
       st.floats(-20.0, 20.0),
       st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 10.0),
       st.sampled_from([0.5, 0.37]) | st.floats(0.05, 5.0),
       st.sampled_from([140.0, 160.0, 200.0]),
       st.sampled_from([None, 0.01, 0.02, 0.037]))
@example(delta=22.5, theta5=0.0, alpha=0.0, deadband_deg=1.0,
         rate=0.5, d_mm=D, dt=0.01)  # lands on the no-motion line: nudged
@example(delta=22.25, theta5=7.75, alpha=0.0, deadband_deg=1.0,
         rate=0.5, d_mm=D, dt=0.01)  # lands on the band's edge: nudged
@example(delta=20.0, theta5=10.0, alpha=0.0, deadband_deg=10.0,
         rate=0.37, d_mm=D, dt=0.02)
@example(delta=1e-12, theta5=0.0, alpha=0.0, deadband_deg=1.0,
         rate=0.5, d_mm=D, dt=None)  # too short to roll
def test_alignment_leaves_no_integrated_alpha_in_the_deadband(
        delta, theta5, alpha, deadband_deg, rate, d_mm, dt):
    cfg = PlannerConfig(wobble_deadband_deg=deadband_deg,
                        rotate_rate_rad_s=rate)
    steps, _, planned = planner._align(delta, theta5, alpha, d_mm, cfg,
                                       REFERENCE_GEOMETRY, None)
    integrated = integrated_alpha(steps, theta5, alpha, d_mm, cfg, dt)
    assert drive_sign(integrated, cfg.deadband_rad), (planned, integrated)


def test_escape_missions_compute_each_roll_states_signs_once(
        cfg, geom, tee_net):
    for theta5 in range(120):
        drive.drive_sign.cache_clear()
        plan = plan_mission(tee_net, float(theta5), cfg, geom)
        outcome, _ = run_mission(tee_net, plan, cfg, geom,
                                 theta5_deg=float(theta5), dt=None)
        assert outcome.reason == "completed"
        # one sign computed at each of the two roll states, which the
        # planner and the simulator share through the memo
        assert drive.drive_sign.cache_info().misses <= 2, theta5


# -- step validation ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_planner_rejects_non_finite_inputs(geom, tee_net, bad):
    with pytest.raises(PlanError, match="rotate_rate_rad_s"):
        PlannerConfig(rotate_rate_rad_s=bad)
    with pytest.raises(PlanError, match="^rate_rad_s must be "):
        holonomic_rotate_step(10.0, bad, geom, D)
    if bad != 0.0:
        with pytest.raises(PlanError, match="theta5_deg must be finite"):
            plan_mission(tee_net, bad, PlannerConfig(), geom)


@pytest.mark.parametrize("name", ["straight_speed", "tee_trigger_fraction",
                                  "wobble_deadband_deg", "rotate_rate_rad_s",
                                  "sweep_phi_max_deg"])
def test_planner_config_takes_numbers_only_and_stores_floats(name):
    for bad, message in [(True, "must be a number, got True"),
                         ("x", "must be a number, got 'x'"),
                         (None, "must be a number, got None"),
                         (10 ** 400, "must lie within the float range"),
                         (-10 ** 400, "must lie within the float range")]:
        if bad is None and name == "sweep_phi_max_deg":
            continue  # None selects the equal-bore tilt limit
        with pytest.raises(PlanError, match=f"^{name} {message}$"):
            PlannerConfig(**{name: bad})
    cfg = PlannerConfig(**{name: 1})
    assert type(getattr(cfg, name)) is float
    assert cfg == PlannerConfig(**{name: 1.0})


@pytest.mark.parametrize("bad", ["fixed-ratio", None, 1])
def test_planner_config_takes_a_ratio_mode_only(bad):
    with pytest.raises(PlanError, match=f"^ratio_mode must be a RatioMode, "
                                        f"got {re.escape(repr(bad))}$"):
        PlannerConfig(ratio_mode=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["theta5_deg", "alpha_rad"])
def test_public_planner_functions_reject_a_non_finite_roll_state(
        cfg, geom, tee_net, name, bad):
    theta5, alpha = (bad, 0.0) if name == "theta5_deg" else (0.0, bad)
    branch = tee_net.segments[1]
    bend = elbow(D, 320.0, 90.0, 0.0)
    message = f"{name} must be finite"
    with pytest.raises(PlanError, match=message):
        holonomic_rotate_step(10.0, 0.5, geom, D, theta5, alpha)
    with pytest.raises(PlanError, match=message):
        holonomic_rotate_step(0.0, 0.5, geom, D, theta5, alpha)
    with pytest.raises(PlanError, match=message):
        plan_elbow(bend, theta5, cfg, geom, alpha_rad=alpha)
    with pytest.raises(PlanError, match=message):
        plan_tee(branch, theta5, region_for_tee(branch, cfg, geom), cfg,
                 geom, alpha_rad=alpha)
    if name == "alpha_rad":
        with pytest.raises(PlanError, match=message):
            plan_straight(100.0, cfg, geom, alpha_rad=alpha)


def test_rotate_step_rejects_a_rate_whose_duration_overflows(geom):
    with pytest.raises(PlanError, match=re.escape(
            "rotate rate 1e-320 rad/s is out of range: it gives a roll "
            "duration of inf s")):
        holonomic_rotate_step(10.0, 1e-320, geom, D)
    # a nan delta is named as such, not as an out-of-range rate
    with pytest.raises(PlanError,
                       match="^delta_deg must be finite, got nan$"):
        holonomic_rotate_step(math.nan, 0.5, geom, D)


def test_mission_step_validates_fields():
    cmd = CommandVector(1.0, 1.0, 1.0, 0.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PlanError):
            MissionStep(kind=StepKind.DRIVE, command=cmd, duration_s=bad)


@pytest.mark.parametrize("field, value, message", [
    ("kind", "drive", "kind must be a StepKind, got 'drive'"),
    ("command", (1.0, 1.0, 1.0, 0.0),
     "command must be a CommandVector, got (1.0, 1.0, 1.0, 0.0)"),
    ("segment_index", "x", "segment_index must be an integer, got 'x'"),
    ("segment_index", True, "segment_index must be an integer, got True"),
    ("segment_index", 1.0, "segment_index must be an integer, got 1.0"),
    ("duration_s", True, "duration_s must be a number, got True"),
    ("duration_s", "1", "duration_s must be a number, got '1'"),
    ("duration_s", 10 ** 400, "duration_s must lie within the float range"),
])
def test_mission_step_names_a_field_of_the_wrong_type(field, value, message):
    fields = {"kind": StepKind.DRIVE,
              "command": CommandVector(1.0, 1.0, 1.0, 0.0),
              "duration_s": 1.0, "segment_index": None}
    with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
        MissionStep(**{**fields, field: value})


def test_a_plan_with_string_kinds_is_refused_not_run(cfg, geom, tee_net):
    # by identity, run_mission would miss the tee onset of a turn whose
    # kind is "turn_tee" and complete a mission that fails
    plan = plan_mission(tee_net, 0.0, cfg, geom, with_holonomic=False)
    outcome, _ = run_mission(tee_net, plan, cfg, geom, dt=None)
    assert outcome.reason == "singularity"
    with pytest.raises(PlanError, match="^kind must be a StepKind"):
        [replace(mstep, kind=mstep.kind.value) for mstep in plan]
