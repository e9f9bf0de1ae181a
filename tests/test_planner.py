import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnipipe import (REFERENCE_GEOMETRY, CommandVector, MissionStep,
                      PlanError, PlannerConfig, RatioMode, StepKind,
                      drive_sign, elbow, escape_rotation,
                      forward_kinematics, holonomic_rotate_step,
                      in_singularity, module_linear_velocities, plan_elbow,
                      plan_mission, plan_straight, plan_tee, plan_to_dict,
                      plan_to_json, radius_of_curvature, region_for_tee,
                      rolling_gain, run_mission, straight, tee)
from omnipipe import PipeNetwork, TeeExit
from omnipipe import intervals as iv
from omnipipe import planner

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
    step = plan_straight(1000.0, cfg, geom,
                         alpha_rad=(math.pi, 0.0, math.pi / 2.0),
                         segment_index=4)
    rate = 100.0 / 15.0
    # a module in the deadband keeps its sign: 0 pre-flips as 1
    assert step.command == CommandVector(-rate, rate, rate, 0.0)
    assert step.segment_index == 4


def test_plan_straight_rejects_zero_length(cfg, geom):
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(PlanError):
            plan_straight(bad, cfg, geom)


# -- holonomic rotation ---------------------------------------------------------

def test_rotate_step_sets_rate_sign_and_duration(geom):
    step = holonomic_rotate_step(30.0, 0.5, geom, D)
    assert step.kind is StepKind.HOLONOMIC_ROTATE
    assert step.command == CommandVector(0.0, 0.0, 0.0, 0.5)
    assert step.duration_s == pytest.approx(math.radians(30.0) / 0.5)
    assert step.roll_delta_deg() == pytest.approx(30.0)
    down = holonomic_rotate_step(-10.0, 0.5, geom, D)
    assert down.command.theta_dot_4 == -0.5
    assert down.roll_delta_deg() == pytest.approx(-10.0)


def test_rotate_step_zero_delta_is_no_step(geom):
    assert holonomic_rotate_step(0.0, 0.5, geom, D) is None


def test_rotate_step_bounds(geom):
    with pytest.raises(PlanError):
        holonomic_rotate_step(60.1, 0.5, geom, D)
    with pytest.raises(PlanError):
        holonomic_rotate_step(10.0, 0.0, geom, D)
    assert holonomic_rotate_step(60.0, 0.5, geom, D) is not None


def test_rotate_hazard_marks_drive_line_crossings(geom):
    # gain is 4, so 22.5 deg of roll re-aims the wheels by 90 deg
    assert rolling_gain(D, geom) == pytest.approx(4.0)
    assert holonomic_rotate_step(22.5, 0.5, geom, D).hazard_self_rotation
    assert holonomic_rotate_step(30.0, 0.5, geom, D).hazard_self_rotation
    assert not holonomic_rotate_step(22.0, 0.5, geom, D).hazard_self_rotation
    # the flag follows the accumulated self-rotation, not the roll alone
    assert holonomic_rotate_step(-20.0, 0.5, geom, D,
                                 (math.radians(12.0),) * 3
                                 ).hazard_self_rotation
    assert not holonomic_rotate_step(30.0, 0.5, geom, D,
                                     (math.radians(-100.0),) * 3
                                     ).hazard_self_rotation
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
    local = PlannerConfig(align_elbow=False)
    for theta5 in np.arange(2.0, 120.0, 7.0):
        steps, _, _ = plan_elbow(seg, float(theta5), local, geom)
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


def test_drives_at_one_roll_state_share_one_command(cfg, geom, tee_net):
    plan = plan_mission(tee_net, 30.0, cfg, geom)
    drives = [s for s in plan if s.kind is StepKind.DRIVE]
    assert [s.note for s in drives] == ["", "approach junction",
                                        "exit junction", ""]
    assert all(s.command is drives[0].command for s in drives)


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


# -- step validation ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_planner_rejects_non_finite_inputs(geom, tee_net, bad):
    with pytest.raises(PlanError, match="rotate_rate_rad_s"):
        PlannerConfig(rotate_rate_rad_s=bad)
    with pytest.raises(PlanError, match="rotate rate"):
        holonomic_rotate_step(10.0, bad, geom, D)
    if bad != 0.0:
        with pytest.raises(PlanError, match="theta5_deg must be finite"):
            plan_mission(tee_net, bad, PlannerConfig(), geom)


def test_mission_step_validates_fields():
    cmd = CommandVector(1.0, 1.0, 1.0, 0.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(PlanError):
            MissionStep(kind=StepKind.DRIVE, command=cmd, duration_s=bad)
