import contextlib
import dataclasses
import gc
import json
import logging
import math
import re
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnipipe import (REFERENCE_GEOMETRY, CommandVector, MissionOutcome,
                      MissionStep, NoEscapeError, PipeNetwork, PlanError,
                      PlannerConfig, SegmentKind, SimState, SimulationError,
                      StepKind, TeeExit, Trajectory, TrajectoryRecord,
                      TRAJECTORY_CSV_HEADER, TwistVector, drive_sign, elbow,
                      failure_probability, forward_kinematics,
                      in_singularity, monte_carlo_tee,
                      outcome_to_json, plan_mission, plan_to_json,
                      preferred_orientations, region_for_tee, roll,
                      rolling_gain, run_mission, step, straight, success_set,
                      tee, write_trajectory_csv)
from omnipipe import planner, sim
from omnipipe.drive import roll_sums, signed_drive
from omnipipe.intervals import normalize, wrap
from omnipipe.sim import (_CHUNK, _WALK, MAX_SUBSTEPS, MAX_TRIALS,
                          _count_successes, _held, _padded_ends, _stop,
                          wilson_interval)
from omnipipe.singularity import SingularityRegion
from omnipipe.tolerances import (BOUNDARY_TOL_MM, MIN_PARTIAL_SUBSTEP_S,
                                 STALL_SPEED, SUBSTEP_RATIO_SLACK,
                                 end_tol_mm)

D = 160.0
RATE = 100.0 / 15.0
DRIVE = CommandVector(RATE, RATE, RATE, 0.0)


def turn_net():
    return PipeNetwork((
        straight(D, 500.0),
        elbow(D, 240.0, 90.0, turn_plane_roll_deg=45.0),
        straight(D, 300.0),
        tee(D, branch_roll_deg=30.0),
        straight(D, 200.0),
    ))


# -- wheel drive-direction model ------------------------------------------------

def test_drive_sign_cardinal_points():
    assert drive_sign(0.0) == 1
    assert drive_sign(math.radians(185.0)) == -1
    assert drive_sign(math.radians(90.0)) == 0
    assert drive_sign(math.radians(270.0)) == 0
    assert drive_sign(math.radians(89.5)) == 0  # inside the 1 deg deadband
    assert drive_sign(math.radians(88.0)) == 1
    assert drive_sign(math.radians(92.0)) == -1


def test_drive_sign_deadband_validation():
    with pytest.raises(ValueError):
        drive_sign(0.0, -0.1)
    with pytest.raises(ValueError):
        drive_sign(0.0, math.radians(10.1))
    assert drive_sign(math.radians(80.5), math.radians(10.0)) == 0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-20.0, max_value=20.0))
def test_drive_sign_periodic_and_even(alpha):
    s = drive_sign(alpha)
    assert drive_sign(alpha + 2.0 * math.pi) == s
    assert drive_sign(-alpha) == s
    assert s in (-1, 0, 1)


def test_drive_sign_memo_is_exact():
    narrow, wide = math.radians(1.0), math.radians(10.0)
    # +-0.0 share a key, and their signs are equal
    assert drive_sign(0.0, narrow) == 1
    assert drive_sign(-0.0, narrow) == 1
    assert drive_sign(math.pi, -0.0) == -1
    assert drive_sign(math.pi, 0.0) == -1
    assert drive_sign.cache_info().hits == 2
    # one alpha under two deadbands: each gets its own deadband's sign
    alpha = math.radians(95.0)
    for deadband in (narrow, wide, narrow, wide):
        assert drive_sign(alpha, deadband) == drive_sign.__wrapped__(
            alpha, deadband)
    assert drive_sign(alpha, narrow) == -1
    assert drive_sign(alpha, wide) == 0
    # a bad deadband is not stored: it raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="deadband"):
            drive_sign(alpha, math.radians(10.5))
        with pytest.raises(ValueError, match="deadband"):
            drive_sign(alpha, -1e-3)
    assert drive_sign.cache_info().currsize == 4


def test_rolling_gain_and_self_rotation(geom):
    assert rolling_gain(D, geom) == pytest.approx(4.0)
    theta5, alpha = roll(10.0, 1.0, 0.5, D, geom)
    assert theta5 == pytest.approx(10.0 + math.degrees(0.5))
    assert alpha == pytest.approx(-1.0)
    assert roll(10.0, 0.0, 0.0, D, geom) == (10.0, 0.0)


# -- single integration steps ----------------------------------------------------

def test_step_straight_advance(geom):
    net = PipeNetwork((straight(D, 500.0),))
    state, rec = step(SimState(), DRIVE, 0.1, net, geom)
    assert state.s_mm == pytest.approx(10.0, rel=1e-12)
    assert state.theta5_deg == 0.0
    assert state.alpha_rad == 0.0
    assert state.time_s == pytest.approx(0.1)
    assert rec.drive_sign == 1
    assert rec.twist.v_cz == pytest.approx(100.0, rel=1e-12)
    assert rec.event == ""


def test_step_pure_rotation_rolls_and_self_rotates(geom):
    net = PipeNetwork((straight(D, 500.0),))
    cmd = CommandVector(0.0, 0.0, 0.0, 0.5)
    state, rec = step(SimState(), cmd, 0.2, net, geom)
    assert state.s_mm == 0.0
    assert state.theta5_deg == pytest.approx(math.degrees(0.1), rel=1e-12)
    assert state.alpha_rad == pytest.approx(-0.4, rel=1e-12)
    assert rec.twist.v_cz == 0.0


def test_step_reversed_wheels_drive_backward(geom):
    net = PipeNetwork((straight(D, 500.0),))
    start = SimState(s_mm=100.0, alpha_rad=math.pi)
    state, rec = step(start, DRIVE, 0.1, net, geom)
    assert rec.drive_sign == -1
    assert state.s_mm == pytest.approx(90.0, rel=1e-12)


def test_step_wheels_on_no_motion_line_stall(geom):
    net = PipeNetwork((straight(D, 500.0),))
    start = SimState(s_mm=100.0, alpha_rad=math.pi / 2.0)
    state, rec = step(start, DRIVE, 0.1, net, geom)
    assert rec.drive_sign == 0
    assert state.s_mm == 100.0
    assert rec.twist.v_cz == 0.0


def test_step_forward_crossing_shifts_roll_reference(geom):
    net = turn_net()
    start = SimState(segment_index=1,
                     s_mm=net.segments[1].arc_length() - 1.0,
                     theta5_deg=10.0)
    state, rec = step(start, DRIVE, 0.02, net, geom)
    assert state.segment_index == 2
    assert state.s_mm == pytest.approx(1.0, rel=1e-9)
    assert state.theta5_deg == pytest.approx(25.0)  # 45 -> 30 reference
    assert rec.event == ""


def test_step_backward_crossing_shifts_roll_reference(geom):
    net = turn_net()
    start = SimState(segment_index=2, s_mm=5.0, theta5_deg=10.0,
                     alpha_rad=math.pi)
    state, _ = step(start, DRIVE, 0.1, net, geom)
    assert state.segment_index == 1
    assert state.s_mm == pytest.approx(net.segments[1].arc_length() - 5.0)
    assert state.theta5_deg == pytest.approx(355.0)


def test_step_clamps_at_network_ends(geom):
    net = PipeNetwork((straight(D, 500.0),))
    state, rec = step(SimState(s_mm=495.0), DRIVE, 0.1, net, geom)
    assert rec.event == "end_of_network"
    assert state.s_mm == 500.0
    back = SimState(s_mm=5.0, alpha_rad=math.pi)
    state, rec = step(back, DRIVE, 0.1, net, geom)
    assert rec.event == "start_of_network"
    assert state.s_mm == 0.0


def test_step_flags_singular_roll_on_tee_segments(geom, cfg):
    net = turn_net()
    hold = CommandVector(0.0, 0.0, 0.0, 0.0)
    on_tee = SimState(segment_index=3, s_mm=1.0, theta5_deg=0.0)
    _, rec = step(on_tee, hold, 0.01, net, geom, cfg=cfg)
    assert rec.singular
    safe = SimState(segment_index=3, s_mm=1.0, theta5_deg=30.0)
    _, rec = step(safe, hold, 0.01, net, geom, cfg=cfg)
    assert not rec.singular
    on_straight = SimState(segment_index=0, s_mm=1.0, theta5_deg=0.0)
    _, rec = step(on_straight, hold, 0.01, net, geom, cfg=cfg)
    assert not rec.singular


@pytest.mark.parametrize("state, message", [
    (SimState(alpha_rad=math.nan), "alpha_rad must be finite, got nan"),
    (SimState(alpha_rad=math.inf), "alpha_rad must be finite, got inf"),
    (SimState(theta5_deg=math.nan), "theta5_deg must be finite, got nan"),
    (SimState(s_mm=math.nan), "s_mm must be finite, got nan"),
    (SimState(segment_index=7), r"segment_index must lie in \[0, 3\), got 7"),
    (SimState(segment_index=-1), r"segment_index must lie in \[0, 3\)")])
def test_step_rejects_a_bad_state(geom, state, message):
    net = PipeNetwork((straight(D, 500.0), tee(D), straight(D, 300.0)))
    with pytest.raises(SimulationError, match=message):
        step(state, DRIVE, 0.1, net, geom)


def test_step_rejects_bad_dt(geom):
    net = PipeNetwork((straight(D, 500.0),))
    for bad in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(SimulationError):
            step(SimState(), DRIVE, bad, net, geom)


# -- mission execution -------------------------------------------------------------

def test_run_mission_straight_duration_matches_length(cfg, geom):
    net = PipeNetwork((straight(D, 500.0),))
    plan = plan_mission(net, 0.0, cfg, geom)
    outcome, records = run_mission(net, plan, cfg, geom)
    assert outcome.success
    assert outcome.reason == "completed"
    assert outcome.time_s == pytest.approx(5.0, rel=1e-12)
    assert records[-1].s_mm == pytest.approx(500.0, rel=1e-12)
    times = [r.time_s for r in records]
    assert times == sorted(times)


def test_run_mission_through_tee_network(cfg, geom, tee_net):
    plan = plan_mission(tee_net, 30.0, cfg, geom)
    outcome, records = run_mission(tee_net, plan, cfg, geom,
                                   theta5_deg=30.0)
    assert outcome.success, outcome
    assert records[-1].segment_index == 2
    assert "singularity_at_turn_onset" not in outcome.events


def test_run_mission_escapes_singular_start(cfg, geom, tee_net):
    plan = plan_mission(tee_net, 0.0, cfg, geom)
    outcome, _ = run_mission(tee_net, plan, cfg, geom, theta5_deg=0.0)
    assert outcome.success


def test_run_mission_fails_without_holonomic_escape(cfg, geom, tee_net):
    plan = plan_mission(tee_net, 0.0, cfg, geom, with_holonomic=False)
    outcome, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=0.0)
    assert not outcome.success
    assert outcome.reason == "singularity"
    assert records[-1].event == "singularity_at_turn_onset"
    assert records[-1].singular


def test_run_mission_exact_at_any_dt(cfg, geom, tee_net):
    plan = plan_mission(tee_net, 25.0, cfg, geom)
    final = []
    for dt in (0.01, 0.003, None):
        outcome, records = run_mission(tee_net, plan, cfg, geom,
                                       theta5_deg=25.0, dt=dt)
        assert outcome.success
        final.append((outcome.time_s, records[-1].s_mm,
                      records[-1].theta5_deg))
    for t, s, theta in final[1:]:
        assert t == pytest.approx(final[0][0], rel=1e-9)
        assert s == pytest.approx(final[0][1], rel=1e-9)
        assert theta == pytest.approx(final[0][2], abs=1e-9)


def test_run_mission_detects_no_forward_progress(cfg, geom):
    net = PipeNetwork((straight(D, 500.0),))
    # park the wheels exactly on the 90 deg no-motion line, then drive
    onto_line = MissionStep(
        kind=StepKind.HOLONOMIC_ROTATE,
        command=CommandVector(0.0, 0.0, 0.0, 0.5),
        duration_s=math.radians(22.5) / 0.5)
    push = MissionStep(kind=StepKind.DRIVE, command=DRIVE, duration_s=1.0)
    outcome, records = run_mission(net, [onto_line, push], cfg, geom)
    assert not outcome.success
    assert outcome.reason == "no_forward_progress"
    assert records[-1].event == "no_forward_progress"


def test_run_mission_rejects_foreign_plan_entries(cfg, geom):
    net = PipeNetwork((straight(D, 500.0),))
    with pytest.raises(SimulationError):
        run_mission(net, [{"kind": "drive"}], cfg, geom)


def test_run_mission_incomplete_when_plan_stops_short(cfg, geom):
    net = PipeNetwork((straight(D, 500.0),))
    plan = [MissionStep(kind=StepKind.DRIVE, command=DRIVE, duration_s=1.0)]
    outcome, _ = run_mission(net, plan, cfg, geom)
    assert not outcome.success
    assert outcome.reason == "incomplete"


@pytest.mark.parametrize("theta5", [math.inf, -math.inf, math.nan])
def test_run_mission_rejects_non_finite_roll(cfg, geom, tee_net, theta5):
    plan = plan_mission(tee_net, 30.0, cfg, geom)
    with pytest.raises(PlanError, match="theta5_deg must be finite"):
        run_mission(tee_net, plan, cfg, geom, theta5_deg=theta5)


@pytest.mark.parametrize("value, problem", [
    (True, "must be a number, got True"),
    ("x", "must be a number, got 'x'"),
    (10 ** 400, "must lie within the float range"),
], ids=["bool", "str", "huge-int"])
@pytest.mark.parametrize("where", ["plan_mission theta5_deg",
                                   "run_mission theta5_deg",
                                   "run_mission dt", "step dt"])
def test_mission_inputs_that_are_not_numbers_raise_typed_errors(
        where, value, problem, cfg, geom, tee_net):
    # a bool would plan a 1 deg roll or run 1 s substeps; a str or a huge
    # int would end in an untyped TypeError or OverflowError
    plan = plan_mission(tee_net, 0.0, cfg, geom)
    error, name, call = {
        "plan_mission theta5_deg": (PlanError, "theta5_deg", lambda: (
            plan_mission(tee_net, value, cfg, geom))),
        "run_mission theta5_deg": (PlanError, "theta5_deg", lambda: (
            run_mission(tee_net, plan, cfg, geom, theta5_deg=value))),
        "run_mission dt": (SimulationError, "dt", lambda: (
            run_mission(tee_net, plan, cfg, geom, dt=value))),
        "step dt": (SimulationError, "dt", lambda: (
            step(SimState(), DRIVE, value, tee_net, geom))),
    }[where]
    with pytest.raises(error, match=f"^{name} {re.escape(problem)}$"):
        call()


def test_run_mission_records_of_a_step_share_command_and_twist(cfg, geom,
                                                              tee_net):
    plan = plan_mission(tee_net, 30.0, cfg, geom)
    _, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=30.0)
    drive = [r for r in records if r.command is plan[0].command]
    assert len(drive) > 100
    assert all(r.twist is drive[0].twist for r in drive)


def test_run_mission_computes_one_twist_per_command_and_signs(
        cfg, geom, tee_net, monkeypatch):
    # from the centre of a free gap the plan is straight, approach, turn,
    # exit, straight; the four drives share one command and one twist
    plan = plan_mission(tee_net, 30.0, cfg, geom)
    assert [s.kind for s in plan].count(StepKind.DRIVE) == 4
    calls, fk = [], sim.forward_kinematics
    monkeypatch.setattr(sim, "forward_kinematics",
                        lambda cmd, g: calls.append(cmd) or fk(cmd, g))
    _, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=30.0)
    assert len(calls) == 2
    drive = [r for r in records if r.command is plan[0].command]
    assert {r.segment_index for r in drive} == {0, 1, 2}
    assert all(r.twist is drive[0].twist for r in drive)


def test_run_mission_keeps_equal_commands_apart_by_a_signed_zero(
        cfg, geom, tee_net, tmp_path):
    # the three commands compare equal, but each record carries its own,
    # whose -0.0 spin the CSV writes as such
    plan = [MissionStep(kind=StepKind.DRIVE,
                        command=CommandVector(RATE, RATE, RATE, spin),
                        duration_s=1.5) for spin in (0.0, -0.0, 0.0)]
    assert plan[0].command == plan[1].command
    assert_matches_stepwise(tee_net, plan, cfg, geom, 30.0, 0.5, tmp_path)
    _, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=30.0)
    assert len(records) == 450
    assert all(r.command is mstep.command
               for r, mstep in zip(records[::150], plan))


# -- statistics ---------------------------------------------------------------------

def test_monte_carlo_validates_trials(cfg, geom, tee_net):
    with pytest.raises(ValueError):
        monte_carlo_tee(tee_net, cfg, geom, 0, seed=1, with_holonomic=True)


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10 ** 30])
def test_monte_carlo_rejects_trials_above_the_limit_before_drawing(
        cfg, geom, tee_net, monkeypatch, trials):
    def no_draws(*args, **kwargs):
        raise AssertionError("monte_carlo_tee started on its draws")

    monkeypatch.setattr(sim, "_derived_set", no_draws)
    monkeypatch.setattr(sim, "_count_successes", no_draws)
    with pytest.raises(ValueError, match=f"trials must be <= MAX_TRIALS = "
                                         f"{MAX_TRIALS}, got {trials}"):
        monte_carlo_tee(tee_net, cfg, geom, trials, seed=1,
                        with_holonomic=True)


def test_monte_carlo_rejects_a_negative_seed_before_drawing(
        cfg, geom, tee_net, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("monte_carlo_tee started on its draws")

    monkeypatch.setattr(sim, "_derived_set", no_draws)
    monkeypatch.setattr(sim, "_count_successes", no_draws)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
        monte_carlo_tee(tee_net, cfg, geom, 10, seed=-3, with_holonomic=True)


def test_monte_carlo_holonomic_always_succeeds(cfg, geom, tee_net):
    res = monte_carlo_tee(tee_net, cfg, geom, 64, seed=3,
                          with_holonomic=True)
    assert res.success_rate == 1.0
    assert res.successes == res.trials == 64
    # the Wilson interval keeps a positive width at 64 of 64
    assert (res.ci_low, res.ci_high) == wilson_interval(64, 64)
    assert res.ci_low < res.ci_high == 1.0


@pytest.mark.parametrize("trials", [1, 7, 100, 10**5])
def test_wilson_interval_keeps_positive_width_at_the_extremes(trials):
    low, high = wilson_interval(0, trials)
    assert low == 0.0 < high < 1.0
    low, high = wilson_interval(trials, trials)
    assert 0.0 < low < high == 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.floats(0.0, 1.0))
def test_wilson_interval_contains_the_rate(trials, share):
    successes = round(share * trials)
    low, high = wilson_interval(successes, trials)
    assert 0.0 <= low <= successes / trials <= high <= 1.0
    assert low < high


def test_wilson_interval_matches_hand_computed_values():
    # 5 of 10: center 0.5, half-width 1.96 / (1 + 0.38416) *
    # sqrt(0.025 + 0.009604) = 0.263410
    assert wilson_interval(5, 10) == pytest.approx((0.236590, 0.763410),
                                                   abs=1e-6)
    # 0 of 100: the upper bound is z^2 / (n + z^2)
    assert wilson_interval(0, 100)[1] == pytest.approx(3.8416 / 103.8416,
                                                       rel=1e-12)


def test_monte_carlo_seed_reproducibility(cfg, geom, tee_net):
    a = monte_carlo_tee(tee_net, cfg, geom, 300, seed=11,
                        with_holonomic=False)
    b = monte_carlo_tee(tee_net, cfg, geom, 300, seed=11,
                        with_holonomic=False)
    assert a.to_dict() == b.to_dict()
    assert a.ci_low <= a.success_rate <= a.ci_high
    assert 0.10 < a.success_rate < 0.30  # near the geometric sector share
    assert not a.with_holonomic
    assert a.seed == 11


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_monte_carlo_counts_each_seeded_draw(cfg, geom, tee_net, seed):
    # without the escape a trial succeeds exactly when its drawn roll is
    # outside the region, so the count must match draw for draw
    region = region_for_tee(tee_net.segments[1], cfg, geom)
    draws = np.random.default_rng(seed).uniform(0.0, 120.0, size=400)
    expected = sum(not in_singularity(float(t), region) for t in draws)
    res = monte_carlo_tee(tee_net, cfg, geom, 400, seed=seed,
                          with_holonomic=False)
    assert res.successes == expected


def test_monte_carlo_draws_in_chunks_from_one_stream(cfg, geom, tee_net):
    trials = _CHUNK + 3
    region = region_for_tee(tee_net.segments[1], cfg, geom)
    draws = np.random.default_rng(5).uniform(0.0, 120.0, size=trials)
    expected = sum(not in_singularity(float(t), region) for t in draws)
    res = monte_carlo_tee(tee_net, cfg, geom, trials, seed=5,
                          with_holonomic=False)
    assert res.successes == expected


def test_monte_carlo_logs_the_split_at_debug(cfg, geom, tee_net, caplog):
    caplog.set_level(logging.DEBUG, logger="omnipipe.sim")
    monte_carlo_tee(tee_net, cfg, geom, 200, seed=1, with_holonomic=False)
    assert ("200 of 200 draws decided by the success set, 0 by "
            "plan_mission + run_mission") in caplog.text
    caplog.clear()
    monte_carlo_tee(tee_net, cfg, geom, 20, seed=1, with_holonomic=True)
    assert "no success set: the holonomic escape is enabled" in caplog.text
    assert ("0 of 20 draws decided by the success set, 20 by "
            "plan_mission + run_mission") in caplog.text
    caplog.clear()
    # the memo answers the second call, which still gives its reason
    monte_carlo_tee(tee_net, cfg, geom, 20, seed=1, with_holonomic=True)
    assert sim._derived_set.cache_info().hits >= 1
    assert "no success set: the holonomic escape is enabled" in caplog.text
    caplog.clear()
    # without the escape the elbow does not roll either
    monte_carlo_tee(turn_net(), cfg, geom, 5, seed=1, with_holonomic=False)
    assert "no success set" not in caplog.text
    assert ("5 of 5 draws decided by the success set, 0 by "
            "plan_mission + run_mission") in caplog.text


# -- exact success set -------------------------------------------------------------

def scalar_completes(net, theta5, cfg, geom, with_holonomic=False):
    """The reference trial: plan and simulate from one initial roll."""
    plan = plan_mission(net, theta5, cfg, geom, with_holonomic=with_holonomic)
    outcome, _ = run_mission(net, plan, cfg, geom, theta5_deg=theta5,
                             dt=None)
    return outcome.success


def assert_draws_match_scalar(net, draws, cfg, geom, with_holonomic=False):
    """Monte Carlo's counting decides every draw as the scalar path does."""
    succeeding = success_set(net, cfg, geom, with_holonomic)
    for theta5 in draws:
        counted, _ = _count_successes(net, np.array([theta5]),
                                      _padded_ends(succeeding), cfg, geom,
                                      with_holonomic)
        assert counted == scalar_completes(net, float(theta5), cfg, geom,
                                           with_holonomic), theta5
    return succeeding


def endpoint_draws(succeeding):
    """Each endpoint of the set and the rolls 1e-9 deg to either side."""
    return [wrap(end + d, 120.0) for piece in succeeding for end in piece
            for d in (-1e-9, 0.0, 1e-9)]


def test_success_set_on_the_acceptance_tee(cfg, geom, tee_net):
    got = success_set(tee_net, cfg, geom, with_holonomic=False)
    assert len(got) == 2
    for piece, gap in zip(got, [(24.135, 35.865), (84.135, 95.865)]):
        assert piece == pytest.approx(gap, abs=1e-9)
    region = region_for_tee(tee_net.segments[1], cfg, geom)
    assert sum(hi - lo for lo, hi in got) / 120.0 == pytest.approx(
        1.0 - failure_probability(region), abs=1e-12)
    assert success_set(tee_net, cfg, geom, with_holonomic=True) is None
    no_branch = PipeNetwork((straight(D, 200.0),
                             tee(D, 30.0, exit=TeeExit.THROUGH),
                             straight(D, 200.0)))
    assert success_set(no_branch, cfg, geom, False) == [(0.0, 120.0)]


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_success_set_path_matches_scalar_path_on_acceptance_draws(
        cfg, geom, tee_net, seed):
    # the head of the criterion-7 draw stream for this seed
    draws = np.random.default_rng(seed).uniform(0.0, 120.0, size=2000)
    succeeding = assert_draws_match_scalar(tee_net, draws, cfg, geom)
    assert_draws_match_scalar(tee_net, endpoint_draws(succeeding), cfg, geom)
    res = monte_carlo_tee(tee_net, cfg, geom, 2000, seed=seed,
                          with_holonomic=False)
    assert res.successes == sum(scalar_completes(tee_net, float(t), cfg, geom)
                                for t in draws)


def test_success_set_path_matches_scalar_path_across_reference_shifts(geom):
    # an unaligned elbow shifts the two tee onsets by 25 and 18 deg: not
    # multiples of the region's 60 deg symmetry, and close enough for the
    # two tees' free gaps to overlap
    net = PipeNetwork((straight(D, 300.0), elbow(D, 320.0, 90.0, 25.0),
                       straight(D, 200.0), tee(D, 0.0), straight(D, 200.0),
                       tee(D, 7.0), straight(D, 200.0)))
    cfg = PlannerConfig()
    draws = np.random.default_rng(3).uniform(0.0, 120.0, size=1000)
    succeeding = assert_draws_match_scalar(net, draws, cfg, geom)
    assert len(succeeding) == 2
    assert_draws_match_scalar(net, endpoint_draws(succeeding), cfg, geom)


@st.composite
def roll_free_networks(draw, max_segments=6):
    d = draw(st.sampled_from([140.0, 160.0, 180.0, 200.0]))
    turn_roll = st.floats(min_value=-180.0, max_value=180.0)
    segments = []
    for _ in range(draw(st.integers(min_value=1,
                                    max_value=max_segments))):
        kind = draw(st.sampled_from(["straight", "elbow", "branch",
                                     "through"]))
        if kind == "straight":
            segments.append(straight(d, draw(st.floats(50.0, 600.0))))
        elif kind == "elbow":
            segments.append(elbow(d, draw(st.floats(d, 4.0 * d)),
                                  draw(st.floats(15.0, 180.0)),
                                  draw(turn_roll)))
        else:
            segments.append(tee(d, draw(turn_roll), exit=TeeExit(kind)))
    return PipeNetwork(tuple(segments))


@settings(max_examples=40, deadline=None)
@given(roll_free_networks(),
       st.lists(st.floats(0.0, 120.0, exclude_max=True), min_size=1,
                max_size=10))
def test_success_set_path_matches_scalar_path_on_roll_free_networks(
        net, draws):
    cfg = PlannerConfig()
    succeeding = assert_draws_match_scalar(net, draws, cfg,
                                           REFERENCE_GEOMETRY)
    assert succeeding is not None
    assert_draws_match_scalar(net, endpoint_draws(succeeding), cfg,
                              REFERENCE_GEOMETRY)


def old_success_set(net, cfg, geom):
    """success_set's derivation before complement returned canonical sets:
    a leading and a trailing gap merged into one wrapped gap, which a
    second normalize split again."""
    forbidden, shift = [], 0.0
    for i, segment in enumerate(net.segments):
        if i > 0:
            shift = sim.shift_reference(shift, net, i - 1, i)
        if segment.kind is SegmentKind.TEE and segment.exit is TeeExit.BRANCH:
            h = region_for_tee(segment, cfg, geom).half_width_deg
            forbidden += [(c - h - shift, c + h - shift) for c in (0.0, 60.0)]
    failing = normalize(forbidden, 120.0)
    gaps, prev_hi = [], 0.0
    for lo, hi in failing:
        if lo > prev_hi + 1e-9:
            gaps.append((prev_hi, lo))
        prev_hi = max(prev_hi, hi)
    if not failing or prev_hi < 120.0 - 1e-9:
        gaps.append((prev_hi, 120.0))
    if len(gaps) >= 2 and gaps[0][0] <= 1e-9 and gaps[-1][1] >= 120.0 - 1e-9:
        first = gaps.pop(0)
        gaps.append((gaps.pop()[0], 120.0 + first[1]))
    return normalize(gaps, 120.0)


@settings(max_examples=60, deadline=None)
@given(roll_free_networks(), st.integers(0, 2**32 - 1))
def test_success_set_matches_the_old_complement_path(net, seed):
    # the old path re-split the wrapped gap, which could round the first
    # piece's upper end; a draw that close to an endpoint takes the
    # scalar path either way, so every count is the same
    cfg = PlannerConfig()
    got = success_set(net, cfg, REFERENCE_GEOMETRY, False)
    assert got is not None
    old = old_success_set(net, cfg, REFERENCE_GEOMETRY)
    assert len(got) == len(old)
    for piece, old_piece in zip(got, old):
        assert piece == pytest.approx(old_piece, abs=1e-12)
    draws = np.random.default_rng(seed).uniform(0.0, 120.0, size=500)
    draws = np.concatenate([draws, endpoint_draws(got)])
    assert (_count_successes(net, draws, _padded_ends(got), cfg,
                             REFERENCE_GEOMETRY, False)
            == _count_successes(net, draws, _padded_ends(old), cfg,
                                REFERENCE_GEOMETRY, False))


@pytest.mark.parametrize("case", ["escape", "escape elbow",
                                  "reversing turn", "late trigger",
                                  "stalled drive"])
def test_monte_carlo_without_a_success_set_counts_as_before(cfg, geom,
                                                           tee_net, case):
    net, with_holonomic = {
        "escape": (tee_net, True),
        "escape elbow": (turn_net(), True),
        "reversing turn": (PipeNetwork((straight(D, 300.0),
                                        tee(D, equivalent_radius_mm=55.0),
                                        straight(D, 300.0))), False),
        "late trigger": (turn_net(), False),
        "stalled drive": (tee_net, False),
    }[case]
    if case == "late trigger":
        cfg = PlannerConfig(tee_trigger_fraction=0.75)
    if case == "stalled drive":
        # v_cz below the simulator's STALL_SPEED while the chain
        # rates are above it: every trial stops with no forward progress,
        # which the scalar check inside success_set notices
        cfg = PlannerConfig(straight_speed=1e-13)
        geom = dataclasses.replace(geom, lug_radius_r=0.01)
    assert success_set(net, cfg, geom, with_holonomic) is None
    draws = np.random.default_rng(5).uniform(0.0, 120.0, size=60)
    res = monte_carlo_tee(net, cfg, geom, 60, seed=5,
                          with_holonomic=with_holonomic)
    assert res.successes == sum(
        scalar_completes(net, float(t), cfg, geom, with_holonomic)
        for t in draws)


# -- success-set memo ----------------------------------------------------------------

def hex_set(succeeding):
    """An interval set's bits, so that 0.0 and -0.0 differ."""
    return [(lo.hex(), hi.hex()) for lo, hi in succeeding]


def derive_cold(net, cfg, geom):
    """success_set's derivation without the memo."""
    succeeding, _, _ = sim._derived_set.__wrapped__(net, cfg, geom, False)
    return list(succeeding)


def decide_each(net, draws, succeeding, cfg, geom):
    """Each draw's outcome as Monte Carlo counts it from this set."""
    return [_count_successes(net, np.array([theta5]),
                             _padded_ends(succeeding), cfg, geom,
                             False)[0] for theta5 in draws]


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_success_set_memo_gives_the_cold_results(cfg, geom, tee_net, seed):
    cold_set = derive_cold(tee_net, cfg, geom)
    sim._derived_set.cache_clear()
    cold = monte_carlo_tee(tee_net, cfg, geom, 100_000, seed=seed,
                           with_holonomic=False)
    warm = monte_carlo_tee(tee_net, cfg, geom, 100_000, seed=seed,
                           with_holonomic=False)
    info = sim._derived_set.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold.to_dict() == warm.to_dict()
    warm_set = success_set(tee_net, cfg, geom, False)
    assert hex_set(warm_set) == hex_set(cold_set)
    # the head of the criterion-7 draw stream for this seed
    draws = np.random.default_rng(seed).uniform(0.0, 120.0, size=2000)
    assert (decide_each(tee_net, draws, warm_set, cfg, geom)
            == decide_each(tee_net, draws, cold_set, cfg, geom))


@st.composite
def zero_roll_networks(draw):
    """A roll-free network and a copy whose turns' zero rolls, many of
    them, have the other sign: the two compare equal."""
    net = draw(roll_free_networks(max_segments=5))
    signs = []
    for segment in net.segments:
        if segment.kind is not SegmentKind.STRAIGHT and draw(st.booleans()):
            signs.append(draw(st.sampled_from([0.0, -0.0])))
        else:
            signs.append(None)

    def build(flip):
        segments = []
        for segment, zero in zip(net.segments, signs):
            if zero is not None:
                zero = -zero if flip else zero
                field = ("turn_plane_roll_deg"
                         if segment.kind is SegmentKind.ELBOW
                         else "branch_roll_deg")
                segment = dataclasses.replace(segment, **{field: zero})
            segments.append(segment)
        return PipeNetwork(tuple(segments))

    return build(False), build(True)


@settings(max_examples=40, deadline=None)
@given(zero_roll_networks(), st.integers(0, 2**32 - 1))
def test_success_set_memo_is_exact_on_roll_free_networks(nets, seed):
    net, flipped = nets
    cfg = PlannerConfig()
    assert net == flipped and hash(net) == hash(flipped)
    # equal keys give equal bits, so either network may fill the memo
    cold_set = derive_cold(net, cfg, REFERENCE_GEOMETRY)
    assert (hex_set(derive_cold(flipped, cfg, REFERENCE_GEOMETRY))
            == hex_set(cold_set))
    sim._derived_set.cache_clear()
    cold = monte_carlo_tee(net, cfg, REFERENCE_GEOMETRY, 300, seed=seed,
                           with_holonomic=False)
    warm = monte_carlo_tee(flipped, cfg, REFERENCE_GEOMETRY, 300, seed=seed,
                           with_holonomic=False)
    assert sim._derived_set.cache_info().hits == 1
    assert cold.to_dict() == warm.to_dict()
    warm_set = success_set(flipped, cfg, REFERENCE_GEOMETRY, False)
    assert hex_set(warm_set) == hex_set(cold_set)
    draws = np.random.default_rng(seed).uniform(0.0, 120.0, size=300)
    draws = np.concatenate([draws, endpoint_draws(cold_set)])
    assert (decide_each(net, draws, warm_set, cfg, REFERENCE_GEOMETRY)
            == decide_each(net, draws, cold_set, cfg, REFERENCE_GEOMETRY))


def test_success_set_returns_a_fresh_list(cfg, geom, tee_net):
    first = success_set(tee_net, cfg, geom, False)
    expected = list(first)
    first.append((100.0, 110.0))
    first[0] = (0.0, 1.0)
    second = success_set(tee_net, cfg, geom, False)
    assert second == expected and second is not first


def test_success_set_raises_a_planner_error_on_every_call(geom, tee_net):
    # every spot-check mission's straight lasts longer than a float holds
    cfg = PlannerConfig(straight_speed=1e-320)
    for _ in range(2):
        with pytest.raises(PlanError, match="out of range"):
            success_set(tee_net, cfg, geom, False)
        with pytest.raises(PlanError, match="out of range"):
            monte_carlo_tee(tee_net, cfg, geom, 10, seed=1,
                            with_holonomic=False)
    info = sim._derived_set.cache_info()
    assert (info.hits, info.currsize) == (0, 0)


@pytest.mark.parametrize("trials, seed", [(True, 1), (5, False), (5, True)])
def test_monte_carlo_rejects_boolean_counts(cfg, geom, tee_net, trials,
                                            seed):
    with pytest.raises(ValueError, match="must be an integer"):
        monte_carlo_tee(tee_net, cfg, geom, trials, seed=seed,
                        with_holonomic=False)


def test_monte_carlo_stores_python_ints(cfg, geom, tee_net):
    res = monte_carlo_tee(tee_net, cfg, geom, np.int64(5), seed=np.uint8(3),
                          with_holonomic=False)
    assert type(res.trials) is int and type(res.seed) is int
    assert (res.trials, res.seed) == (5, 3)
    assert json.loads(json.dumps(res.to_dict()))["trials"] == 5
    with pytest.raises(ValueError,
                       match="^trials must be an integer, got 5.0$"):
        monte_carlo_tee(tee_net, cfg, geom, 5.0, seed=1,
                        with_holonomic=False)


# -- trajectory output ----------------------------------------------------------------

def test_csv_header_and_shape(cfg, geom, tee_net, tmp_path):
    assert TRAJECTORY_CSV_HEADER == ("time_s,segment,s_mm,theta5_deg,"
                                     "th1,th2,th3,th4,wx,wy,wz,vcz,"
                                     "sign1,sign2,sign3,singular,event")
    plan = plan_mission(tee_net, 30.0, cfg, geom)
    _, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=30.0)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert len(lines) == len(records) + 1
    ncols = len(TRAJECTORY_CSV_HEADER.split(","))
    for line in lines[1:]:
        assert len(line.split(",")) == ncols
    row = lines[1].split(",")
    assert float(row[0]) == records[0].time_s
    assert int(row[1]) == records[0].segment_index
    assert float(row[2]) == records[0].s_mm
    assert row[15] in ("0", "1")


def test_csv_output_is_byte_identical_across_runs(cfg, geom, tee_net,
                                                  tmp_path):
    blobs = []
    for name in ("a.csv", "b.csv"):
        plan = plan_mission(tee_net, 77.0, cfg, geom)
        _, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=77.0)
        path = tmp_path / name
        write_trajectory_csv(records, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_trajectory_is_a_sequence_of_records(cfg, geom, tee_net, tmp_path):
    # theta5 = 0 takes the escape, so a roll step's signs vary by row
    plan = plan_mission(tee_net, 0.0, cfg, geom)
    _, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=0.0)
    assert isinstance(records, Trajectory)
    built = list(records)
    assert len(built) == len(records) > 1000
    assert all(isinstance(r, TrajectoryRecord) for r in built)
    assert [records[i] for i in range(len(records))] == built
    assert records[-1] == built[-1] and records[-3:] == built[-3:]
    assert len({r.drive_sign for r in built}) > 1
    write_trajectory_csv(records, tmp_path / "columns.csv")
    write_trajectory_csv(built, tmp_path / "records.csv")
    assert ((tmp_path / "columns.csv").read_bytes()
            == (tmp_path / "records.csv").read_bytes())


def test_run_mission_keeps_no_collector_object_per_record(cfg, geom,
                                                          tee_net):
    # records held as objects would reach the old generations on every
    # long mission and make full collections periodic
    plan = plan_mission(tee_net, 0.0, cfg, geom)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        _, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=0.0)
        kept = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(records) > 1000
    assert kept < 100
    # a step that drives while it rolls takes the scalar path on every
    # substep, so each row is a block of one; the collector untracks a
    # block's tuple of plain values when it first sees it, which needs
    # the step's drive tuple kept apart from it
    net = PipeNetwork((straight(D, 1e6),))
    plan = [MissionStep(StepKind.DRIVE, CommandVector(1.0, 1.0, 1.0, 0.001),
                        200.0)]
    gc.collect()
    before = len(gc.get_objects())
    _, records = run_mission(net, plan, cfg, geom)
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert len(records) == len(list(records.blocks())) >= 20_000
    assert kept < 100


def test_run_mission_reads_an_iterator_plan_once(cfg, geom, tee_net,
                                                 tmp_path):
    plan = plan_mission(tee_net, 17.0, cfg, geom)
    runs = []
    for name, steps in (("list.csv", plan), ("iter.csv", iter(plan))):
        outcome, records = run_mission(tee_net, steps, cfg, geom,
                                       theta5_deg=17.0)
        write_trajectory_csv(records, tmp_path / name)
        runs.append((outcome, (tmp_path / name).read_bytes()))
    assert runs[0][0].success
    assert runs[1] == runs[0]


def test_monte_carlo_takes_a_network_built_from_a_list(cfg, geom):
    segments = [straight(D, 500.0), tee(D), straight(D, 300.0)]
    net, expected = PipeNetwork(segments), PipeNetwork(tuple(segments))
    assert net.segments == expected.segments
    assert hash(net) == hash(expected)
    assert (monte_carlo_tee(net, cfg, geom, 200, seed=1, with_holonomic=False)
            == monte_carlo_tee(expected, cfg, geom, 200, seed=1,
                               with_holonomic=False))


def test_csv_formats_equal_twists_that_differ_in_a_signed_zero(tmp_path):
    rec = TrajectoryRecord(0.1, 0, 1.0, 0.0, DRIVE,
                           TwistVector(0.0, 0.0, 0.0, 100.0), 1, False)
    neg = dataclasses.replace(rec, time_s=0.2,
                              twist=TwistVector(-0.0, 0.0, 0.0, 100.0))
    assert neg.twist == rec.twist
    write_trajectory_csv([rec, neg, rec], tmp_path / "t.csv")
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert [row.split(",")[8] for row in rows] == ["0.0", "-0.0", "0.0"]


def test_outcome_json_round_trip(cfg, geom):
    net = PipeNetwork((straight(D, 500.0),))
    plan = plan_mission(net, 0.0, cfg, geom)
    outcome, _ = run_mission(net, plan, cfg, geom)
    doc = json.loads(outcome_to_json(outcome))
    assert doc["success"] is True
    assert doc["reason"] == "completed"
    assert doc["time_s"] == pytest.approx(5.0)


# -- per-step integration against the per-substep reference ---------------------------

def stepwise_run(net, plan, cfg, geom, theta5_deg=0.0, dt=0.01):
    """Reference run_mission: one public step() call per substep."""
    state = SimState(theta5_deg=wrap(theta5_deg, 360.0))
    records, events, failure, done = [], [], None, False
    for mstep in plan:
        segment = net.segments[state.segment_index]
        if (mstep.kind is StepKind.TURN_TEE
                and segment.kind is SegmentKind.TEE
                and in_singularity(state.theta5_deg,
                                   region_for_tee(segment, cfg, geom))):
            events.append("singularity_at_turn_onset")
            records.append(TrajectoryRecord(
                state.time_s, state.segment_index, state.s_mm,
                state.theta5_deg, mstep.command,
                TwistVector(0.0, 0.0, 0.0, 0.0), 0, True,
                "singularity_at_turn_onset"))
            failure = "singularity"
            break
        n = 1 if dt is None else max(1, math.ceil(
            min(mstep.duration_s / dt, MAX_SUBSTEPS + 1)
            - SUBSTEP_RATIO_SLACK))
        h_regular = mstep.duration_s if dt is None else dt
        for k in range(n):
            h = (h_regular if k < n - 1
                 else mstep.duration_s - h_regular * (n - 1))
            if n > 1 and k == n - 1 and h <= MIN_PARTIAL_SUBSTEP_S:
                continue
            state, record = step(state, mstep.command, h, net, geom, cfg)
            c = mstep.command
            if (k == 0 and mstep.kind is not StepKind.HOLONOMIC_ROTATE
                    and abs(record.twist.v_cz) < STALL_SPEED
                    and max(abs(c.theta_dot_1), abs(c.theta_dot_2),
                            abs(c.theta_dot_3)) > STALL_SPEED):
                records.append(dataclasses.replace(
                    record, event="no_forward_progress"))
                events.append("no_forward_progress")
                failure = "no_forward_progress"
                break
            if mstep.kind is StepKind.TURN_TEE and record.singular:
                record = dataclasses.replace(record,
                                             event="singular_mid_turn")
            if record.event and record.event not in events:
                events.append(record.event)
            records.append(record)
            if record.event == "end_of_network":
                done = True
                break
        if failure is not None or done:
            break
    if failure is not None:
        return MissionOutcome(False, failure, state.time_s,
                              tuple(events)), records
    if (state.segment_index == len(net.segments) - 1
            and state.s_mm >= net.segments[-1].arc_length()
            - end_tol_mm(max(seg.arc_length() for seg in net.segments))):
        return MissionOutcome(True, "completed", state.time_s,
                              tuple(events)), records
    return MissionOutcome(False, "incomplete", state.time_s,
                          tuple(events)), records


def assert_matches_stepwise(net, plan, cfg, geom, theta5, dt, tmp_dir):
    """run_mission's outcome and CSV bytes equal the per-substep loop's."""
    outcome, records = run_mission(net, plan, cfg, geom, theta5_deg=theta5,
                                   dt=dt)
    ref_outcome, ref_records = stepwise_run(net, plan, cfg, geom, theta5, dt)
    assert outcome == ref_outcome
    write_trajectory_csv(records, tmp_dir / "fast.csv")
    write_trajectory_csv(list(records), tmp_dir / "built.csv")
    write_trajectory_csv(ref_records, tmp_dir / "ref.csv")
    ref = (tmp_dir / "ref.csv").read_bytes()
    assert (tmp_dir / "fast.csv").read_bytes() == ref
    assert (tmp_dir / "built.csv").read_bytes() == ref
    return outcome


DTS = [0.01, None, 0.037]


def acceptance_rolls(cfg, geom, tee_net):
    """-0.0, 0.0, a free roll and the endpoints of the tee's free gaps."""
    ends = [end for piece in success_set(tee_net, cfg, geom, False)
            for end in piece]
    return [-0.0, 0.0, 30.0, *ends]


@pytest.mark.parametrize("dt", DTS)
@pytest.mark.parametrize("with_holonomic", [True, False])
def test_run_mission_matches_stepwise_on_the_acceptance_tee(
        cfg, geom, tee_net, tmp_path, dt, with_holonomic):
    reasons = set()
    for theta5 in acceptance_rolls(cfg, geom, tee_net):
        plan = plan_mission(tee_net, theta5, cfg, geom,
                            with_holonomic=with_holonomic)
        reasons.add(assert_matches_stepwise(tee_net, plan, cfg, geom, theta5,
                                            dt, tmp_path).reason)
    assert reasons == ({"completed"} if with_holonomic
                       else {"completed", "singularity"})


@pytest.mark.parametrize("dt", DTS)
@pytest.mark.parametrize("case", ["no forward progress", "end of network",
                                  "start of network", "sign change"])
def test_run_mission_matches_stepwise_at_mission_ends(cfg, geom, tmp_path,
                                                     dt, case):
    net = PipeNetwork((straight(D, 150.0),))
    if case == "no forward progress":
        # park the modules on the 90 deg no-motion line, then drive
        plan = [MissionStep(kind=StepKind.HOLONOMIC_ROTATE,
                            command=CommandVector(0.0, 0.0, 0.0, 0.5),
                            duration_s=math.radians(22.5) / 0.5),
                MissionStep(kind=StepKind.DRIVE, command=DRIVE,
                            duration_s=1.0)]
    elif case == "end of network":
        plan = plan_mission(net, 0.0, cfg, geom) * 2
    elif case == "start of network":
        back = CommandVector(-RATE, -RATE, -RATE, 0.0)
        plan = [MissionStep(kind=StepKind.DRIVE, command=back,
                            duration_s=0.5)]
    else:
        # driving while rolling -40 deg turns each module past 90 deg, so
        # the drive signs go from 1 through 0 to -1 within the step and
        # the robot stops, then backs up
        plan = [MissionStep(kind=StepKind.DRIVE,
                            command=CommandVector(RATE, RATE, RATE, -0.5),
                            duration_s=math.radians(40.0) / 0.5)]
    outcome = assert_matches_stepwise(net, plan, cfg, geom, 30.0, dt,
                                      tmp_path)
    expected = {"no forward progress": "no_forward_progress",
                "end of network": "end_of_network",
                "start of network": "start_of_network",
                "sign change": "incomplete"}[case]
    assert expected in (outcome.reason, *outcome.events)


def test_run_mission_matches_stepwise_on_a_stalled_plan(geom, tee_net,
                                                        tmp_path):
    # v_cz below STALL_SPEED while the chain rates are not;
    # at this speed only whole-step substeps stay under MAX_SUBSTEPS
    cfg = PlannerConfig(straight_speed=1e-13)
    geom = dataclasses.replace(geom, lug_radius_r=0.01)
    plan = plan_mission(tee_net, 30.0, cfg, geom)
    outcome = assert_matches_stepwise(tee_net, plan, cfg, geom, 30.0, None,
                                      tmp_path)
    assert outcome.reason == "no_forward_progress"


@settings(max_examples=30, deadline=None)
@given(roll_free_networks(max_segments=4),
       st.floats(-360.0, 360.0) | st.sampled_from([-0.0, 0.0]),
       st.booleans(), st.sampled_from(DTS))
# the crossing into the elbow shifts theta5 by -360 deg to -0.0, which a
# drive block kept while the scalar path's zero roll made it 0.0
@example(net=PipeNetwork((tee(140.0, -180.0), elbow(140.0, 140.0, 15.0,
                                                    180.0))),
         theta5=0.0, with_holonomic=False, dt=0.01)
def test_run_mission_matches_stepwise_on_generated_networks(
        tmp_path_factory, net, theta5, with_holonomic, dt):
    cfg = PlannerConfig()
    try:
        plan = plan_mission(net, theta5, cfg, REFERENCE_GEOMETRY,
                            with_holonomic=with_holonomic)
    except (PlanError, NoEscapeError):
        return  # a turn the robot cannot take
    assert_matches_stepwise(net, plan, cfg, REFERENCE_GEOMETRY, theta5, dt,
                            tmp_path_factory.mktemp("csv"))


# -- step blocks: whole substeps between boundary crossings ---------------------------

def short_straights_net():
    """Straights shorter than one substep's travel (1 mm at dt 0.01, 3.7
    mm at 0.037) between a branch tee and a through tee."""
    return PipeNetwork((straight(D, 20.0), straight(D, 0.4),
                        straight(D, 0.3), straight(D, 2.5), tee(D, 30.0),
                        straight(D, 0.7),
                        tee(D, 75.0, exit=TeeExit.THROUGH),
                        straight(D, 40.0)))


@pytest.mark.parametrize("dt", [0.01, 0.037])
@pytest.mark.parametrize("case", ["several crossings", "end mid-block",
                                  "start on a reversing block",
                                  "singular mid-turn"])
def test_run_mission_matches_stepwise_across_crossings_inside_a_step(
        cfg, geom, tmp_path, dt, case):
    net = short_straights_net()
    across = net.total_length() / 100.0  # seconds at 100 mm/s
    back = CommandVector(-RATE, -RATE, -RATE, 0.0)
    plan, expected = {
        "several crossings": (
            [MissionStep(kind=StepKind.DRIVE, command=DRIVE,
                         duration_s=across - 0.05)], "incomplete"),
        "end mid-block": (
            [MissionStep(kind=StepKind.DRIVE, command=DRIVE,
                         duration_s=2.0 * across)], "end_of_network"),
        "start on a reversing block": (
            [MissionStep(kind=StepKind.DRIVE, command=DRIVE,
                         duration_s=0.6),
             MissionStep(kind=StepKind.DRIVE, command=back,
                         duration_s=1.5)], "start_of_network"),
        # a turn step that starts on a straight passes the onset check and
        # then runs inside the tee's region: its block rows carry the event
        "singular mid-turn": (
            [MissionStep(kind=StepKind.TURN_TEE, command=DRIVE,
                         duration_s=1.0)], "singular_mid_turn"),
    }[case]
    outcome = assert_matches_stepwise(net, plan, cfg, geom, 0.0, dt,
                                      tmp_path)
    assert expected in (outcome.reason, *outcome.events)
    _, records = run_mission(net, plan, cfg, geom, theta5_deg=0.0, dt=dt)
    # the step crosses the three short straights into the branch tee
    assert max(r.segment_index for r in records) >= 4


@pytest.mark.parametrize("substeps", [1, 2, 3])
@pytest.mark.parametrize("last", ["whole", "partial"])
def test_run_mission_matches_stepwise_on_steps_of_few_substeps(
        cfg, geom, tmp_path, substeps, last):
    dt = 0.037
    duration = dt * (substeps - (0.0 if last == "whole" else 0.5))
    plan = [MissionStep(kind=StepKind.DRIVE, command=DRIVE,
                        duration_s=duration)] * 80
    outcome = assert_matches_stepwise(short_straights_net(), plan, cfg, geom,
                                      30.0, dt, tmp_path)
    assert outcome.reason in ("completed", "incomplete")


@pytest.mark.parametrize("dt", DTS)
@pytest.mark.parametrize("theta_dot_4", [0.0, -0.0])
def test_run_mission_matches_stepwise_from_a_negative_zero_roll(
        cfg, geom, tee_net, tmp_path, dt, theta_dot_4):
    # the first substep turns theta5 = -0.0 into 0.0 when theta_dot_4 is
    # 0.0 and keeps -0.0 when it is -0.0; the block after it must agree
    plan = [MissionStep(kind=StepKind.DRIVE,
                        command=CommandVector(RATE, RATE, RATE, theta_dot_4),
                        duration_s=5.5)]
    assert_matches_stepwise(tee_net, plan, cfg, geom, -0.0, dt, tmp_path)
    _, records = run_mission(tee_net, plan, cfg, geom, theta5_deg=-0.0,
                             dt=dt)
    on_straight = [math.copysign(1.0, r.theta5_deg) for r in records
                   if r.segment_index == 0]
    assert on_straight == [math.copysign(1.0, theta_dot_4)] * len(on_straight)
    assert (len(on_straight) > 100) is (dt is not None)


@settings(max_examples=30, deadline=None)
@given(roll_free_networks(max_segments=4),
       st.floats(-360.0, 360.0) | st.sampled_from([-0.0, 0.0]),
       st.booleans(), st.integers(0, 40),
       st.sampled_from([1.0 - 1e-9, 0.5 - 1e-9, 0.34]))
def test_run_mission_matches_stepwise_at_a_dt_near_a_step_duration(
        tmp_path_factory, net, theta5, with_holonomic, pick, share):
    # a dt just below a step's duration (or its half or third) gives that
    # step two to four substeps, so blocks of zero and one row occur
    cfg = PlannerConfig()
    try:
        plan = plan_mission(net, theta5, cfg, REFERENCE_GEOMETRY,
                            with_holonomic=with_holonomic)
    except (PlanError, NoEscapeError):
        return  # a turn the robot cannot take
    total = sum(mstep.duration_s for mstep in plan)
    dt = max(plan[pick % len(plan)].duration_s * share, total / 3000.0)
    assert_matches_stepwise(net, plan, cfg, REFERENCE_GEOMETRY, theta5, dt,
                            tmp_path_factory.mktemp("csv"))


# -- roll blocks: whole substeps of a pure roll -----------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 360.0, exclude_max=True) | st.sampled_from([-0.0, 0.0]),
       st.floats(-1e4, 1e4) | st.sampled_from([0.0, -0.0]),
       st.floats(-3.0, 3.0).filter(bool), st.integers(1, 80),
       st.sampled_from([140.0, 160.0, 200.0]))
def test_roll_sums_match_repeated_rolls(theta5, alpha, roll_rad, m, d_mm):
    geom = REFERENCE_GEOMETRY
    thetas, alphas = roll_sums(theta5, alpha, roll_rad, d_mm, geom, m)
    assert len(thetas) == len(alphas) == m + 1
    state = (theta5, alpha)
    for j in range(1, m + 1):
        state = roll(*state, roll_rad, d_mm, geom)
        assert alphas[j].hex() == state[1].hex()
        if 0.0 <= thetas[j] < 360.0:
            assert thetas[j].hex() == state[0].hex()
        else:
            assert wrap(thetas[j], 360.0) == state[0]
            return


def near_lines(period, offset, width):
    """Floats on and one part in 1e12 off the lines period k + offset +-
    width, k in -4..4, where a predicate may change."""
    return st.builds(
        lambda k, e, d: (period * k + offset + e) * (1.0 + d),
        st.integers(-4, 4), st.sampled_from([-width, width]),
        st.sampled_from([0.0, 1e-12, -1e-12]))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(-7.0, 7.0) | st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300]), st.integers(0, 60),
       st.floats(0.01, 50.0))
def test_stay_on_segment_cuts_where_the_scalar_loop_crosses(s, ds, m,
                                                            length):
    s = min(s, length)
    expected = []
    for _ in range(m):
        s_next = (expected[-1] if expected else s) + ds
        if s_next > length + BOUNDARY_TOL_MM or s_next < -BOUNDARY_TOL_MM:
            break
        expected.append(s_next)
    # drive blocks one after another, as run_mission builds them, until
    # one is empty: the next substep leaves the segment
    net, got = PipeNetwork((straight(D, length),)), []
    while len(got) < m:
        rows, end = sim._block(net, 0, s, 0.0, (0.0, 0.0, 0.0), ds, 0.0,
                               m - len(got), PlannerConfig(),
                               REFERENCE_GEOMETRY)
        if not rows:
            break
        got += rows
        s = end[0]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def assert_held_like_a_scan(xs, f, period, offset, width):
    """_held proves f constant on xs[1:j], and stops at the first change
    unless its walk ran out."""
    ref = f(xs[0])
    j = _held(xs, f, _stop(xs[0], xs[-1] - xs[0], period, offset, width))
    first_change = next((i for i in range(1, len(xs)) if f(xs[i]) != ref),
                        len(xs))
    assert 1 <= j <= first_change
    assert j == first_change or j > _WALK


@settings(max_examples=500, deadline=None)
@given(st.floats(-1e7, 1e7) | near_lines(math.pi, math.pi / 2.0,
                                         math.radians(1.0)),
       st.floats(-0.7, 0.7).filter(bool) | st.sampled_from([1e-13, -2e-9]),
       st.integers(1, 300), st.sampled_from([0.0, 1.0, 10.0]))
def test_held_finds_each_drive_sign_change(alpha, turn, m, deadband_deg):
    xs = list(accumulate(repeat(turn, m), initial=alpha))
    deadband = math.radians(deadband_deg)
    assert_held_like_a_scan(xs, lambda a: drive_sign(a, deadband), math.pi,
                            math.pi / 2.0, deadband)


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 360.0) | near_lines(60.0, 0.0, 24.135),
       st.floats(-5.0, 5.0).filter(bool), st.integers(1, 300),
       st.floats(0.0, 29.9) | st.sampled_from([24.135, 1e-9]))
def test_held_finds_each_tee_check_flip(theta5, step_deg, m, half_width):
    xs = list(accumulate(repeat(step_deg, m), initial=theta5))
    region = SingularityRegion(half_width)
    assert_held_like_a_scan(xs, lambda x: in_singularity(x, region), 60.0,
                            0.0, half_width)


def scan_block(net, state, cmd, h, most, cfg):
    """The scalar path's states after each of up to ``most`` substeps,
    one step() call each, up to the first substep that leaves the
    segment, wraps theta5 or flips the tee check, and through the first
    that changes a drive sign."""
    deadband = cfg.deadband_rad
    sign = drive_sign(state.alpha_rad, deadband)
    segment = net.segments[state.segment_index]
    region = region_for_tee(segment, cfg, REFERENCE_GEOMETRY)
    singular = in_singularity(state.theta5_deg, region)
    states = []
    for _ in range(most):
        unwrapped = state.theta5_deg + math.degrees(cmd.theta_dot_4 * h)
        state, record = step(state, cmd, h, net, REFERENCE_GEOMETRY, cfg)
        if (record.segment_index != 1 or record.event
                or state.theta5_deg != unwrapped
                or in_singularity(state.theta5_deg, region) != singular):
            break
        states.append(state)
        if drive_sign(state.alpha_rad, deadband) != sign:
            break
    return states


@st.composite
def block_cases(draw):
    """A state on a branch tee near the lines where a block is cut: the
    tee's ends, 0 and 360 deg and 60 k +- h of theta5, and (k + 1/2) pi
    +- deadband of alpha; a drive and a roll command, and a substep."""
    d = draw(st.sampled_from([140.0, 150.0, 160.0, 165.0]))
    cfg = PlannerConfig(wobble_deadband_deg=draw(st.sampled_from(
        [0.0, 1.0, 10.0])))
    net = PipeNetwork((straight(d, 100.0), tee(d, draw(st.floats(0.0, 360.0))),
                       straight(d, 100.0)))
    h = region_for_tee(net.segments[1], cfg, REFERENCE_GEOMETRY
                       ).half_width_deg
    length = net.segments[1].arc_length()
    s = draw(st.floats(0.0, 1.0) | st.sampled_from([1e-13, 1.0 - 1e-16]))
    theta5 = draw(st.floats(0.0, 360.0) | near_lines(60.0, 0.0, h)
                  | near_lines(360.0, 0.0, 0.0))
    alpha = st.floats(-1e4, 1e4) | near_lines(math.pi, math.pi / 2.0,
                                              cfg.deadband_rad)
    state = SimState(segment_index=1, s_mm=s * length + 0.0,
                     theta5_deg=wrap(theta5, 360.0) + 0.0,
                     alpha_rad=draw(alpha))
    rate = st.floats(-50.0, 50.0) | st.sampled_from([0.0, 1e-300, 1e-320])
    drive = CommandVector(*[draw(rate)] * 3, 0.0)
    rolls = CommandVector(0.0, 0.0, 0.0, draw(
        st.floats(-3.0, 3.0).filter(bool)
        | st.sampled_from([1e-13, -1e-9, 5e-324])))
    return (net, cfg, state, drive, rolls, draw(st.floats(1e-3, 0.05)),
            draw(st.integers(1, 300)))


def slow_roll_into_the_tee_region():
    """A roll of 1e-9 deg per substep from 5e-9 deg short of the line
    60 - h: in_singularity's 1e-9 deg of slack flips the tee check one
    substep before the line."""
    cfg = PlannerConfig()
    net = PipeNetwork((straight(D, 100.0), tee(D), straight(D, 100.0)))
    h = region_for_tee(net.segments[1], cfg, REFERENCE_GEOMETRY
                       ).half_width_deg
    state = SimState(segment_index=1, s_mm=10.0,
                     theta5_deg=60.0 - h - 5e-9)
    rolls = CommandVector(0.0, 0.0, 0.0, math.radians(1e-9) / 0.01)
    return net, cfg, state, DRIVE, rolls, 0.01, 50


@settings(max_examples=500, deadline=None)
@given(block_cases())
@example(case=slow_roll_into_the_tee_region())
def test_block_cuts_where_the_scalar_loop_does(case):
    # one draw drives and rolls from one state, so it can cross a boundary
    # and wrap theta5, flip the tee check and change a drive sign
    net, cfg, state, drive, rolls, h, most = case
    sign = drive_sign(state.alpha_rad, cfg.deadband_rad)
    for cmd in (drive, rolls):
        ds = float(forward_kinematics(signed_drive(cmd, sign),
                                      REFERENCE_GEOMETRY).v_cz * h)
        roll_rad = cmd.theta_dot_4 * h
        rows, end = sim._block(net, 1, state.s_mm, state.theta5_deg,
                               state.alpha_rad, ds, roll_rad, most, cfg,
                               REFERENCE_GEOMETRY)
        expected = scan_block(net, state, cmd, h, most, cfg)
        # the block is the scan's rows, or stops short of them only where
        # _held's walk ran out
        assert len(rows) == len(expected) or _WALK <= len(rows) < len(expected)
        moved = [x.theta5_deg if roll_rad else x.s_mm
                 for x in expected[:len(rows)]]
        assert [x.hex() for x in rows] == [x.hex() for x in moved]
        if rows:
            last = expected[len(rows) - 1]
            assert [x.hex() for x in end] == [
                x.hex() for x in (last.s_mm, last.theta5_deg,
                                  last.alpha_rad)]


@st.composite
def roll_plans(draw):
    """(cfg, plan, theta5): optionally a drive onto the acceptance tee's
    tee segment, then one to four pure rolls of either sign, some as tee
    turns so that their singular rows carry the mid-turn event."""
    cfg = PlannerConfig(wobble_deadband_deg=draw(st.sampled_from(
        [0.0, 1.0, 10.0])))
    plan = []
    if draw(st.booleans()):
        # 100 mm/s from s = 0 to 1-200 mm into the 205.7 mm tee
        plan.append(MissionStep(kind=StepKind.DRIVE, command=DRIVE,
                                duration_s=(500.0 + draw(st.floats(
                                    1.0, 200.0))) / 100.0))
    for _ in range(draw(st.integers(1, 4))):
        rate = draw(st.floats(0.05, 3.0)) * draw(st.sampled_from([1, -1]))
        plan.append(MissionStep(
            kind=draw(st.sampled_from([StepKind.HOLONOMIC_ROTATE,
                                       StepKind.TURN_TEE])),
            command=CommandVector(0.0, 0.0, 0.0, rate),
            duration_s=draw(st.floats(0.005, 2.5))))
    theta5 = draw(st.floats(0.0, 360.0, exclude_max=True)
                  | st.sampled_from([-0.0, 0.0, 0.05, 359.95, 24.1, 35.9]))
    return cfg, plan, theta5


def assert_indexes_like_iteration(records):
    built = list(records)
    n = len(built)
    assert [records[i] for i in range(n)] == built
    assert [records[-i] for i in range(1, n + 1)] == built[::-1]
    for piece in (slice(None), slice(1, None, 3), slice(-5, None),
                  slice(None, None, -7), slice(n // 3, -(n // 4) or None)):
        assert records[piece] == built[piece]


@settings(max_examples=150, deadline=None)
@given(roll_plans(), st.sampled_from(DTS + [0.0123]))
@example(case=(PlannerConfig(), [MissionStep(
    kind=StepKind.HOLONOMIC_ROTATE, command=CommandVector(0.0, 0.0, 0.0, -0.5),
    duration_s=2.0)], 0.3), dt=0.01)
def test_run_mission_matches_stepwise_on_roll_plans(tmp_path_factory, case,
                                                    dt):
    cfg, plan, theta5 = case
    tee_net = PipeNetwork((straight(D, 500.0), tee(D), straight(D, 300.0)))
    assert_matches_stepwise(tee_net, plan, cfg, REFERENCE_GEOMETRY, theta5,
                            dt, tmp_path_factory.mktemp("csv"))
    _, records = run_mission(tee_net, plan, cfg, REFERENCE_GEOMETRY,
                             theta5_deg=theta5, dt=dt)
    assert_indexes_like_iteration(records)


@pytest.mark.parametrize("dt", DTS + [0.0123])
@pytest.mark.parametrize("case", ["wrap up", "wrap down", "deadband 0",
                                  "deadband 10", "tee flips"])
def test_run_mission_matches_stepwise_across_roll_cuts(tee_net, tmp_path, dt,
                                                      case):
    # each roll crosses what its name says at least once, inside the step
    rate, duration, theta5, deadband, drive_s = {
        "wrap up": (0.5, 1.0, 350.0, 1.0, 0.0),
        "wrap down": (-0.5, 1.0, 10.0, 1.0, 0.0),
        "deadband 0": (-1.3, 2.0, 100.0, 0.0, 0.0),
        "deadband 10": (2.0, 2.0, 100.0, 10.0, 0.0),
        "tee flips": (0.5, 2.5, 10.0, 1.0, 6.0),
    }[case]
    cfg = PlannerConfig(wobble_deadband_deg=deadband)
    plan = [MissionStep(kind=StepKind.HOLONOMIC_ROTATE,
                        command=CommandVector(0.0, 0.0, 0.0, rate),
                        duration_s=duration)]
    if drive_s:
        plan.insert(0, MissionStep(kind=StepKind.DRIVE, command=DRIVE,
                                   duration_s=drive_s))
    assert_matches_stepwise(tee_net, plan, cfg, REFERENCE_GEOMETRY, theta5,
                            dt, tmp_path)
    _, records = run_mission(tee_net, plan, cfg, REFERENCE_GEOMETRY,
                             theta5_deg=theta5, dt=dt)
    assert_indexes_like_iteration(records)
    rows = [r for r in records if r.command.theta_dot_4]
    changes = {
        "wrap": sum(abs(a.theta5_deg - b.theta5_deg) > 180.0
                    for a, b in zip(rows, rows[1:])),
        "sign": sum(a.drive_sign != b.drive_sign
                    for a, b in zip(rows, rows[1:])),
        "tee": sum(a.singular != b.singular for a, b in zip(rows, rows[1:])),
    }
    # with dt=None the step is a single row
    assert (changes[case.split()[0].replace("deadband", "sign")] >= 1) is (
        dt is not None)


def test_run_mission_matches_stepwise_when_a_roll_overflows_alpha(cfg,
                                                                  tmp_path):
    # a module radius of 5e-307 mm makes each substep turn alpha by
    # -6.4e304 rad, so alpha overflows on the step's last whole substep;
    # the rounding remainder after it is skipped, so no drive sign is
    # taken of the infinite alpha, and the mission ends without an error
    geom = dataclasses.replace(REFERENCE_GEOMETRY,
                               module_outer_radius=5e-307)
    dt = 4e-4
    turn = -(dt * rolling_gain(D, geom))
    substeps = next(j for j, a in enumerate(accumulate(repeat(turn)))
                    if math.isinf(a)) + 1
    net = PipeNetwork((straight(D, 500.0),))
    plan = [MissionStep(kind=StepKind.HOLONOMIC_ROTATE,
                        command=CommandVector(0.0, 0.0, 0.0, 1.0),
                        duration_s=dt * substeps + 8e-16)]
    outcome = assert_matches_stepwise(net, plan, cfg, geom, 10.0, dt,
                                      tmp_path)
    assert outcome.reason == "incomplete"
    _, records = run_mission(net, plan, cfg, geom, theta5_deg=10.0, dt=dt)
    assert len(records) == substeps


@st.composite
def elbow_networks(draw):
    """Straight, elbow, straight, branch tee, straight, elbow, straight:
    with the escape the robot rolls to align each elbow and each tee."""
    # the reference robot's tee half-width runs from 0 at D = 140 to
    # 29.4 deg at D = 165; from D = 170 on its region covers every roll
    d = draw(st.sampled_from([140.0, 150.0, 160.0, 165.0]))
    roll_deg = st.floats(0.0, 360.0)
    length = st.floats(50.0, 400.0)
    return PipeNetwork((
        straight(d, draw(length)),
        elbow(d, draw(st.floats(1.5, 3.0)) * d,
              draw(st.sampled_from([30.0, 45.0, 90.0])), draw(roll_deg)),
        straight(d, draw(length)), tee(d, draw(roll_deg)),
        straight(d, draw(length)),
        elbow(d, draw(st.floats(1.5, 3.0)) * d,
              draw(st.sampled_from([30.0, 45.0, 90.0])), draw(roll_deg)),
        straight(d, draw(length))))


@settings(max_examples=30, deadline=None)
@given(elbow_networks(), st.floats(0.0, 360.0, exclude_max=True),
       st.sampled_from([0.01, 0.0123]))
def test_run_mission_matches_stepwise_on_escape_networks_with_elbows(
        tmp_path_factory, net, theta5, dt):
    cfg = PlannerConfig()
    plan = plan_mission(net, theta5, cfg, REFERENCE_GEOMETRY)
    assert any(mstep.kind is StepKind.HOLONOMIC_ROTATE for mstep in plan)
    outcome = assert_matches_stepwise(net, plan, cfg, REFERENCE_GEOMETRY,
                                      theta5, dt,
                                      tmp_path_factory.mktemp("csv"))
    assert outcome.reason == "completed"


@settings(max_examples=80, deadline=None)
@given(roll_free_networks() | elbow_networks(),
       st.floats(0.0, 360.0, exclude_max=True), st.booleans())
def test_planned_steps_never_drive_while_they_roll(net, theta5,
                                                   with_holonomic):
    # run_mission forms blocks of whole substeps that move s or roll; a
    # step that does both would stay on the scalar path throughout
    try:
        plan = plan_mission(net, theta5, PlannerConfig(), REFERENCE_GEOMETRY,
                            with_holonomic=with_holonomic)
    except (PlanError, NoEscapeError):
        return  # a turn the robot cannot take
    for mstep in plan:
        cmd = mstep.command
        assert (cmd.theta_dot_1 == cmd.theta_dot_2 == cmd.theta_dot_3 == 0.0
                or cmd.theta_dot_4 == 0.0)


def two_elbow_net():
    return PipeNetwork((straight(D, 400.0), elbow(D, 320.0, 90.0, 40.0),
                        straight(D, 300.0), tee(D, 100.0), straight(D, 300.0),
                        elbow(D, 400.0, 45.0, 200.0), straight(D, 300.0)))


@pytest.mark.parametrize("net", ["acceptance tee", "two elbows"])
def test_roll_steps_add_blocks_per_cut_not_per_substep(cfg, geom, tee_net,
                                                       net):
    net = tee_net if net == "acceptance tee" else two_elbow_net()
    plan = plan_mission(net, 17.0, cfg, geom)
    _, records = run_mission(net, plan, cfg, geom, theta5_deg=17.0, dt=0.01)
    rows = list(records)
    cuts = sum(a.segment_index != b.segment_index
               or a.drive_sign != b.drive_sign or a.singular != b.singular
               or abs(a.theta5_deg - b.theta5_deg) > 180.0
               for a, b in zip(rows, rows[1:]))
    blocks = list(records.blocks())
    roll_rows = sum(1 for r in rows if r.command.theta_dot_4)
    roll_blocks = sum(1 for block in blocks if block[3][0].theta_dot_4)
    assert roll_rows >= 40
    # each step opens and closes with a scalar row, and each cut costs
    # a scalar row and a new block
    assert len(blocks) <= 3 * (len(plan) + cuts)
    assert roll_blocks <= roll_rows // 5


# -- the planner's memos and the shared twists against uncached references ------

@contextlib.contextmanager
def uncached_planner():
    """plan_mission with its tee-turn, drive-command and roll-command
    memos bypassed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_tee_turn", planner._tee_turn.__wrapped__)
        mp.setattr(planner, "_drive_command",
                   planner._drive_command.__wrapped__)
        mp.setattr(planner, "_roll_command",
                   planner._roll_command.__wrapped__)
        yield


def assert_matches_uncached(net, theta5, cfg, geom, with_holonomic, dts,
                            tmp_dir):
    """The memoised plan and its run against an uncached plan run by one
    step() call, and so one fresh twist, per substep: plan.json,
    outcome.json and trajectory.csv bytes agree, and so does an error."""
    try:
        plan = plan_mission(net, theta5, cfg, geom,
                            with_holonomic=with_holonomic)
    except (PlanError, NoEscapeError) as e:
        with uncached_planner(), pytest.raises(type(e)):
            plan_mission(net, theta5, cfg, geom,
                         with_holonomic=with_holonomic)
        return set()
    with uncached_planner():
        ref_plan = plan_mission(net, theta5, cfg, geom,
                                with_holonomic=with_holonomic)
    assert plan_to_json(plan) == plan_to_json(ref_plan)
    reasons = set()
    for dt in dts:
        outcome, records = run_mission(net, plan, cfg, geom,
                                       theta5_deg=theta5, dt=dt)
        ref_outcome, ref_records = stepwise_run(net, ref_plan, cfg, geom,
                                                theta5, dt)
        assert outcome_to_json(outcome) == outcome_to_json(ref_outcome)
        write_trajectory_csv(records, tmp_dir / "memo.csv")
        write_trajectory_csv(ref_records, tmp_dir / "ref.csv")
        assert ((tmp_dir / "memo.csv").read_bytes()
                == (tmp_dir / "ref.csv").read_bytes())
        reasons.add(outcome.reason)
    return reasons


@pytest.mark.parametrize("with_holonomic", [True, False])
def test_memoised_missions_match_uncached_ones_on_the_acceptance_tee(
        cfg, geom, tee_net, tmp_path, with_holonomic):
    # the grid runs first, so the special rolls meet a warm memo; the grid
    # takes one substep per step, the special rolls every dt
    region = region_for_tee(tee_net.segments[1], cfg, geom)
    special = [-0.0, 0.0, *preferred_orientations(region)]
    for lo, hi in success_set(tee_net, cfg, geom, False):
        special += [lo - 1e-9, lo + 1e-9, hi - 1e-9, hi + 1e-9]
    reasons = set()
    for theta5 in range(360):
        reasons |= assert_matches_uncached(tee_net, float(theta5), cfg, geom,
                                           with_holonomic, [None], tmp_path)
    for theta5 in special:
        reasons |= assert_matches_uncached(tee_net, theta5, cfg, geom,
                                           with_holonomic, DTS, tmp_path)
    assert reasons == ({"completed"} if with_holonomic
                       else {"completed", "singularity"})


@settings(max_examples=40, deadline=None)
@given(roll_free_networks(max_segments=5),
       st.floats(-360.0, 360.0) | st.sampled_from([-0.0, 0.0]),
       st.booleans(), st.sampled_from(DTS))
@example(net=PipeNetwork((tee(D), straight(D, 300.0))), theta5=-0.0,
         with_holonomic=False, dt=None)
@example(net=PipeNetwork((tee(D), straight(D, 300.0))), theta5=0.0,
         with_holonomic=False, dt=None)
@example(net=PipeNetwork((tee(D, 40.0), elbow(D, 320.0, 90.0, 100.0),
                          tee(D, 250.0), tee(D, 10.0, exit=TeeExit.THROUGH),
                          straight(D, 200.0))),
         theta5=12.5, with_holonomic=True, dt=0.037)
def test_memoised_missions_match_uncached_ones_on_generated_networks(
        tmp_path_factory, net, theta5, with_holonomic, dt):
    # a tee first keeps an initial -0.0 roll up to its turn, where the
    # axis's zero component takes the roll's sign
    cfg = PlannerConfig()
    assert_matches_uncached(net, theta5, cfg, REFERENCE_GEOMETRY,
                            with_holonomic, [dt],
                            tmp_path_factory.mktemp("csv"))
