"""The exact single-substep mission (``run_mission(dt=None)``) and the
memos it reads: per-network values and one twist per command across
missions, and the result objects it returns.

The SHA-256 pins were computed before those memos existed, over
``float.hex`` of every record field and the outcome of each mission, so
a memo that hands out a stale region, twist or sign shows up trial by
trial.
"""

import dataclasses
import hashlib
import math
import pickle
import random

import pytest

from omnipipe import (REFERENCE_GEOMETRY, CommandVector, MissionOutcome,
                      MissionStep, MonteCarloResult, PipeNetwork,
                      PlannerConfig, RobotGeometry, SimState, StepKind,
                      TeeExit, elbow, forward_kinematics, monte_carlo_tee,
                      plan_mission, run_mission, step, straight, tee,
                      write_trajectory_csv)
from omnipipe.drive import signed_drive
from omnipipe import planner, sim
from omnipipe.errors import OmnipipeError
from omnipipe.tolerances import BAND_MARGIN, MAX_SUBSTEPS

from conftest import empty_every_memo

D = 160.0


def acceptance_tee() -> PipeNetwork:
    return PipeNetwork((straight(D, 500.0), tee(D), straight(D, 300.0)))


def generated_networks() -> list[PipeNetwork]:
    """Eight fixed networks of two elbows, two branch tees and a through
    tee in shuffled order, some turn planes at 0.0 or -0.0."""
    nets = []
    for seed in range(8):
        rng = random.Random(seed)
        kinds = ["elbow", "elbow", "branch", "branch", "through"]
        rng.shuffle(kinds)
        segments = [straight(D, round(rng.uniform(50.0, 400.0), 1))]
        for kind in kinds:
            plane = rng.choice([0.0, -0.0, round(rng.uniform(0.0, 360.0), 2)])
            if kind == "elbow":
                segments.append(elbow(D, round(rng.uniform(1.5, 3.0) * D, 1),
                                      rng.choice([30.0, 45.0, 90.0]), plane))
            else:
                segments.append(tee(D, plane, TeeExit(kind)))
            segments.append(straight(D, round(rng.uniform(5.0, 300.0), 1)))
        nets.append(PipeNetwork(tuple(segments)))
    return nets


def mission_cases():
    """(network, initial roll, with_holonomic) of every pinned mission."""
    net = acceptance_tee()
    for with_holonomic in (True, False):
        for theta5 in range(120):
            yield net, float(theta5), with_holonomic
    for net in generated_networks():
        for theta5 in (-0.0, 0.0, 7.25, 61.5, 119.9):
            for with_holonomic in (True, False):
                yield net, theta5, with_holonomic


def image(*values) -> bytes:
    """Exact bytes of a row: floats as float.hex, so 0.0 and -0.0 differ."""
    return repr([v.hex() if isinstance(v, float) else v
                 for v in values]).encode()


def mission_digest(cfg: PlannerConfig) -> str:
    """SHA-256 over every record field and outcome of the pinned missions,
    each planned and run in one exact substep per step."""
    h = hashlib.sha256()
    for net, theta5, with_holonomic in mission_cases():
        try:
            plan = plan_mission(net, theta5, cfg, REFERENCE_GEOMETRY,
                                with_holonomic=with_holonomic)
            outcome, records = run_mission(net, plan, cfg,
                                           REFERENCE_GEOMETRY,
                                           theta5_deg=theta5, dt=None)
        except OmnipipeError as e:
            h.update(image(type(e).__name__, str(e)))
            continue
        for r in records:
            c, w = r.command, r.twist
            h.update(image(r.time_s, r.segment_index, r.s_mm, r.theta5_deg,
                           c.theta_dot_1, c.theta_dot_2, c.theta_dot_3,
                           c.theta_dot_4, w.omega_x, w.omega_y, w.omega_z,
                           w.v_cz, *(r.drive_sign,) * 3, r.singular,
                           r.event))
        h.update(image(outcome.success, outcome.reason, outcome.time_s,
                       *outcome.events))
    return h.hexdigest()


# computed before the per-network, region and twist memos were added, and
# again when alignment rolls began to check the deadband on the alpha they
# reach: 14 missions that align onto a band edge then changed, those of
# EDGE_ROLLS below at roll 7.25 (deadband 1) and at rolls 5, 10, 50, 55,
# 65, 70, 110 and 115 (deadband 10)
PINNED = {
    1.0: "d75d9fe63e485e778300a0a8f5dfde43680156e867ce23936f8a3309ad5b3306",
    10.0: "0077a4941aca6528e838728dcb3cfd073d610c9350d6fd8f7bd1f1da82e1d16e",
}


def test_exact_missions_keep_their_pinned_bits():
    # cold memos, then warm ones, which both deadbands share
    for deadband_deg in (1.0, 10.0, 1.0, 10.0):
        cfg = PlannerConfig(wobble_deadband_deg=deadband_deg)
        assert mission_digest(cfg) == PINNED[deadband_deg], deadband_deg


# -- alignment rolls onto a deadband edge --------------------------------------

def edge_rolls():
    """(network, initial roll, deadband deg) of missions whose alignment
    roll lands on an edge of the deadband in exact arithmetic: the escape
    to a free-gap centre or the elbow alignment turns the modules by
    90 deg -+ deadband (roll -+ deadband / 4 with gain 4)."""
    net = acceptance_tee()
    bend = PipeNetwork((straight(D, 300.0), elbow(D, 240.0, 90.0),
                        straight(D, 300.0)))
    cases = [(net, theta5, 1.0) for theta5 in (7.75, 52.25, 67.75, 112.25)]
    cases += [(bend, theta5, 1.0) for theta5 in (22.25, -22.25)]
    cases += [(net, theta5, 10.0)
              for theta5 in (5.0, 10.0, 50.0, 55.0, 65.0, 70.0, 110.0, 115.0)]
    nets = generated_networks()
    cases += [(nets[k], 7.25, 1.0) for k in (0, 1, 2, 3, 4, 6)]
    return cases


EDGE_ROLLS = edge_rolls()


@pytest.mark.parametrize("net, theta5, deadband_deg", EDGE_ROLLS)
def test_alignment_onto_a_deadband_edge_keeps_driving(net, theta5,
                                                      deadband_deg):
    # each of these stalled with no_forward_progress for some rate and dt
    # while the band was checked on the planned roll, with no margin
    for rate in (0.25, 0.37, 0.5, 1.0):
        cfg = PlannerConfig(wobble_deadband_deg=deadband_deg,
                            rotate_rate_rad_s=rate)
        plan = plan_mission(net, theta5, cfg, REFERENCE_GEOMETRY)
        for dt in (None, 0.01, 0.02, 0.037):
            outcome, _ = run_mission(net, plan, cfg, REFERENCE_GEOMETRY,
                                     theta5_deg=theta5, dt=dt)
            assert outcome.reason == "completed", (rate, dt, outcome)


def test_the_band_margin_covers_every_substep():
    # each substep rounds alpha by at most half an ulp of its magnitude
    assert 4.0 * MAX_SUBSTEPS * 2.0 ** -53 < BAND_MARGIN


# -- the twist memo -----------------------------------------------------------

def run_one_drive(net, cfg, cmd, tmp_path, name):
    """One planned-by-hand drive of ``cmd``: its records and CSV bytes."""
    plan = [MissionStep(kind=StepKind.DRIVE, command=cmd, duration_s=1.0)]
    _, records = run_mission(net, plan, cfg, REFERENCE_GEOMETRY,
                             theta5_deg=30.0, dt=None)
    path = tmp_path / name
    write_trajectory_csv(records, path)
    return records, path.read_bytes()


@pytest.mark.parametrize("clear", [False, True])
def test_a_new_command_gets_its_own_twist_when_an_equal_one_was_freed(
        tmp_path, clear):
    # equal commands that differ in the sign of a zero spin share one twist
    # entry; each record keeps its own command, whose zero the CSV shows
    net, cfg = acceptance_tee(), PlannerConfig()
    rate = 100.0 / 15.0
    old = CommandVector(rate, rate, rate, -0.0)
    records, old_csv = run_one_drive(net, cfg, old, tmp_path, "old.csv")
    assert records[0].command is old
    del old, records
    if clear:
        empty_every_memo()
    hits = sim._twist.cache_info().hits
    new = CommandVector(rate, rate, rate, 0.0)
    assert new == CommandVector(rate, rate, rate, -0.0)
    records, new_csv = run_one_drive(net, cfg, new, tmp_path, "new.csv")
    assert records[0].command is new
    assert records[0].twist.omega_z.hex() == (0.0).hex()
    # the spin column reads 0.0 where the old run read -0.0
    assert old_csv.replace(b",-0.0,", b",0.0,", 1) == new_csv
    assert old_csv != new_csv
    # a warm memo hands the new command the old one's twist
    assert (sim._twist.cache_info().hits > hits) is not clear


def test_the_memos_keep_geometries_and_configs_apart():
    # one command object and one network under two geometries, and under
    # two configs whose tee regions differ, each against fresh step()s
    net = acceptance_tee()
    cmd = CommandVector(6.0, 6.0, 6.0, 0.0)
    plan = [MissionStep(kind=StepKind.DRIVE, command=cmd, duration_s=7.0)]
    other = dataclasses.replace(REFERENCE_GEOMETRY, lug_radius_r=12.0)
    narrow = PlannerConfig(sweep_phi_max_deg=20.0)
    for geom, cfg in [(REFERENCE_GEOMETRY, PlannerConfig()), (other, narrow),
                      (REFERENCE_GEOMETRY, narrow), (other, PlannerConfig())]:
        _, records = run_mission(net, plan, cfg, geom, theta5_deg=20.0,
                                 dt=None)
        _, record = step(SimState(theta5_deg=20.0), cmd, 7.0, net, geom, cfg)
        assert records[0].twist == record.twist
        assert (records[0].s_mm, records[0].singular) == (record.s_mm,
                                                          record.singular)
    tee_segment = net.segments[1]
    assert (planner.region_for_tee(tee_segment, narrow, REFERENCE_GEOMETRY)
            != planner.region_for_tee(tee_segment, PlannerConfig(),
                                      REFERENCE_GEOMETRY))


def fk_bits(twist) -> list[str]:
    return [float(x).hex() for x in dataclasses.astuple(twist)]


# (r, r, r, +-0.0) drives and a roll with zero chain rates of either sign
EQUAL_COMMANDS = [
    (CommandVector(100.0 / 15.0, 100.0 / 15.0, 100.0 / 15.0, -0.0),
     CommandVector(100.0 / 15.0, 100.0 / 15.0, 100.0 / 15.0, 0.0)),
    (CommandVector(-0.0, 0.0, -0.0, 0.5), CommandVector(0.0, -0.0, 0.0, 0.5)),
]


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_twist_memo_is_exact(sign):
    # a memo hit hands out the bits a fresh forward map gives, whichever
    # of two equal commands came first
    for pair in EQUAL_COMMANDS:
        for first, second in (pair, pair[::-1]):
            empty_every_memo()
            for cmd in (first, second):
                assert fk_bits(sim._twist(cmd, sign, REFERENCE_GEOMETRY)) \
                    == fk_bits(forward_kinematics(signed_drive(cmd, sign),
                                                  REFERENCE_GEOMETRY))
            assert sim._twist.cache_info().hits == 1


def test_twist_memo_is_exact_for_int_and_float_geometries():
    # equal geometries, one built from ints: 1 + 2^53 is exact in ints and
    # rounds in floats, so a memo keyed on a geometry that kept its ints
    # returned whichever lever came first
    g_int = RobotGeometry(1, 2 ** 53, 1, 1, 2 ** 54, 1)
    g_float = RobotGeometry(1.0, 2.0 ** 53, 1.0, 1.0, 2.0 ** 54, 1.0)
    assert all(type(getattr(g_int, f.name)) is float
               for f in dataclasses.fields(g_int))
    cmd = CommandVector(1.0, 2.0, 3.0, 0.0)
    want = fk_bits(forward_kinematics(cmd, g_float))
    assert want == fk_bits(forward_kinematics(cmd, g_int))
    assert forward_kinematics(cmd, g_int).omega_x == 9.614813431917822e-17
    for order in ((g_int, g_float), (g_float, g_int)):
        empty_every_memo()
        for geom in order:
            assert fk_bits(sim._twist(cmd, 1, geom)) == want


def test_network_values_are_computed_once():
    net = PipeNetwork(tuple(generated_networks()[0].segments))
    assert net.arc_lengths == tuple(seg.arc_length() for seg in net.segments)
    assert net.total_length() == sum(net.arc_lengths)
    assert dataclasses.replace(net).arc_lengths == net.arc_lengths
    assert pickle.loads(pickle.dumps(net)).arc_lengths == net.arc_lengths
    cfg = PlannerConfig(wobble_deadband_deg=2.5)
    assert cfg.deadband_rad == math.radians(2.5)
    assert cfg == PlannerConfig(wobble_deadband_deg=2.5)
    assert hash(cfg) == hash(PlannerConfig(wobble_deadband_deg=2.5))
    assert "deadband_rad" not in {f.name for f in dataclasses.fields(cfg)}


# -- cold and warm memos ------------------------------------------------------

def criterion_7_run(seed: int):
    """Criterion 7 for one seed: the 10^5-trial counts without the escape,
    and the 120-roll escape grid, as exact images."""
    net, cfg = acceptance_tee(), PlannerConfig()
    counts = monte_carlo_tee(net, cfg, REFERENCE_GEOMETRY, 100_000, seed=seed,
                             with_holonomic=False).to_dict()
    grid = []
    for theta5 in range(120):
        plan = plan_mission(net, float(theta5), cfg, REFERENCE_GEOMETRY)
        outcome, records = run_mission(net, plan, cfg, REFERENCE_GEOMETRY,
                                       theta5_deg=float(theta5), dt=None)
        grid.append((outcome.reason, outcome.time_s.hex(),
                     [(r.s_mm.hex(), r.theta5_deg.hex(), r.twist.v_cz.hex())
                      for r in records]))
    return counts, grid


@pytest.mark.parametrize("seed, successes", [(0, 19454), (7, 19549),
                                             (42, 19651)])
def test_cold_and_warm_memos_give_the_same_bits(seed, successes):
    cold = criterion_7_run(seed)
    assert cold[0]["successes"] == successes
    assert all(reason == "completed" for reason, _, _ in cold[1])
    assert criterion_7_run(seed) == cold
    empty_every_memo()
    assert criterion_7_run(seed) == cold


# -- result objects -----------------------------------------------------------

@pytest.mark.parametrize("result", [
    MonteCarloResult(success_rate=0.25, ci_low=0.2, ci_high=0.3, trials=100,
                     successes=25, seed=7, with_holonomic=False),
    MissionOutcome(False, "singularity", 5.25,
                   ("singularity_at_turn_onset",)),
    MissionOutcome(True, "completed", 10.0),
])
def test_result_objects_are_frozen_slotted_dataclasses(result):
    assert not hasattr(result, "__dict__")
    field = dataclasses.fields(result)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(result, field, 0.5)
    copy = pickle.loads(pickle.dumps(result))
    assert copy == result and copy.to_dict() == result.to_dict()
    assert hash(copy) == hash(result)
    changed = dataclasses.replace(result, **{field: 0.5})
    assert changed != result and getattr(changed, field) == 0.5
    assert dataclasses.replace(result) == result


def test_result_objects_keep_their_dicts():
    mc = MonteCarloResult(success_rate=0.25, ci_low=0.2, ci_high=0.3,
                          trials=100, successes=25, seed=7,
                          with_holonomic=False)
    assert mc.to_dict() == {"success_rate": 0.25, "ci_low": 0.2,
                            "ci_high": 0.3, "trials": 100, "successes": 25,
                            "seed": 7, "with_holonomic": False}
    outcome = MissionOutcome(False, "singularity", 5.25, ("a", "b"))
    assert outcome.to_dict() == {"success": False, "reason": "singularity",
                                 "time_s": 5.25, "events": ["a", "b"]}
