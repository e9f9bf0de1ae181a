"""The number check: errors.real_number decides whether a numeric input
is usable, and errors.integer whether an integer input is, for every
module, each of which raises its own error type.
"""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import omnipipe
from omnipipe import (REFERENCE_GEOMETRY, CommandVector,
                      InvalidGeometryError, InvalidSectionError,
                      MissionStep, NetworkValidationError, PlanError,
                      PlannerConfig, RobotGeometry, SimState,
                      SimulationError, StepKind, calibrate_reach_for_sector,
                      cross_section_at, elbow, holonomic_rotate_step,
                      plan_elbow, plan_straight, run_mission, step,
                      straight, sweep_t_junction)

PACKAGE = Path(omnipipe.__file__).parent
D = 160.0
GEOM = REFERENCE_GEOMETRY
DRIVE = CommandVector(1.0, 1.0, 1.0, 0.0)


# -- one check -------------------------------------------------------------------

def number_checks(path: Path) -> list[str]:
    """'file:line what' for each piece of a number check in a module:
    an isinstance test against bool, the numbers module, and
    sys.float_info.max."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        what = None
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "bool" in {n.id for n in ast.walk(node.args[1])
                               if isinstance(n, ast.Name)}):
            what = "isinstance(..., bool)"
        elif (isinstance(node, ast.ImportFrom) and node.module == "numbers"
              or isinstance(node, ast.Import)
              and any(alias.name == "numbers" for alias in node.names)):
            what = "numbers"
        elif (isinstance(node, ast.Attribute) and node.attr == "max"
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "float_info"):
            what = "sys.float_info.max"
        if what is not None:
            hits.append(f"{path.name}:{node.lineno} {what}")
    return hits


def test_no_module_but_errors_checks_numbers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert number_checks(PACKAGE / "errors.py")
    assert [hit for path in modules if path.name != "errors.py"
            for hit in number_checks(path)] == []


# -- public entry points end in their module's typed error ------------------------

def _network():
    return omnipipe.PipeNetwork((straight(D, 500.0),))


CASES = {
    "step s_mm str": (SimulationError, "s_mm must be a number, got 'x'",
                      lambda: step(SimState(s_mm="x"), DRIVE, 0.01,
                                   _network(), GEOM)),
    "step alpha_rad huge int": (
        SimulationError, "alpha_rad must lie within the float range",
        lambda: step(SimState(alpha_rad=10 ** 400), DRIVE, 0.01,
                     _network(), GEOM)),
    "step segment_index float": (
        SimulationError, "segment_index must be an integer, got 1.5",
        lambda: step(SimState(segment_index=1.5), DRIVE, 0.01, _network(),
                     GEOM)),
    "step segment_index bool": (
        SimulationError, "segment_index must be an integer, got True",
        lambda: step(SimState(segment_index=True), DRIVE, 0.01, _network(),
                     GEOM)),
    "plan_straight length bool": (
        PlanError, "length_mm must be a number, got True",
        lambda: plan_straight(True, PlannerConfig(), GEOM)),
    "plan_straight length str": (
        PlanError, "length_mm must be a number, got 'x'",
        lambda: plan_straight("x", PlannerConfig(), GEOM)),
    "plan_elbow theta5 str": (
        PlanError, "theta5_deg must be a number, got 'x'",
        lambda: plan_elbow(elbow(D, 240.0, 90.0), "x", PlannerConfig(),
                           GEOM)),
    "sweep_t_junction D str": (
        InvalidSectionError, "diameter must be a number, got 'x'",
        lambda: sweep_t_junction("x", GEOM.reach_max, math.pi / 4.0)),
    "calibrate target str": (
        ValueError, "target_sector_deg must be a number, got 'x'",
        lambda: calibrate_reach_for_sector(D, "x")),
    "holonomic_rotate_step delta str": (
        PlanError, "delta_deg must be a number, got 'x'",
        lambda: holonomic_rotate_step("x", 0.5, GEOM, D)),
    "holonomic_rotate_step rate bool": (
        PlanError, "rate_rad_s must be a number, got True",
        lambda: holonomic_rotate_step(10.0, True, GEOM, D)),
    "cross_section_at D bool": (
        InvalidSectionError, "diameter must be a number, got True",
        lambda: cross_section_at(True, 0.5)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_bad_number_at_an_entry_point_raises_its_typed_error(case):
    error, message, call = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# -- one wording for one fault ---------------------------------------------------

# (build with the bad value, error type, the input's name, must be > 0)
ENTRY_POINTS = {
    "RobotGeometry": (lambda v: RobotGeometry(v, 60.0, 30.0, 40.0, 100.0,
                                              20.0),
                      InvalidGeometryError, "lug_radius_r", True),
    "PipeSegment": (lambda v: straight(D, v), NetworkValidationError,
                    "length_mm", True),
    "CommandVector": (lambda v: CommandVector(v, 1.0, 1.0, 0.0), ValueError,
                      "theta_dot_1", False),
    "PlannerConfig": (lambda v: PlannerConfig(straight_speed=v), PlanError,
                      "straight_speed", True),
    "MissionStep": (lambda v: MissionStep(StepKind.DRIVE, DRIVE, v),
                    PlanError, "duration_s", True),
    "run_mission": (lambda v: run_mission(_network(), [], PlannerConfig(),
                                          GEOM, dt=v),
                    SimulationError, "dt", True),
    "cross_section_at": (lambda v: cross_section_at(v, 0.5),
                         InvalidSectionError, "diameter", True),
}
FAULTS = {
    "bool": (True, "{} must be a number, got True"),
    "str": ("1", "{} must be a number, got '1'"),
    "nan": (math.nan, "{} must be finite, got nan"),
    "inf": (-math.inf, "{} must be finite, got -inf"),
    "huge int": (10 ** 400, "{} must lie within the float range"),
    "huge fraction": (Fraction(10 ** 400), "{} must lie within the float "
                                           "range"),
    "negative": (-1, "{} must be > 0, got -1.0"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_module_words_a_fault_alike(entry, fault):
    build, error, name, positive = ENTRY_POINTS[entry]
    value, message = FAULTS[fault]
    if fault == "negative" and not positive:
        assert build(value) is not None
        return
    with pytest.raises(error, match=f"^{re.escape(message.format(name))}$"):
        build(value)


def test_a_segment_error_still_names_its_field():
    with pytest.raises(NetworkValidationError) as err:
        straight(D, "x")
    assert err.value.field == "length_mm"
    with pytest.raises(NetworkValidationError) as err:
        straight(math.nan, 500.0)
    assert err.value.field == "D_mm"


# -- every real number is taken, and stored as a float ------------------------------

@pytest.mark.parametrize("kind", [np.float32, np.int64, Fraction, int])
def test_geometry_and_segments_take_any_real_number_as_a_float(kind):
    geom = RobotGeometry(kind(15), kind(60), kind(30), kind(40), kind(100),
                         kind(20))
    assert geom == RobotGeometry(15.0, 60.0, 30.0, 40.0, 100.0, 20.0)
    assert all(type(getattr(geom, name)) is float
               for name in ("lug_radius_r", "arm_length_l", "a_offset",
                            "reach_min", "reach_max", "module_outer_radius"))
    bend = elbow(kind(160), kind(240), kind(90), kind(30))
    assert bend == elbow(160.0, 240.0, 90.0, 30.0)
    assert all(type(getattr(bend, name)) is float
               for name in ("d_mm", "bend_radius_mm", "bend_angle_deg",
                            "turn_plane_roll_deg"))
    assert type(straight(kind(160), kind(500)).length_mm) is float


def test_a_mission_step_stores_an_int_index_and_a_float_duration():
    mstep = MissionStep(StepKind.DRIVE, DRIVE, np.float32(0.5),
                        segment_index=np.int64(2))
    assert type(mstep.duration_s) is float
    assert type(mstep.segment_index) is int
    assert mstep.to_dict()["segment_index"] == 2
