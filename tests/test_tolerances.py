"""The tolerance table: one place for every tolerance, and each "covers"
fact it states, shown at its extreme input.

BAND_MARGIN's fact, that it covers MAX_SUBSTEPS roundings of alpha, is
tested in test_exact_missions beside the edge rolls it protects.
"""

import ast
import dataclasses
import random
from collections import deque
from fractions import Fraction
from itertools import accumulate, repeat
from pathlib import Path

import pytest

import omnipipe
from omnipipe import (REFERENCE_GEOMETRY, CommandVector, MissionStep,
                      PipeNetwork, PlannerConfig, SegmentKind, StepKind,
                      calibrate_reach_for_sector, elbow, in_singularity,
                      plan_mission, run_mission, straight, success_set, tee)
from omnipipe import sim
from omnipipe.drive import shift_reference
from omnipipe.intervals import signed_delta, wrap
from omnipipe.singularity import SingularityRegion
from omnipipe.tolerances import (ANGLE_SLACK_DEG, END_TOL_FLOOR_MM,
                                 GUARD_DEG, LINE_MARGIN, MAX_SUBSTEPS,
                                 end_tol_mm)

PACKAGE = Path(omnipipe.__file__).parent
D = 160.0


# -- one table -----------------------------------------------------------------

def small_float_literals(path: Path) -> list[str]:
    """'file:line value' for each float literal 0 < |x| < 1e-3 in a
    module; docstrings are str constants, so they hold none."""
    return [f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3]


def test_no_module_but_the_table_holds_a_tolerance_literal():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "tolerances.py" in modules
    assert [hit for path in modules if path.name != "tolerances.py"
            for hit in small_float_literals(path)] == []


def test_the_table_imports_nothing():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


# -- LINE_MARGIN covers in_singularity's slack ---------------------------------

def tee_check(h: float):
    region = SingularityRegion(h)
    return lambda theta5_deg: in_singularity(theta5_deg, region)


def first_cut(xs, h, margin, monkeypatch):
    """The index sim._held cuts xs at for the tee lines 60 k +- h, with
    LINE_MARGIN set to ``margin``."""
    monkeypatch.setattr(sim, "LINE_MARGIN", margin)
    return sim._held(xs, tee_check(h),
                     sim._stop(xs[0], xs[1] - xs[0], 60.0, 0.0, h))


def descent(h: float) -> list[float]:
    """Rolls from 3e-8 deg above the line at h down past it, 1e-10 deg at
    a time: in_singularity flips ANGLE_SLACK_DEG above the line, where
    the margin (1 + |x|) is smallest."""
    return list(accumulate(repeat(-1e-10, 600), initial=h + 3e-8))


@pytest.mark.parametrize("h", [5e-324, 1e-12, 1e-9, 1e-7])
def test_the_line_margin_covers_the_tee_slack_at_zero(h, monkeypatch):
    xs, f = descent(h), tee_check(h)
    flip = next(j for j in range(1, len(xs)) if f(xs[j]) != f(xs[0]))
    assert xs[flip] > h  # the flip lies in the slack above the line
    assert first_cut(xs, h, LINE_MARGIN, monkeypatch) <= flip
    # a margin below the slack would hold the check past its flip
    assert first_cut(xs, h, ANGLE_SLACK_DEG / 10.0, monkeypatch) > flip


# -- GUARD_DEG covers the slack and the reference-shift chain -------------------

def many_turn_network() -> PipeNetwork:
    """A thousand elbows at random turn planes, with three branch tees
    among them: the reference-shift chain rounds at every boundary."""
    rng = random.Random(3)
    segments = [straight(D, 100.0)]
    for i in range(1000):
        plane = rng.uniform(0.0, 360.0)
        segments.append(tee(D, plane) if i in (250, 500, 750)
                        else elbow(D, 400.0, 30.0, plane))
    segments.append(straight(D, 100.0))
    return PipeNetwork(tuple(segments))


def test_the_guard_band_covers_the_slack_and_the_shift_chain():
    net = many_turn_network()
    # an 8 deg sector leaves room for every tee's arcs in the success set
    geom = dataclasses.replace(
        REFERENCE_GEOMETRY, reach_max=calibrate_reach_for_sector(D, 8.0))
    cfg = PlannerConfig()
    pieces = success_set(net, cfg, geom, with_holonomic=False)
    ends = [end for piece in pieces for end in piece if 0.0 < end < 120.0]
    assert len(ends) == 12
    tees = [i for i, seg in enumerate(net.segments)
            if seg.kind is SegmentKind.TEE]
    worst = 0.0
    for theta in ends:
        # the roll each tee's onset meets, against the set's theta + C_i
        chain, shift = wrap(theta, 360.0), 0.0
        for i in range(1, tees[-1] + 1):
            chain = shift_reference(chain, net, i - 1, i)
            shift = shift_reference(shift, net, i - 1, i)
            if i in tees:
                worst = max(worst, abs(signed_delta(theta + shift, chain,
                                                    360.0)))
    assert 0.0 < worst
    assert worst + ANGLE_SLACK_DEG < GUARD_DEG
    # so draws just outside the band are decided as the scalar path does
    for theta in ends:
        for draw in (theta - GUARD_DEG, theta + GUARD_DEG):
            inside = any(lo <= draw < hi for lo, hi in pieces)
            assert sim._completes(net, draw, cfg, geom, False) is inside


# -- the end tolerance covers 10^6 additions to s -------------------------------

@pytest.mark.parametrize("length_mm", [1.0, 1024.0 + 2 ** -40, 99990.1,
                                       2.0 ** 17 + 0.3])
def test_the_end_tolerance_covers_a_million_additions(length_mm):
    ds = length_mm / MAX_SUBSTEPS
    total = deque(accumulate(repeat(ds, MAX_SUBSTEPS)), maxlen=1)[0]
    drift = abs(Fraction(total) - MAX_SUBSTEPS * Fraction(ds))
    # each addition rounds by at most 2^-53 |s|, and that bound is at
    # most half the tolerance
    bound = MAX_SUBSTEPS * Fraction(2) ** -53 * Fraction(length_mm)
    assert 0 < drift <= bound
    assert float(bound) <= end_tol_mm(length_mm) / 2.0


@pytest.mark.parametrize("segments", [
    (straight(D, 99990.1),),
    # the shortfall of the long straight carries into the last segment
    (straight(D, 99000.1), straight(D, 1.0)),
])
def test_a_million_substeps_end_within_the_end_tolerance(segments):
    net, cfg = PipeNetwork(segments), PlannerConfig()
    plan = plan_mission(net, 0.0, cfg, REFERENCE_GEOMETRY)
    outcome, records = run_mission(net, plan, cfg, REFERENCE_GEOMETRY,
                                   dt=0.00099999)
    assert len(records) > 990_000
    # more than END_TOL_FLOOR_MM short, within end_tol_mm
    short = net.arc_lengths[-1] - records[-1].s_mm
    assert END_TOL_FLOOR_MM < short < end_tol_mm(max(net.arc_lengths))
    assert outcome.reason == "completed"


@pytest.mark.parametrize("factor, reason", [(0.5, "completed"),
                                            (2.0, "incomplete")])
def test_a_mission_short_by_more_than_the_end_tolerance_is_incomplete(
        factor, reason):
    length = 99990.1
    net, cfg = PipeNetwork((straight(D, length),)), PlannerConfig()
    # one exact substep at 100 mm/s, planned to stop short
    rate = 100.0 / REFERENCE_GEOMETRY.lug_radius_r
    target = length - factor * end_tol_mm(length)
    plan = [MissionStep(StepKind.DRIVE, CommandVector(rate, rate, rate, 0.0),
                        target / 100.0)]
    outcome, records = run_mission(net, plan, cfg, REFERENCE_GEOMETRY,
                                   dt=None)
    assert records[-1].s_mm == pytest.approx(target, rel=1e-15)
    assert outcome.reason == reason
