import math

from hypothesis import given, settings
from hypothesis import strategies as st

from omnipipe import intervals as iv

ANGLES = st.floats(min_value=-720.0, max_value=720.0,
                   allow_nan=False, allow_infinity=False)


def measure(pieces) -> float:
    return sum(hi - lo for lo, hi in pieces)


def test_normalize_merges_overlaps():
    assert iv.normalize([(10.0, 40.0), (30.0, 50.0)], 360.0) == [(10.0, 50.0)]


def test_normalize_splits_and_rejoins_wrap():
    out = iv.normalize([(350.0, 370.0)], 360.0)
    assert out == [(0.0, 10.0), (350.0, 360.0)]
    assert measure(out) == 20.0


def test_normalize_full_circle_when_width_reaches_period():
    assert iv.normalize([(0.0, 360.0)], 360.0) == [(0.0, 360.0)]
    assert iv.normalize([(90.0, 500.0)], 360.0) == [(0.0, 360.0)]


def test_fold_into_smaller_period():
    out = iv.normalize([(350.0, 370.0)], 120.0)
    assert out == [(0.0, 10.0), (110.0, 120.0)]


def test_complement_of_empty_is_full():
    assert iv.complement([], 360.0) == [(0.0, 360.0)]


def test_complement_keeps_the_wrap_gap_in_two_pieces():
    arcs = iv.normalize([(30.0, 60.0)], 360.0)
    gaps = iv.complement(arcs, 360.0)
    # the gap through 0 comes canonical, as normalize gives it
    assert gaps == [(0.0, 30.0), (60.0, 360.0)]
    assert iv.normalize(gaps, 360.0) == gaps


def test_signed_delta_basics():
    assert iv.signed_delta(10.0, 40.0, 360.0) == 30.0
    assert iv.signed_delta(350.0, 10.0, 360.0) == 20.0
    assert iv.signed_delta(10.0, 350.0, 360.0) == -20.0


def test_signed_delta_tie_from_positive_offset_is_negative():
    assert iv.signed_delta(60.0, 0.0, 120.0) == -60.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ANGLES, st.floats(min_value=0.0, max_value=200.0)),
                max_size=6))
def test_measure_plus_complement_is_period(pieces):
    arcs = iv.normalize([(lo, lo + width) for lo, width in pieces], 360.0)
    gaps = iv.complement(arcs, 360.0)
    assert math.isclose(measure(arcs) + measure(gaps), 360.0,
                        abs_tol=1e-6)


@settings(max_examples=200, deadline=None)
@given(ANGLES, ANGLES)
def test_signed_delta_lands_on_target(a, b):
    d = iv.signed_delta(a, b, 360.0)
    assert abs(d) <= 180.0 + 1e-9
    residue = abs(math.fmod((a + d) - b, 360.0))
    assert min(residue, 360.0 - residue) < 1e-6


def test_wrap_never_returns_the_period():
    assert iv.wrap(-1e-15, 360.0) == 0.0
    assert iv.wrap(-1e-15, 120.0) == 0.0
    assert iv.wrap(-5.0, 360.0) == 355.0


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.floats(min_value=-1e-12, max_value=0.0)),
       st.one_of(st.sampled_from([120.0, 360.0]),
                 st.floats(min_value=1e-3, max_value=1e6)))
def test_wrap_lands_in_half_open_period(angle, period):
    assert 0.0 <= iv.wrap(angle, period) < period
