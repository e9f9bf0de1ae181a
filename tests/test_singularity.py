import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnipipe import (CALIBRATED_REACH_MM, DEFAULT_PHI_MAX_RAD,
                      EllipseSection, InsufficientReachError,
                      InvalidGeometryError, InvalidSectionError,
                      NoEscapeError, SingularityRegion,
                      calibrate_reach_for_sector, contact_loss_arcs,
                      cross_section_at, ellipse_radial_distance,
                      escape_rotation, failure_probability, in_singularity,
                      preferred_orientations, sweep_t_junction)
from omnipipe import intervals as iv

# -- reference: the interval fold the closed form replaced ---------------------

_EPS = 1e-9


def fold(arcs):
    """Wall arcs folded modulo 120 deg into a canonical set of rolls: a
    roll is forbidden iff a module direction (theta5 + k 120 deg) points
    into an arc."""
    return iv.normalize(iv.normalize(arcs, 360.0), 120.0)


def measure(pieces) -> float:
    return sum(hi - lo for lo, hi in pieces)


def fold_contains(folded, theta: float) -> bool:
    """Closed membership of theta (mod 120) with 1e-9 deg of slack."""
    a = iv.wrap(theta, 120.0)
    return any(lo - _EPS <= a <= hi + _EPS
               or (hi >= 120.0 - _EPS and a <= hi - 120.0 + _EPS)
               for lo, hi in folded)


def fold_gap_centres(folded):
    """Centres of the free gaps; NoEscapeError when there is none."""
    gaps = iv.complement(folded, 120.0)
    if not gaps:
        raise NoEscapeError("no gap")
    return [iv.wrap((lo + hi) / 2.0, 120.0) for lo, hi in gaps]


def arc_contains(arcs, x: float) -> bool:
    return any((x - lo) % 360.0 <= hi - lo for lo, hi in arcs)


def sampled_sweep(D: float, reach: float, phi_max: float, steps: int):
    """Reference: fold of the contact-loss arcs over evenly spaced tilts."""
    arcs = []
    for i in range(steps):
        section = cross_section_at(D, phi_max * i / (steps - 1))
        arcs.extend(contact_loss_arcs(section, reach))
    return arcs, fold(arcs)


def worked_ellipse() -> EllipseSection:
    return EllipseSection(100.0, 80.0, math.acos(0.8))


def worked_region(reach: float) -> SingularityRegion:
    """The region of worked_ellipse(): D = 160 cut at acos(0.8)."""
    return sweep_t_junction(160.0, reach, math.acos(0.8))


def sample_region() -> SingularityRegion:
    """The reference robot's region at D = 160."""
    return sweep_t_junction(160.0, CALIBRATED_REACH_MM, DEFAULT_PHI_MAX_RAD)


# -- ellipse geometry ---------------------------------------------------------

def test_radial_distance_on_axes():
    e = worked_ellipse()
    assert ellipse_radial_distance(e, 0.0) == pytest.approx(100.0)
    assert ellipse_radial_distance(e, math.pi / 2.0) == pytest.approx(80.0)
    assert ellipse_radial_distance(e, math.pi) == pytest.approx(100.0)


def test_radial_distance_worked_value():
    assert ellipse_radial_distance(worked_ellipse(), math.radians(45.0)) \
        == pytest.approx(88.34522085987723, rel=1e-12)


def test_cross_section_perpendicular_is_circle():
    e = cross_section_at(160.0, 0.0)
    assert e.semi_major_a == e.semi_minor_b == 80.0


def test_cross_section_tilt_stretches_major_axis():
    e = cross_section_at(160.0, math.radians(45.0))
    assert e.semi_minor_b == 80.0
    assert e.semi_major_a == pytest.approx(80.0 * math.sqrt(2.0), rel=1e-12)


def test_cross_section_rejects_parallel_cut():
    with pytest.raises(InvalidSectionError):
        cross_section_at(160.0, math.pi / 2.0)
    with pytest.raises(InvalidSectionError):
        cross_section_at(160.0, -0.1)
    with pytest.raises(InvalidSectionError):
        cross_section_at(0.0, 0.3)


@pytest.mark.parametrize("D", [math.inf, -math.inf, math.nan])
def test_non_finite_bore_is_an_invalid_section(D):
    # an infinite bore would give an infinite ellipse, and NaN passes
    # every comparison
    for call in (lambda: cross_section_at(D, math.pi / 4.0),
                 lambda: calibrate_reach_for_sector(D, 90.0),
                 lambda: sweep_t_junction(D, CALIBRATED_REACH_MM,
                                          DEFAULT_PHI_MAX_RAD)):
        with pytest.raises(InvalidSectionError, match="diameter"):
            call()


def test_section_invariants_enforced():
    with pytest.raises(InvalidSectionError):
        EllipseSection(70.0, 80.0, 0.5)  # major below minor
    with pytest.raises(InvalidSectionError):
        EllipseSection(100.0, 80.0, 0.1)  # inconsistent tilt


# -- contact-loss arcs --------------------------------------------------------

def test_arcs_worked_half_width():
    arcs = contact_loss_arcs(worked_ellipse(), 90.0)
    assert len(arcs) == 2
    half_widths = [(hi - lo) / 2.0 for lo, hi in arcs]
    for hw in half_widths:
        assert hw == pytest.approx(40.22289219491939, rel=1e-9)
    centers = sorted(((lo + hi) / 2.0) % 360.0 for lo, hi in arcs)
    assert centers == pytest.approx([0.0, 180.0])
    assert worked_region(90.0).half_width_deg == pytest.approx(
        40.22289219491939, rel=1e-9)


def test_arcs_empty_when_reach_covers_ellipse():
    assert contact_loss_arcs(worked_ellipse(), 100.0) == []
    assert contact_loss_arcs(worked_ellipse(), 120.0) == []


def test_arcs_error_below_minor_axis():
    with pytest.raises(InsufficientReachError):
        contact_loss_arcs(worked_ellipse(), 79.9)


def test_arcs_symmetric_under_reflection_and_half_turn():
    arcs = contact_loss_arcs(worked_ellipse(), 90.0)
    derived = worked_region(90.0).forbidden_arcs
    for x in np.arange(0.5, 360.0, 1.0):  # offset grid avoids boundaries
        here = arc_contains(arcs, float(x))
        assert arc_contains(arcs, float(-x)) == here
        assert arc_contains(arcs, float(x + 180.0)) == here
        assert arc_contains(derived, float(x)) == here


def test_arcs_match_dense_sampling():
    e = worked_ellipse()
    reach = 90.0
    psi = np.linspace(0.0, 2.0 * math.pi, 1_000_000, endpoint=False)
    a, b = e.semi_major_a, e.semi_minor_b
    rho = a * b / np.sqrt((b * np.cos(psi)) ** 2 + (a * np.sin(psi)) ** 2)
    lost = rho > reach
    grid_deg = 360.0 / len(psi)
    for arcs in (contact_loss_arcs(e, reach),
                 worked_region(reach).forbidden_arcs):
        # 0 deg only splits the canonical set's arc through it
        for endpoint in {p % 360.0 for arc in arcs for p in arc} - {0.0}:
            k = int(round(endpoint / grid_deg)) % len(psi)
            window = lost[[(k - 40) % len(psi), (k + 40) % len(psi)]]
            assert window[0] != window[1]  # a boundary crosses nearby


# -- orientation folding ------------------------------------------------------

def test_fold_structure_of_two_opposite_arcs():
    region = sample_region()
    w = 96.54 / 4.0
    assert region.half_width_deg == pytest.approx(w, abs=1e-9)
    assert region.sector_measure_deg == pytest.approx(96.54, abs=1e-9)
    # (120 - sector) / 2 is the width of each free gap, 24.135..35.865
    assert region.free_margin_deg == pytest.approx((120.0 - 96.54) / 2.0,
                                                   abs=1e-9)
    assert region.free_margin_deg == pytest.approx(
        (60.0 - w) - w, abs=1e-9)
    for angle, expect in [(0.0, True), (w - 0.01, True), (w + 0.01, False),
                          (60.0, True), (60.0 - w - 0.01, False),
                          (60.0 + w + 0.01, False), (119.99, True),
                          (30.0, False), (90.0, False), (w, True),
                          (60.0 - w, True), (60.0 + w, True),
                          (120.0 - w, True)]:
        assert in_singularity(angle, region) == expect, angle


def test_in_singularity_endpoints_closed():
    region = sample_region()
    h = region.half_width_deg
    for edge in (h, 60.0 - h, 60.0 + h, 120.0 - h, -h, 360.0 + h):
        assert in_singularity(edge, region), edge
    for outside in (h + 1e-6, 60.0 - h - 1e-6, 60.0 + h + 1e-6,
                    120.0 - h - 1e-6):
        assert not in_singularity(outside, region), outside
    assert not in_singularity(0.0, SingularityRegion(0.0))


def test_orientation_set_from_sampled_rolls():
    # brute-force oracle: a roll is forbidden iff any module direction
    # falls in any arc
    arcs = contact_loss_arcs(worked_ellipse(), 92.0)
    region = worked_region(92.0)
    rolls = np.arange(0.0, 120.0, 0.001)
    forbidden = np.zeros(len(rolls), dtype=bool)
    for offset in (0.0, 120.0, 240.0):
        for lo, hi in arcs:
            x = np.mod(rolls + offset - lo, 360.0)
            forbidden |= x <= (hi - lo)
    mism = np.array([in_singularity(t, region) for t in rolls]) != forbidden
    assert mism.mean() < 1e-4  # only boundary-grid disagreements
    assert region.sector_measure_deg == pytest.approx(
        forbidden.mean() * 120.0, abs=0.01)


def test_in_singularity_reduces_modulo_period():
    region = worked_region(90.0)
    for theta in (0.0, 120.0, 240.0, 360.0, -120.0):
        assert in_singularity(theta, region) == in_singularity(0.0, region)


# -- escape rotation ----------------------------------------------------------

def test_escape_targets_gap_centers():
    region = sample_region()
    assert sorted(preferred_orientations(region)) == pytest.approx(
        [30.0, 90.0], abs=1e-9)
    assert escape_rotation(30.0, region) == 0.0
    assert escape_rotation(0.0, region) == pytest.approx(30.0)
    assert escape_rotation(45.0, region) == pytest.approx(-15.0)
    assert escape_rotation(100.0, region) == pytest.approx(-10.0)


def test_escape_tie_prefers_positive():
    region = sample_region()
    # 60 deg sits exactly between the gap centers at 30 and 90
    assert escape_rotation(60.0, region) == pytest.approx(30.0)


def test_escape_minimizes_rotation_against_brute_force():
    # brute-force oracle: the runs of free rolls on a fine grid, sampled
    # by in_singularity; the escape takes the shortest roll to the middle
    # of a run
    region = sample_region()
    grid = np.arange(0.0, 120.0, 0.001)
    free = np.array([not in_singularity(float(t), region) for t in grid])
    edges = np.flatnonzero(np.diff(free.astype(int)))  # 0 deg is forbidden
    centres = [(grid[lo + 1] + grid[hi]) / 2.0
               for lo, hi in zip(edges[::2], edges[1::2])]
    targets = preferred_orientations(region)
    assert centres == pytest.approx(targets, abs=1e-3)
    for theta in np.arange(0.0, 120.0, 0.25):
        got = escape_rotation(float(theta), region)
        best = min(abs(iv.signed_delta(theta, c, 120.0)) for c in centres)
        assert abs(got) == pytest.approx(best, abs=1e-3)
        best = min(abs(iv.signed_delta(theta, c, 120.0)) for c in targets)
        assert abs(got) == pytest.approx(best, abs=1e-9)
        assert not in_singularity(float(theta) + got, region)


def test_escape_impossible_when_everything_forbidden():
    region = worked_region(80.0)
    assert region.sector_measure_deg == pytest.approx(120.0)
    with pytest.raises(NoEscapeError):
        escape_rotation(10.0, region)


# -- sweeping and calibration -------------------------------------------------

def test_sweep_is_union_over_sections():
    _, few = sampled_sweep(160.0, CALIBRATED_REACH_MM, DEFAULT_PHI_MAX_RAD, 2)
    _, many = sampled_sweep(160.0, CALIBRATED_REACH_MM, DEFAULT_PHI_MAX_RAD,
                            128)
    # the most tilted section dominates, so refining the sweep is stable
    assert measure(many) == pytest.approx(measure(few), abs=1e-9)
    closed = sweep_t_junction(160.0, CALIBRATED_REACH_MM, DEFAULT_PHI_MAX_RAD)
    assert closed.sector_measure_deg == pytest.approx(measure(many),
                                                      abs=1e-12)
    assert np.ravel(fold(closed.forbidden_arcs)) == pytest.approx(
        np.ravel(many), abs=1e-12)


def test_sweep_monotone_in_tilt_limit():
    sectors = [sweep_t_junction(160.0, 95.0, phi).sector_measure_deg
               for phi in np.radians([20.0, 30.0, 40.0, 45.0])]
    assert sectors == sorted(sectors)


def test_sweep_propagates_insufficient_reach():
    with pytest.raises(InsufficientReachError):
        sweep_t_junction(160.0, 70.0, DEFAULT_PHI_MAX_RAD)


def test_sweep_memo_is_exact():
    # equal keys of either zero sign or number type give the bits of a
    # fresh sweep, whichever came first
    tilt = math.acos(0.8)
    pairs = [((160.0, CALIBRATED_REACH_MM, 0.0),
              (160.0, CALIBRATED_REACH_MM, -0.0)),
             ((160.0, 80.0, -0.0), (160, 80, 0.0)),
             ((160, 95, tilt), (160.0, 95.0, tilt)),
             ((160, 95.0, DEFAULT_PHI_MAX_RAD),
              (160.0, 95, DEFAULT_PHI_MAX_RAD))]
    for pair in pairs:
        for first, second in (pair, pair[::-1]):
            sweep_t_junction.cache_clear()
            for args in (first, second):
                assert (sweep_t_junction(*args).half_width_deg.hex()
                        == sweep_t_junction.__wrapped__(*args)
                        .half_width_deg.hex())
            assert sweep_t_junction.cache_info().hits == 1
    # an error is raised on every call, not stored
    sweep_t_junction.cache_clear()
    for _ in range(2):
        with pytest.raises(InsufficientReachError):
            sweep_t_junction(160, 70, DEFAULT_PHI_MAX_RAD)
    assert sweep_t_junction.cache_info().currsize == 0


@pytest.mark.parametrize("reach", [-5.0, 0.0, math.nan, math.inf])
def test_sweep_rejects_non_positive_or_non_finite_reach(reach):
    # NaN would otherwise pass every comparison and fold to 120 deg
    with pytest.raises(InvalidGeometryError):
        contact_loss_arcs(worked_ellipse(), reach)
    with pytest.raises(InvalidGeometryError):
        sweep_t_junction(160.0, reach, DEFAULT_PHI_MAX_RAD)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=80.0, max_value=400.0),
       st.floats(min_value=1e-6, max_value=1.3),
       st.floats(min_value=0.0, max_value=1.0))
def test_sweep_matches_dense_sampled_sweep(D, phi_max, reach_frac):
    b = D / 2.0
    a = b / math.cos(phi_max)
    reach = b + reach_frac * (1.1 * a - b)
    closed = sweep_t_junction(D, reach, phi_max)
    arcs, folded = sampled_sweep(D, reach, phi_max, 256)
    assert closed.sector_measure_deg == pytest.approx(measure(folded),
                                                      abs=1e-9)
    pairs = [(fold(closed.forbidden_arcs), folded)]
    # within 1e-8 of D/2 the wall half-width sits near 90 deg, where asin
    # turns one rounding error into ~1e-6 deg; there the arcs fold to the
    # full period anyway, so only the orientation set is compared
    if reach >= b * (1.0 + 1e-8):
        pairs.append((closed.forbidden_arcs, iv.normalize(arcs, 360.0)))
    for got, want in pairs:
        assert len(got) == len(want)
        assert np.ravel(got) == pytest.approx(np.ravel(want), abs=1e-9)


def test_calibration_reproduces_shipped_reach():
    reach = calibrate_reach_for_sector(160.0, 96.54)
    assert reach == CALIBRATED_REACH_MM
    region = sweep_t_junction(160.0, reach, DEFAULT_PHI_MAX_RAD)
    assert region.sector_measure_deg == pytest.approx(96.54, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=80.0, max_value=400.0),
       st.floats(min_value=0.05, max_value=120.0, exclude_max=True))
def test_calibration_round_trips_sector(D, target):
    # below ~0.02 deg the sector's slope in reach is too steep for 1e-9
    reach = calibrate_reach_for_sector(D, target)
    region = sweep_t_junction(D, reach, DEFAULT_PHI_MAX_RAD)
    assert region.sector_measure_deg == pytest.approx(target, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=80.0, max_value=400.0),
       st.floats(min_value=1e-3, max_value=1.3),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                 exclude_max=True))
def test_calibration_inverts_sweep_in_reach(D, phi_max, frac):
    b = D / 2.0
    a = b / math.cos(phi_max)
    full = calibrate_reach_for_sector(D, 120.0, phi_max)
    reach = full + frac * (a - full)
    sector = sweep_t_junction(D, reach, phi_max).sector_measure_deg
    assert calibrate_reach_for_sector(D, sector, phi_max) == pytest.approx(
        reach, rel=1e-9)


def test_calibration_at_full_period_is_largest_full_cover_reach():
    reach = calibrate_reach_for_sector(160.0, 120.0)
    assert reach == pytest.approx(101.19288512538813, rel=1e-12)
    full = sweep_t_junction(160.0, reach, DEFAULT_PHI_MAX_RAD)
    assert full.sector_measure_deg == pytest.approx(120.0, abs=1e-9)
    wider = sweep_t_junction(160.0, reach * (1.0 + 1e-9),
                             DEFAULT_PHI_MAX_RAD)
    assert wider.sector_measure_deg < 120.0
    assert calibrate_reach_for_sector(160.0, 0.0) == pytest.approx(
        80.0 * math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("target", [130.0, -1.0, math.nan, math.inf])
def test_calibration_rejects_target_outside_period(target):
    with pytest.raises(ValueError):
        calibrate_reach_for_sector(160.0, target)


@pytest.mark.parametrize("D", [0.0, -160.0])
def test_calibration_rejects_non_positive_bore(D):
    with pytest.raises(InvalidSectionError):
        calibrate_reach_for_sector(D, 96.54)


def test_failure_probability_is_sector_fraction():
    region = sample_region()
    assert failure_probability(region) == pytest.approx(96.54 / 120.0,
                                                        abs=1e-9)
    empty = worked_region(100.0)
    assert empty == SingularityRegion(0.0)
    assert failure_probability(empty) == 0.0
    assert preferred_orientations(empty) == [60.0]


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=5.0, max_value=75.0),
       st.floats(min_value=0.02, max_value=0.98))
def test_fold_measure_never_exceeds_period(phi_deg, reach_frac):
    e = cross_section_at(160.0, math.radians(phi_deg))
    reach = e.semi_minor_b + reach_frac * (e.semi_major_a - e.semi_minor_b)
    region = sweep_t_junction(160.0, reach, math.radians(phi_deg))
    assert 0.0 <= region.sector_measure_deg <= 120.0 + 1e-9
    assert region.free_margin_deg == pytest.approx(
        (120.0 - region.sector_measure_deg) / 2.0, abs=1e-9)


# -- the closed form against the interval fold ---------------------------------

@st.composite
def tee_geometries(draw):
    """(D, phi_max, reach) with reach in [D/2, a], at D/2, at or above a,
    or at the largest reach that forbids every roll."""
    D = draw(st.floats(min_value=20.0, max_value=1000.0))
    phi = draw(st.floats(min_value=1e-4, max_value=1.4))
    b = D / 2.0
    a = b / math.cos(phi)
    full = calibrate_reach_for_sector(D, 120.0, phi)
    reach = draw(st.one_of(
        st.floats(min_value=b, max_value=a),
        st.just(b), st.just(full),
        st.floats(min_value=a, max_value=2.0 * a)))
    return D, phi, reach


ROLLS = st.lists(st.floats(min_value=-720.0, max_value=720.0)
                 | st.sampled_from([-0.0, 0.0, 30.0, 60.0, 90.0, 120.0]),
                 min_size=1, max_size=50)


@settings(max_examples=300, deadline=None)
@given(tee_geometries(), ROLLS)
def test_closed_form_matches_the_interval_fold(geometry, rolls):
    D, phi, reach = geometry
    region = sweep_t_junction(D, reach, phi)
    folded = fold(contact_loss_arcs(cross_section_at(D, phi), reach))
    assert region.sector_measure_deg == pytest.approx(measure(folded),
                                                      abs=1e-12)
    assert region.free_margin_deg == pytest.approx(
        (120.0 - measure(folded)) / 2.0, abs=1e-12)
    try:
        want = fold_gap_centres(folded)
    except NoEscapeError:
        with pytest.raises(NoEscapeError):
            preferred_orientations(region)
    else:
        assert preferred_orientations(region) == pytest.approx(want,
                                                               abs=1e-12)
    for theta in rolls:
        assert in_singularity(theta, region) == fold_contains(folded,
                                                              theta), theta


def test_closed_form_edge_geometries():
    # reach at D/2: every roll forbidden; reach at a: none; reach at the
    # full-cover calibration: the gaps close
    assert sweep_t_junction(160.0, 80.0, DEFAULT_PHI_MAX_RAD
                            ).half_width_deg == 90.0
    assert sweep_t_junction(160.0, 80.0, DEFAULT_PHI_MAX_RAD
                            ).forbidden_arcs == [(0.0, 360.0)]
    assert sweep_t_junction(160.0, 80.0 * math.sqrt(2.0),
                            DEFAULT_PHI_MAX_RAD) == SingularityRegion(0.0)
    full = sweep_t_junction(160.0, calibrate_reach_for_sector(160.0, 120.0),
                            DEFAULT_PHI_MAX_RAD)
    assert full.sector_measure_deg == pytest.approx(120.0, abs=1e-12)
    with pytest.raises(NoEscapeError):
        preferred_orientations(full)


# -- the closed forms at every float scale -------------------------------------

def _unscaled_half_width(e: EllipseSection, reach: float) -> float:
    """The half-width as computed on the unscaled section, for reach in
    [b, a): the bits that normal-range sections must keep."""
    a, b = e.semi_major_a, e.semi_minor_b
    sin2 = (b * b * (a * a - reach * reach)
            / (reach * reach * (a * a - b * b)))
    return math.degrees(math.asin(math.sqrt(min(1.0, sin2))))


def _unscaled_reach(D: float, target: float, phi: float) -> float:
    e = cross_section_at(D, phi)
    a, b = e.semi_major_a, e.semi_minor_b
    s = math.sin(math.radians(target / 4.0))
    return a * b / math.sqrt(b * b + s * s * (a * a - b * b))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=80.0, max_value=400.0),
       st.floats(min_value=1e-4, max_value=1.4),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.floats(min_value=0.0, max_value=120.0))
def test_normal_range_sections_keep_the_unscaled_bits(D, phi, frac, target):
    e = cross_section_at(D, phi)
    b = e.semi_minor_b
    reach = min(b + frac * (e.semi_major_a - b),
                math.nextafter(e.semi_major_a, 0.0))
    region = sweep_t_junction(D, reach, phi)
    assert region.half_width_deg == _unscaled_half_width(e, reach)
    assert (calibrate_reach_for_sector(D, target, phi)
            == _unscaled_reach(D, target, phi))
    a = e.semi_major_a
    for psi in (0.0, 0.3, 1.0, math.pi / 2.0, 2.5, -4.0):
        assert ellipse_radial_distance(e, psi) == a * b / math.sqrt(
            (b * math.cos(psi)) ** 2 + (a * math.sin(psi)) ** 2)


def _float_at_any_scale():
    """A positive finite float with its exponent drawn uniformly, so that
    subnormals and values near the float maximum come up as often as
    millimetres."""
    return st.builds(math.ldexp, st.floats(min_value=0.5, max_value=1.0,
                                           exclude_max=True),
                     st.integers(-1073, 1024)).filter(math.isfinite)


_TILTS = st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_max=True)
_U = 2.0 ** -53


def _half_width_deg(sin2: float) -> float:
    return math.degrees(math.asin(math.sqrt(min(1.0, max(0.0, sin2)))))


@settings(max_examples=500, deadline=None)
@given(_float_at_any_scale(), _TILTS,
       st.floats(min_value=0.0, max_value=1.0))
def test_half_width_matches_exact_arithmetic_at_every_scale(D, phi, frac):
    try:
        e = cross_section_at(D, phi)
    except InvalidSectionError:
        # D/2 underflows to 0 or a = b / cos(phi) overflows
        assert D / 2.0 == 0.0 or math.isinf(D / 2.0 / math.cos(phi))
        return
    a, b = e.semi_major_a, e.semi_minor_b
    reach = min(max(b, b + frac * (a - b)), a)
    h = sweep_t_junction(D, reach, phi).half_width_deg
    if reach >= a:
        assert h == 0.0
        return
    A, B, R = (Fraction(x) ** 2 for x in (a, b, reach))
    sin2 = B * (A - R) / (R * (A - B))
    # one rounding of each square and operation moves sin^2 psi by at
    # most kappa units in the last place: the formula's own conditioning,
    # large only where reach nears a or a nears b, and the same at every
    # scale
    kappa = float((A + R) / (A - R) + (A + B) / (A - B)) + 8.0
    lo, hi = (float(sin2) * (1.0 + sign * 2.0 * kappa * _U)
              for sign in (-1.0, 1.0))
    assert _half_width_deg(lo) - 1e-9 <= h <= _half_width_deg(hi) + 1e-9


@settings(max_examples=500, deadline=None)
@given(_float_at_any_scale(), _TILTS,
       st.floats(min_value=0.0, max_value=120.0))
def test_calibrated_reach_matches_exact_arithmetic_at_every_scale(D, phi,
                                                                  target):
    try:
        e = cross_section_at(D, phi)
    except InvalidSectionError:
        with pytest.raises(InvalidSectionError):
            calibrate_reach_for_sector(D, target, phi)
        return
    reach = calibrate_reach_for_sector(D, target, phi)
    a, b = e.semi_major_a, e.semi_minor_b
    A, B = Fraction(a) ** 2, Fraction(b) ** 2
    S = Fraction(math.sin(math.radians(target / 4.0))) ** 2
    squared = A * B / (B + S * (A - B))
    # exact reach^2 scaled by 4^-k into the normal range, and back
    k = math.frexp(a)[1]
    exact = math.ldexp(math.sqrt(float(squared / Fraction(4) ** k)), k)
    # a subnormal reach keeps only its rounding to 2^-1074
    assert reach == pytest.approx(exact, rel=1e-12, abs=2.0 ** -1074)


@settings(max_examples=500, deadline=None)
@given(_float_at_any_scale(), _TILTS, st.floats(min_value=-10.0,
                                                max_value=10.0))
@example(D=1e-300, phi=0.5, psi=0.3)  # formerly ZeroDivisionError
@example(D=1e300, phi=0.5, psi=0.3)  # formerly OverflowError
def test_radial_distance_matches_exact_arithmetic_at_every_scale(D, phi,
                                                                 psi):
    try:
        e = cross_section_at(D, phi)
    except InvalidSectionError:
        assert D / 2.0 == 0.0 or math.isinf(D / 2.0 / math.cos(phi))
        return
    a, b = e.semi_major_a, e.semi_minor_b
    A, B = Fraction(a) ** 2, Fraction(b) ** 2
    C, S = Fraction(math.cos(psi)) ** 2, Fraction(math.sin(psi)) ** 2
    squared = A * B / (B * C + A * S)
    # exact distance^2 scaled by 4^-k into the normal range, and back
    k = math.frexp(a)[1]
    exact = math.ldexp(math.sqrt(float(squared / Fraction(4) ** k)), k)
    # a subnormal distance keeps only its rounding to 2^-1074
    assert ellipse_radial_distance(e, psi) == pytest.approx(
        exact, rel=1e-12, abs=2.0 ** -1074)


@pytest.mark.parametrize("D, phi_deg, reach, want", [
    # formerly ZeroDivisionError: the squares underflowed to 0
    (1e-300, 89.999999, 1e-300, 30.0),
    # formerly 90.0: a*a overflowed and min(1.0, nan) gave 1.0; reach is
    # (a + b) / 2, and want the exact half-width
    (1.24e224, 89.98, 8.883946004877446e+226, 0.034624901692660116),
])
def test_extreme_bores_give_the_exact_half_width(D, phi_deg, reach, want):
    region = sweep_t_junction(D, reach, math.radians(phi_deg))
    assert region.half_width_deg == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("D", [1e-200, 1e-160, 1e160, 1e300])
def test_extreme_bores_calibrate_to_the_scaled_reach(D):
    # every length scales with D, so the reach does too, by D / 160 mm
    for target in (5.0, 96.54, 120.0):
        reach = calibrate_reach_for_sector(D, target)
        assert reach == pytest.approx(
            calibrate_reach_for_sector(160.0, target) * D / 160.0, rel=1e-12)
        region = sweep_t_junction(D, reach, DEFAULT_PHI_MAX_RAD)
        assert region.sector_measure_deg == pytest.approx(target, abs=1e-9)


def test_a_section_whose_major_axis_overflows_is_invalid():
    with pytest.raises(InvalidSectionError, match="finite semi_major"):
        cross_section_at(1e308, math.radians(89.0))
