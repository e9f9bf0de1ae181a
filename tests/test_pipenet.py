import json
import math

import numpy as np
import pytest

from omnipipe import (NetworkValidationError, PipeNetwork, PipeSegment,
                      RatioMode, TeeExit, elbow, load_network,
                      module_path_radii, network_from_dict, network_to_dict,
                      network_to_json, reference_rolls, straight, tee)

D = 160.0


# -- segment and network validation -------------------------------------------

def test_builders_reject_nonpositive_dimensions():
    for bad in (0.0, -5.0, math.nan, math.inf, True):
        with pytest.raises(NetworkValidationError):
            straight(bad, 500.0)
    with pytest.raises(NetworkValidationError):
        straight(D, 0.0)
    with pytest.raises(NetworkValidationError):
        elbow(D, 0.0, 90.0)
    with pytest.raises(NetworkValidationError):
        tee(D, equivalent_radius_mm=-1.0)


def test_elbow_angle_range_is_half_open():
    with pytest.raises(NetworkValidationError) as err:
        elbow(D, 240.0, 0.0)
    assert err.value.field == "bend_angle_deg"
    with pytest.raises(NetworkValidationError):
        elbow(D, 240.0, 180.0001)
    assert elbow(D, 240.0, 180.0).bend_angle_deg == 180.0


def test_network_requires_uniform_diameter():
    with pytest.raises(NetworkValidationError) as err:
        PipeNetwork((straight(160.0, 500.0), straight(150.0, 500.0)))
    assert err.value.segment_index == 1
    assert err.value.field == "D_mm"
    assert "diameter" in str(err.value)


def test_network_rejects_empty():
    with pytest.raises(NetworkValidationError):
        PipeNetwork(())


@pytest.mark.parametrize("build, index, field", [
    (lambda: PipeSegment("straight", D, length_mm=500.0), None, "kind"),
    (lambda: PipeSegment(None, D, length_mm=500.0), None, "kind"),
    (lambda: PipeNetwork((1, 2)), 0, None),
    (lambda: PipeNetwork([straight(D, 500.0), "tee"]), 1, None),
], ids=["kind-string", "kind-none", "ints", "string-entry"])
def test_networks_built_in_python_reject_malformed_entries(build, index,
                                                           field):
    with pytest.raises(NetworkValidationError) as err:
        build()
    assert err.value.segment_index == index
    assert err.value.field == field


def test_from_dict_rejects_unknown_segment_field():
    doc = {"segments": [{"kind": "straight", "D_mm": D, "length_mm": 500.0,
                         "radius_mm": 80.0}]}
    with pytest.raises(NetworkValidationError) as err:
        network_from_dict(doc)
    assert err.value.segment_index == 0
    assert err.value.field == "radius_mm"


def test_from_dict_rejects_unknown_kind_and_exit():
    for kind in ("bend", ["straight"], {"kind": "tee"}, None, 3):
        with pytest.raises(NetworkValidationError) as err:
            network_from_dict({"segments": [{"kind": kind, "D_mm": D}]})
        assert err.value.field == "kind"
    with pytest.raises(NetworkValidationError) as err:
        network_from_dict({"segments": [{"kind": "tee", "D_mm": D,
                                         "exit": "sideways"}]})
    assert err.value.field == "exit"
    assert err.value.segment_index == 0


def test_from_dict_rejects_unknown_top_level_field():
    doc = {"segments": [{"kind": "straight", "D_mm": D, "length_mm": 1.0}],
           "version": 2}
    with pytest.raises(NetworkValidationError) as err:
        network_from_dict(doc)
    assert err.value.field == "version"


def test_from_dict_reports_offending_index():
    doc = {"segments": [
        {"kind": "straight", "D_mm": D, "length_mm": 500.0},
        {"kind": "elbow", "D_mm": D, "bend_radius_mm": 240.0,
         "bend_angle_deg": -90.0},
    ]}
    with pytest.raises(NetworkValidationError) as err:
        network_from_dict(doc)
    assert err.value.segment_index == 1
    assert err.value.field == "bend_angle_deg"


def test_load_network_wraps_json_errors():
    with pytest.raises(NetworkValidationError) as err:
        load_network("{not json")
    assert "invalid JSON" in str(err.value)
    with pytest.raises(NetworkValidationError) as err:
        load_network("[" * 100_000)
    assert "invalid JSON" in str(err.value)


def test_round_trip_preserves_network():
    net = PipeNetwork((
        straight(D, 500.0),
        elbow(D, 240.0, 90.0, turn_plane_roll_deg=45.0),
        straight(D, 300.0),
        tee(D, branch_roll_deg=30.0, exit=TeeExit.BRANCH),
        straight(D, 200.0),
        tee(D, branch_roll_deg=-60.0, exit=TeeExit.THROUGH,
            equivalent_radius_mm=100.0),
        straight(D, 100.0),
    ))
    assert network_from_dict(network_to_dict(net)) == net
    assert load_network(network_to_json(net)) == net
    assert json.loads(network_to_json(net)) == network_to_dict(net)


# -- arc lengths ---------------------------------------------------------------

def test_arc_lengths():
    assert straight(D, 500.0).arc_length() == 500.0
    assert elbow(D, 240.0, 90.0).arc_length() == pytest.approx(
        240.0 * math.pi / 2.0, rel=1e-15)
    assert tee(D, exit=TeeExit.THROUGH).arc_length() == D
    assert tee(D).arc_length() == pytest.approx(80.0 + 80.0 * math.pi / 2.0)
    assert tee(D, equivalent_radius_mm=100.0).arc_length() == pytest.approx(
        80.0 + 100.0 * math.pi / 2.0)


def test_total_length_sums_segments():
    net = PipeNetwork((straight(D, 500.0), elbow(D, 240.0, 90.0),
                       straight(D, 300.0)))
    assert net.total_length() == pytest.approx(800.0 + 120.0 * math.pi)


# -- module path radii through an elbow ----------------------------------------

def test_radii_match_published_anchor():
    seg = elbow(D, 240.0, 90.0)
    radii = module_path_radii(seg, 0.0, RatioMode.FIXED_RATIO)
    assert radii == pytest.approx((160.0, 280.0, 280.0), rel=1e-12)


def test_radii_sum_is_constant_across_roll():
    seg = elbow(D, 240.0, 90.0)
    for theta5 in np.arange(0.0, 360.0, 7.5):
        fixed = module_path_radii(seg, theta5, RatioMode.FIXED_RATIO)
        assert sum(fixed) == pytest.approx(4.5 * D, rel=1e-12)


def test_generalized_mode_uses_actual_bend_radius():
    seg = elbow(D, 300.0, 90.0)
    radii = module_path_radii(seg, 0.0, RatioMode.GENERALIZED)
    assert radii == pytest.approx((220.0, 340.0, 340.0), rel=1e-12)
    for theta5 in (0.0, 33.0, 100.0):
        assert sum(module_path_radii(seg, theta5,
                                     RatioMode.GENERALIZED)) \
            == pytest.approx(3.0 * 300.0, rel=1e-12)
    # fixed mode ignores the bend radius and keeps the 1.5 D center
    fixed = module_path_radii(seg, 0.0, RatioMode.FIXED_RATIO)
    assert fixed == pytest.approx((160.0, 280.0, 280.0), rel=1e-12)


def test_radii_cycle_with_module_period():
    seg = elbow(D, 240.0, 90.0)
    base = module_path_radii(seg, 17.0, RatioMode.FIXED_RATIO)
    rolled = module_path_radii(seg, 17.0 + 120.0, RatioMode.FIXED_RATIO)
    assert rolled == pytest.approx((base[2], base[0], base[1]), rel=1e-12)


def test_radii_only_defined_for_elbows():
    with pytest.raises(ValueError):
        module_path_radii(straight(D, 100.0), 0.0, RatioMode.FIXED_RATIO)
    with pytest.raises(ValueError):
        module_path_radii(tee(D), 0.0, RatioMode.GENERALIZED)


# -- roll references -----------------------------------------------------------

def test_reference_rolls_track_next_turn():
    net = PipeNetwork((
        straight(D, 500.0),
        elbow(D, 240.0, 90.0, turn_plane_roll_deg=45.0),
        straight(D, 300.0),
        tee(D, branch_roll_deg=30.0),
        straight(D, 200.0),
    ))
    assert reference_rolls(net) == [45.0, 45.0, 30.0, 30.0, 30.0]


def test_reference_rolls_without_turns_default_to_zero():
    net = PipeNetwork((straight(D, 500.0), straight(D, 100.0)))
    assert reference_rolls(net) == [0.0, 0.0]


def test_through_tee_also_sets_the_reference_plane():
    net = PipeNetwork((straight(D, 500.0),
                       tee(D, branch_roll_deg=70.0, exit=TeeExit.THROUGH),
                       straight(D, 100.0)))
    assert reference_rolls(net) == [70.0, 70.0, 70.0]
