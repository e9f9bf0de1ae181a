"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run
import spans

workloads = run.import_package()


# -- output checks trip on corrupted results ---------------------------------

@pytest.fixture(scope="module")
def tee_op():
    net = workloads.acceptance_tee()
    seeds = workloads.op_seeds(workloads.rng_for(3, "tee-mc"), 1)
    return net, seeds, workloads.tee_mc_op(net, seeds[0],
                                          workloads.grid_slice(0))


def test_tee_mc_check_passes_on_real_result(tee_op):
    net, seeds, result = tee_op
    assert workloads.check_tee_mc(net, seeds, {0: result}) == []


def test_tee_mc_success_count_off_by_one_fails(tee_op):
    net, seeds, (mc, grid) = tee_op
    for delta in (-1, 1):
        bad = dataclasses.replace(mc, successes=mc.successes + delta)
        errors = workloads.check_tee_mc(net, seeds, {0: (bad, grid)})
        assert [i for i, _ in errors] == [0]


def test_tee_mc_failed_grid_roll_fails(tee_op):
    net, seeds, (mc, grid) = tee_op
    bad_grid = ("singularity",) + grid[1:]
    assert workloads.check_tee_mc(net, seeds, {0: (mc, bad_grid)})


def test_network_mc_incomplete_trial_fails():
    rng = workloads.rng_for(3, "network-mc")
    net = workloads.generate_network(rng, 1, 1, 0, 2000.0)
    seed = workloads.op_seeds(rng, 1)[0]
    mc = workloads.sim.monte_carlo_tee(
        net, workloads.CFG, workloads.GEOM, trials=workloads.NET_TRIALS,
        seed=seed, with_holonomic=True)
    assert workloads.check_network_mc([net], [seed], {0: mc}) == []
    bad = dataclasses.replace(mc, successes=mc.successes - 1)
    assert workloads.check_network_mc([net], [seed], {0: bad})


@pytest.fixture(scope="module")
def trajectory_op(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("traj")
    workload = workloads.trajectory(3, workdir)
    workload.warm()
    return workload, workdir, workload.ops[0]()


def test_trajectory_check_passes_on_real_files(trajectory_op):
    workload, _, code = trajectory_op
    assert code == 0
    assert workload.check({0: code}) == []
    assert workload.items_per_op[0] > 1000


def test_truncated_trajectory_csv_fails(trajectory_op, tmp_path):
    workload, workdir, _ = trajectory_op
    written = workdir / "out-0"
    net = workloads.pipenet.load_network(
        (workdir / "network-0.json").read_text())
    theta5 = workload.params["theta5_deg"][0]
    assert workloads.check_trajectory_files(net, theta5, written) == []
    (tmp_path / "outcome.json").write_bytes(
        (written / "outcome.json").read_bytes())
    rows = (written / "trajectory.csv").read_text().splitlines(keepends=True)
    (tmp_path / "trajectory.csv").write_text("".join(rows[:-1]))
    assert workloads.check_trajectory_files(net, theta5, tmp_path)


def test_planner_error_in_warm_up_leaves_the_op_to_fail(tmp_path):
    # Seed 372 draws a trajectory mission that the planner rejects with
    # PlanError (see METRICS.md); warming must not stop the run, so the
    # timed op reports the failure in the result line instead.
    workload = workloads.trajectory(372, tmp_path)
    workload.warm()


def test_sector_off_by_two_hundredths_fails():
    d_mm, target = 213.5, 61.25
    result = workloads.sector_op(d_mm, target)
    assert workloads.check_sector(d_mm, target, result) == []
    code, reach, sector, prob = result
    for delta in (-0.02, 0.02):
        bad = (code, reach, sector + delta, (sector + delta) / 120.0)
        assert workloads.check_sector(d_mm, target, bad)


def test_failing_entry_counts_every_repeat():
    class Fake:
        ops = [None, None]

        @staticmethod
        def check(results):
            return [(1, "entry 1 is wrong")] if 1 in results else []

    results = [(0, "a"), (1, "b"), (0, "a"), (1, "b"), (0, "changed")]
    failed, errors = run.check_results(Fake, results)
    assert failed == 5  # entry 0 changed between rounds, entry 1 is wrong
    assert len(errors) == 2
    failed, _ = run.check_results(Fake, [(0, ValueError("boom"))])
    assert failed == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


# -- self-time arithmetic -----------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("a", 5.0, 9.0, 0, 0),
        ("b", 6.0, 6.5, 3, 0),
        ("b", 7.0, 8.0, 3, 0),
    ]
    layers, edges = {}, {}
    spans.fold(tree, layers, edges)
    assert layers["root"] == [1, 10.0, 3.0]
    assert layers["a"] == [2, 7.0, 4.5]
    assert layers["b"] == [3, 2.5, 2.5]
    assert edges == {("root", "a"): 2, ("a", "b"): 3}
    assert sum(agg[2] for agg in layers.values()) == pytest.approx(10.0)


def test_tracer_nests_spans_and_restores_bindings():
    tracer = spans.Tracer()
    net = workloads.acceptance_tee()
    originals = {attr: getattr(workloads.sim, attr)
                 for attr in ("run_mission", "step", "plan_mission")}
    tracer.install(run.traced_modules())
    try:
        outcomes = [workloads.run_scalar(net, theta5, False).reason
                    for theta5 in (0.0, 30.0)]
    finally:
        tracer.uninstall()
    assert {attr: getattr(workloads.sim, attr) for attr in originals} \
        == originals
    layers, edges = {}, {}
    spans.fold(tracer.spans, layers, edges)
    metrics = spans.layer_metrics(layers, edges, tracer.counts, 2, 1.0)
    assert sorted(outcomes) == ["completed", "singularity"]
    assert metrics["sim.outcome.completed"] == 0.5
    assert metrics["sim.outcome.singularity"] == 0.5
    assert metrics["planner.plan.calls"] == 1.0
    # the failed mission stops at the tee onset: 1 of 4 steps runs
    assert 0.0 < metrics["planner.steps_executed_ratio"] < 1.0
    assert metrics["singularity.region.hit_ratio"] == 1.0
    assert edges[("sim.run", "sim.step")] == layers["sim.step"][0]
    roots = [s for s in tracer.spans if s[3] == -1 and s[0] != spans.HOOK]
    assert sum(s[2] - s[1] for s in roots) == pytest.approx(
        sum(agg[2] for name, agg in layers.items() if name != spans.HOOK))
    assert set(metrics) == set(spans.UNITS)


# -- deterministic generation -------------------------------------------------

def test_generator_is_deterministic(tmp_path):
    def generate(seed, sub):
        params = {}
        for name, make in workloads.WORKLOADS.items():
            workdir = tmp_path / f"{sub}-{name}"
            workdir.mkdir()
            params[name] = make(seed, workdir).params
        files = {p.name: p.read_bytes()
                 for p in sorted((tmp_path / f"{sub}-trajectory").iterdir())}
        return params, files

    first, again, other = (generate(5, "a"), generate(5, "b"),
                           generate(6, "c"))
    assert first == again
    assert first[1]  # the trajectory network files
    for name in workloads.WORKLOADS:
        assert (first[0][name]["inputs_sha256"]
                != other[0][name]["inputs_sha256"])
    assert np.array_equal(workloads.draws(7, 50), workloads.draws(7, 50))
