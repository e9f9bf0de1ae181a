"""The benchmark's workloads still build, run and pass their own checks.

perfbench/ calls the package through its public names; this runs one
operation of each workload that BENCHMARK.json declares, so a rename in
src/ that breaks the benchmark fails here.  Nothing is timed.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_workload_runs_and_passes_its_check(workloads, name,
                                                       tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.warm()
    result = workload.ops[0]()
    assert workload.check({0: result}) == []
