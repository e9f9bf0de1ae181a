"""The benchmark's workloads still build, run and pass their own checks.

perfbench/ calls the package through its public names; this runs one
operation of each workload the harness defines, those that BENCHMARK.json
lists and those it does not list yet, so a rename in src/ that breaks any
of them fails here.  Nothing is timed.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
LISTED = [w["name"] for w in
          json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

sys.path.insert(0, str(PERFBENCH))
try:
    workloads = importlib.import_module("workloads")
finally:
    sys.path.remove(str(PERFBENCH))

# the listed workloads first, then the harness's others (network-mc)
NAMES = LISTED + [name for name in workloads.WORKLOADS if name not in LISTED]


@pytest.mark.parametrize("name", NAMES)
def test_benchmark_workload_runs_and_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.warm()
    result = workload.ops[0]()
    assert workload.check({0: result}) == []
