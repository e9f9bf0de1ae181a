"""omnipipe benchmark: one workload, one closed-loop caller, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload tee-mc --seed 1 --seconds 30 --trace 0

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A run record (machine, workload
parameters, percentile sample counts, failures) and, for traced runs, the
first op's spans go to ``.perfbench_out/``.  See METRICS.md.

Exit codes: 0 when every output check passes, 1 when a check or an op
fails (the result line says so), 2 when the benchmark cannot start (bad
arguments, or no omnipipe sources under ``src/``).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib.metadata
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tee-mc", "network-mc", "trajectory", "sector-design")
SETUP_REPEATS = 5
E2E_UNITS = {"setup_s": "s", "p90_ops_per_s": "1/s", "op_tail_s": "s",
             "p90_items_per_s": "1/s", "peak_rss_mb": "MB"}
PROBE_TIMEOUT_S = 60


def fail(message: str):
    """Stop before any result is printed: exit code 2."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import omnipipe from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import omnipipe
    except ImportError as e:
        fail(f"cannot import omnipipe from {SRC}: {e}")
    if not Path(omnipipe.__file__).resolve().is_relative_to(SRC):
        fail(f"omnipipe resolves to {omnipipe.__file__}, outside {SRC}")
    import workloads
    return workloads


def build(name: str, seed: int, workdir: Path):
    """Import, generate the workload's inputs and warm its lazy caches."""
    workloads = import_package()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.warm()
    return workload


def traced_modules() -> dict:
    """The omnipipe modules whose bindings spans.BINDINGS names."""
    from omnipipe import cli, intervals, planner, sim, singularity
    return {"cli": cli, "sim": sim, "planner": planner,
            "singularity": singularity, "intervals": intervals}


def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, as a user pays it per process:
    importing omnipipe, generating the inputs and warming the caches."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def timed_rounds(workload, seconds: float, min_ops: int, tracer=None):
    """Run whole rounds of the op pool until `seconds` and `min_ops` pass.

    Returns latencies, results as (pool index, result or exception), wall
    seconds, and the trace aggregates (layers, edges, first op's spans).
    With a tracer, each op becomes a ``bench.op`` span and its spans are
    folded after it; only the first op's spans are kept raw.
    """
    from spans import fold

    latencies: list[float] = []
    results: list = []
    layers: dict = {}
    edges: dict = {}
    first_spans: list = []
    clock = time.perf_counter
    start = clock()
    while True:
        for index, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = len(latencies)
                op = tracer.wrap(op, "bench.op")
            t0 = clock()
            try:
                result = op()
            except Exception as e:  # an op that raises is a failed op
                traceback.print_exc(file=sys.stderr)
                result = e
            latencies.append(clock() - t0)
            results.append((index, result))
            if tracer is not None:
                fold(tracer.spans, layers, edges)
                if not first_spans:
                    first_spans = list(tracer.spans)
                tracer.spans.clear()
        if clock() - start >= seconds and len(latencies) >= min_ops:
            break
    return latencies, results, clock() - start, (layers, edges, first_spans)


def check_results(workload, results: list) -> tuple[int, list[str]]:
    """Failed-op count and messages.

    Every repeat of a pool entry must equal its first run, which is
    checked against the workload's oracle; a failing entry fails all its
    repeats.
    """
    first: dict = {}
    bad: set = set()
    errors: list[str] = []
    for index, result in results:
        if isinstance(result, Exception):
            bad.add(index)
            errors.append(f"op {index} raised {result!r}")
        elif index not in first:
            first[index] = result
        elif result != first[index]:
            bad.add(index)
            errors.append(f"op {index} changed its result between rounds")
    try:
        for index, message in workload.check(
                {i: r for i, r in first.items() if i not in bad}):
            errors.append(message)
            bad.update(first if index is None else (index,))
    except Exception as e:  # a check that crashes fails every op
        traceback.print_exc(file=sys.stderr)
        errors.append(f"check raised {e!r}")
        bad.update(range(len(workload.ops)))
    return sum(1 for index, _ in results if index in bad), errors


def min_ops_for(tail_pct: float) -> int:
    """Fewest ops that leave at least ten samples beyond the percentile."""
    return math.ceil(10.0 / (1.0 - tail_pct / 100.0) - 1e-9)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def machine() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # numpy and scipy load before the set-up clock starts.  Their import
    # (about 0.7 s on a 2-core VM, over 90% of a fresh interpreter's set-up)
    # is a fixed third-party cost that swings with host load and would hide
    # omnipipe's own set-up.  Any further import is timed.
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    workdir = OUT / f"work-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        workload = build(args.workload, args.seed, workdir)
        setup_here = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        return measure(args, workload, setup_here)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup_here: float) -> int:
    tail_pct = workload.tail_pct
    min_ops = min_ops_for(tail_pct)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(traced_modules())
    try:
        latencies, results, wall, (layers, edges, first_spans) = \
            timed_rounds(workload, args.seconds, min_ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = len(latencies)
    failed, errors = check_results(workload, results)

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "params": workload.params,
              "item": workload.item, "ops": ops, "wall_s": wall,
              "setup_in_run_s": setup_here,
              "op_tail_pct": tail_pct,
              "op_tail_samples_beyond":
                  ops - math.ceil(tail_pct / 100.0 * ops),
              "failed": failed, "errors": errors[:50],
              "latencies_s": [round(x, 7) for x in latencies]}
    # Whole rounds run the pool in order, so op k is pool entry k % n.
    # The rate is that of a round with every entry at its 90th-percentile
    # repeat: on a shared host that level recurs in nearly every run, while
    # fastest repeats and medians depend on how often the host was quiet
    # (see METRICS.md).
    pool = len(workload.ops)
    round_s = sum(percentile(latencies[i::pool], 90.0) for i in range(pool))
    if args.trace:
        metrics = spans.layer_metrics(layers, edges, tracer.counts, ops,
                                      pool / round_s)
        units = spans.UNITS
        record["layers"] = {name: {"calls": c, "total_s": t, "self_s": s}
                            for name, (c, t, s) in sorted(layers.items())}
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as f:
            for span in first_spans:
                f.write(json.dumps(span) + "\n")
    else:
        setups = setup_seconds(workload.name, args.seed)
        metrics = {
            "setup_s": statistics.median(setups),
            "p90_ops_per_s": pool / round_s,
            "op_tail_s": percentile(latencies, tail_pct),
            "p90_items_per_s": sum(workload.items_per_op) / round_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
        record["setup_probes_s"] = setups
        record["op_p50_s"] = statistics.median(latencies)
        record["error_rate"] = failed / ops
    record["metrics"] = metrics
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")

    for message in errors[:20]:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    if "op_p50_s" in record:
        print(f"{'op_p50_s (not a gated metric)':40s} "
              f"{record['op_p50_s']:.6g} s")
    print(f"{'error_rate':40s} {failed / ops:.6g} "
          f"({failed} of {ops} ops failed)")
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct, "attempted": ops, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
