"""Layer tracing from outside the package.

The traced run wraps omnipipe's public functions where they are *called*:
the package binds names at import time (``from .kinematics import
forward_kinematics``), so ``omnipipe.sim.forward_kinematics`` is the
binding ``step`` uses and the one to wrap.  Each call records a span
``(layer, start, end, parent index, op id)`` in memory.  A few layers also
get a hook that counts something in the call's arguments or result; hook
time is recorded as a ``trace.hook`` child span, so no layer is charged
for it.  The untraced run installs nothing.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# (module, attribute, layer).  A binding missing from the module is
# skipped, and its layer then reads zero.
BINDINGS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_network", "pipenet.load"),
    ("cli", "plan_mission", "planner.plan"),
    ("cli", "run_mission", "sim.run"),
    ("cli", "write_trajectory_csv", "sim.csv"),
    ("cli", "sweep_t_junction", "singularity.sweep"),
    ("sim", "monte_carlo_tee", "sim.mc"),
    ("sim", "plan_mission", "planner.plan"),
    ("sim", "run_mission", "sim.run"),
    ("sim", "step", "sim.step"),
    ("sim", "forward_kinematics", "kinematics.fk"),
    ("sim", "drive_sign", "drive.sign"),
    ("sim", "in_singularity", "singularity.in_singularity"),
    ("sim", "region_for_tee", "singularity.region"),
    ("sim", "reference_rolls", "pipenet.reference_rolls"),
    ("planner", "plan_mission", "planner.plan"),
    ("planner", "region_for_tee", "singularity.region"),
    ("planner", "reference_rolls", "pipenet.reference_rolls"),
    ("planner", "drive_sign", "drive.sign"),
    ("planner", "inverse_kinematics", "kinematics.ik"),
    ("planner", "in_singularity", "singularity.in_singularity"),
    ("planner", "escape_rotation", "singularity.escape"),
    ("planner", "sweep_t_junction", "singularity.sweep"),
    ("singularity", "calibrate_reach_for_sector", "singularity.calibrate"),
    ("singularity", "sweep_t_junction", "singularity.sweep"),
    ("intervals", "normalize", "intervals.normalize"),
)

HOOK = "trace.hook"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_plan(counts, args, kwargs, result) -> None:
    counts["planned_steps"] += len(result)


def _count_run(counts, args, kwargs, result) -> None:
    """Records, outcome reasons, and mission steps run versus planned.

    A step counts as executed when the mission clock passed its start,
    which holds for any dt: a mission stopped at a tee onset never starts
    the turn or anything after it.
    """
    outcome, records = result
    plan = _arg(args, kwargs, 1, "plan")
    counts["records"] += len(records)
    counts["outcome." + outcome.reason] += 1
    counts["run_planned_steps"] += len(plan)
    start = 0.0
    for mstep in plan:
        if start >= outcome.time_s - 1e-9 * max(1.0, outcome.time_s):
            break
        counts["executed_steps"] += 1
        start += mstep.duration_s


def _count_csv(counts, args, kwargs, result) -> None:
    counts["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


HOOKS = {"planner.plan": _count_plan, "sim.run": _count_run,
         "sim.csv": _count_csv}


class Tracer:
    """Spans and counters for one run; fold() aggregates them per op."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._installed: list = []

    def wrap(self, fn, layer: str, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op)
            if hook is not None:
                hook_start = clock()
                hook(counts, args, kwargs, result)
                spans.append((HOOK, hook_start, clock(), parent, self.op))
            return result

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attr, layer in BINDINGS:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(original, layer,
                                            HOOKS.get(layer)))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def fold(spans: list, layers: dict, edges: dict) -> None:
    """Add one op's spans into per-layer totals.

    layers[name] accumulates [calls, total_s, self_s]; edges[(parent,
    child)] counts calls by caller layer.  A span's self time is its
    duration minus the durations of its direct children, which nest
    inside it and do not overlap on one thread.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        agg = layers.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child_s[i]
        if parent >= 0:
            key = (spans[parent][0], name)
            edges[key] = edges.get(key, 0) + 1


UNITS = {
    "sim.step.calls": "calls/op", "sim.step.self_s": "s/op",
    "kinematics.fk.calls": "calls/op", "kinematics.fk.self_s": "s/op",
    "kinematics.ik.calls": "calls/op", "drive.sign.calls": "calls/op",
    "sim.csv.self_s": "s/op", "sim.csv.bytes": "bytes/op",
    "pipenet.load.self_s": "s/op", "pipenet.reference_rolls.calls":
    "calls/op", "sim.records": "records/op", "cli.main.self_s": "s/op",
    "planner.plan.calls": "calls/op", "planner.plan.self_s": "s/op",
    "planner.steps_per_plan": "steps/plan",
    "planner.steps_executed_ratio": "ratio", "sim.run.self_s": "s/op",
    "sim.mc.self_s": "s/op", "singularity.in_singularity.calls": "calls/op",
    "singularity.escape.calls": "calls/op",
    "singularity.escape.self_s": "s/op",
    "singularity.region.calls": "calls/op",
    "singularity.region.hit_ratio": "ratio",
    "singularity.sweep.calls": "calls/op",
    "singularity.sweep.self_s": "s/op",
    "singularity.calibrate.self_s": "s/op",
    "singularity.calibrate.sweeps_per_call": "sweeps/call",
    "intervals.normalize.self_s": "s/op",
    "sim.outcome.completed": "missions/op",
    "sim.outcome.singularity": "missions/op",
    "sim.outcome.no_forward_progress": "missions/op",
    "sim.outcome.incomplete": "missions/op",
    "trace.p90_ops_per_s": "1/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: dict, edges: dict, counts: dict, ops: int,
                  traced_p90_ops_per_s: float) -> dict:
    """Per-layer metrics, each per op unless it is a ratio."""
    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[2]

    per_op = {
        "sim.step.calls": calls("sim.step"),
        "sim.step.self_s": self_s("sim.step"),
        "kinematics.fk.calls": calls("kinematics.fk"),
        "kinematics.fk.self_s": self_s("kinematics.fk"),
        "kinematics.ik.calls": calls("kinematics.ik"),
        "drive.sign.calls": calls("drive.sign"),
        "sim.csv.self_s": self_s("sim.csv"),
        "sim.csv.bytes": counts["csv_bytes"],
        "pipenet.load.self_s": self_s("pipenet.load"),
        "pipenet.reference_rolls.calls": calls("pipenet.reference_rolls"),
        "sim.records": counts["records"],
        "cli.main.self_s": self_s("cli.main"),
        "planner.plan.calls": calls("planner.plan"),
        "planner.plan.self_s": self_s("planner.plan"),
        "sim.run.self_s": self_s("sim.run"),
        "sim.mc.self_s": self_s("sim.mc"),
        "singularity.in_singularity.calls":
            calls("singularity.in_singularity"),
        "singularity.escape.calls": calls("singularity.escape"),
        "singularity.escape.self_s": self_s("singularity.escape"),
        "singularity.region.calls": calls("singularity.region"),
        "singularity.sweep.calls": calls("singularity.sweep"),
        "singularity.sweep.self_s": self_s("singularity.sweep"),
        "singularity.calibrate.self_s": self_s("singularity.calibrate"),
        "intervals.normalize.self_s": self_s("intervals.normalize"),
    }
    for reason in ("completed", "singularity", "no_forward_progress",
                   "incomplete"):
        per_op["sim.outcome." + reason] = counts["outcome." + reason]
    out = {name: value / ops for name, value in per_op.items()}
    out["planner.steps_per_plan"] = _ratio(counts["planned_steps"],
                                           calls("planner.plan"))
    out["planner.steps_executed_ratio"] = _ratio(
        counts["executed_steps"], counts["run_planned_steps"])
    regions = calls("singularity.region")
    out["singularity.region.hit_ratio"] = (
        1.0 - _ratio(edges.get(("singularity.region", "singularity.sweep"),
                               0), regions) if regions else 0.0)
    out["singularity.calibrate.sweeps_per_call"] = _ratio(
        edges.get(("singularity.calibrate", "singularity.sweep"), 0),
        calls("singularity.calibrate"))
    out["trace.p90_ops_per_s"] = traced_p90_ops_per_s
    return out
