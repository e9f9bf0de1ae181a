"""Benchmark workloads: input generation, operations and output checks.

Every workload builds a fixed pool of operations from the run seed; the
runner repeats whole rounds of that pool.  Operations call omnipipe
through module attributes (``sim.monte_carlo_tee``, ``cli.main``, ...)
so the traced run's wrappers, installed on those attributes, see them.
Checks take plain results, so a test can corrupt one and watch it trip.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from omnipipe import cli, pipenet, planner, sim, singularity
from omnipipe.errors import OmnipipeError
from omnipipe.kinematics import RobotGeometry
from omnipipe.pipenet import PipeNetwork, TeeExit, elbow, straight, tee

D_MM = 160.0
# The reference robot: the CLI's default geometry and planner settings,
# so library calls and CLI calls in one workload see the same machine.
GEOM = RobotGeometry(lug_radius_r=15.0, arm_length_l=60.0, a_offset=30.0,
                     reach_min=40.0,
                     reach_max=singularity.CALIBRATED_REACH_MM,
                     module_outer_radius=20.0)
CFG = planner.PlannerConfig()
PERIOD_DEG = 120.0

# Mission-state agreement between a fine-dt CLI run and a one-substep
# library run; the observed gap is ~4e-12.
STATE_TOL = 1e-9
# Sector calibration: the target must be met to this (deg), and the
# reported sector must equal min(4h, 120) to SECTOR_FORM_TOL.
SECTOR_TARGET_TOL_DEG = 0.01
SECTOR_FORM_TOL_DEG = 1e-6
# The sampled tee success rate must lie within this many binomial sigmas
# of 1 - sector/120, pooled over the run's distinct operations.  At 5
# sigma a correct program trips it in fewer than 1 in 10^6 runs; the exact
# per-draw count check carries trial-level correctness.
RATE_SIGMAS = 5.0


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """Generator for one workload's inputs; same seed, same inputs."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def op_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def digest(inputs) -> str:
    """SHA-256 of a workload's generated inputs in canonical JSON."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()
                          ).hexdigest()


def acceptance_tee() -> PipeNetwork:
    """The criterion-7 network: straight 500, branch tee, straight 300."""
    return PipeNetwork((straight(D_MM, 500.0), tee(D_MM),
                        straight(D_MM, 300.0)))


def generate_network(rng: np.random.Generator, elbows: int, branches: int,
                     throughs: int, length_mm: float) -> PipeNetwork:
    """Random D=160 network of fixed make-up and centerline length.

    The turns (elbows of 30-90 deg at 1.5-3 D bend radius, branch tees and
    through tees) come in random order, each at a uniform turn-plane roll,
    with straights between them that share the rest of ``length_mm``.
    Fixing the make-up and length keeps the work per mission nearly the
    same from seed to seed.  Values are rounded so the JSON form is short.
    """
    kinds = ["elbow"] * elbows + ["branch"] * branches + ["through"] * throughs
    turns = []
    for kind in rng.permutation(kinds):
        roll = round(float(rng.uniform(0.0, 360.0)), 2)
        if kind == "elbow":
            turns.append(elbow(
                D_MM, round(float(rng.uniform(1.5, 3.0)) * D_MM, 1),
                float(rng.choice([30.0, 45.0, 60.0, 90.0])), roll))
        else:
            turns.append(tee(D_MM, roll, TeeExit(kind)))
    rest = length_mm - sum(t.arc_length() for t in turns)
    weights = rng.uniform(1.0, 3.0, size=len(turns) + 1)
    lengths = [round(float(w), 1) for w in rest * weights / weights.sum()]
    segments = [straight(D_MM, lengths[0])]
    for turn, length in zip(turns, lengths[1:]):
        segments += [turn, straight(D_MM, length)]
    return PipeNetwork(tuple(segments))


def draws(seed: int, trials: int) -> np.ndarray:
    """The initial rolls monte_carlo_tee samples for this seed."""
    return np.random.default_rng(seed).uniform(0.0, PERIOD_DEG, size=trials)


def run_scalar(net: PipeNetwork, theta5: float, with_holonomic: bool):
    """One mission through the public planner and simulator."""
    plan = planner.plan_mission(net, theta5, CFG, GEOM,
                                with_holonomic=with_holonomic)
    outcome, _ = sim.run_mission(net, plan, CFG, GEOM, theta5_deg=theta5,
                                 dt=None)
    return outcome


def _angle_gap(a: float, b: float, period: float = 360.0) -> float:
    d = abs(a - b) % period
    return min(d, period - d)


@dataclass
class Workload:
    """A pool of operations plus what the runner needs to report them."""

    name: str
    ops: list            # zero-argument callables, one per pool entry
    items_per_op: list   # work items per pool entry, for items_per_s
    item: str            # what one item is
    tail_pct: float      # static tail percentile, see METRICS.md
    params: dict
    check: object        # check(results) -> [(pool index or None, message)]
    warm: object         # warm() fills lazy caches before timing


# -- tee-mc ------------------------------------------------------------------

# An op is a slice of the criterion-7 run: a Monte Carlo call and a slice of
# the escape grid.  Short ops repeat about 40 times in a 30-second run, so
# each pool entry's 90th-percentile repeat rests on many samples; the pool
# as a whole covers the 120-roll grid once.
TEE_TRIALS = 100
TEE_POOL = 24
GRID_ROLLS = 120
GRID_SLICE = GRID_ROLLS // TEE_POOL


def grid_slice(index: int) -> range:
    return range(index * GRID_SLICE, (index + 1) * GRID_SLICE)


def tee_mc_op(net: PipeNetwork, seed: int, rolls: range):
    mc = sim.monte_carlo_tee(net, CFG, GEOM, trials=TEE_TRIALS, seed=seed,
                             with_holonomic=False)
    grid = tuple(run_scalar(net, float(roll), True).reason for roll in rolls)
    return mc, grid


def check_tee_mc(net: PipeNetwork, seeds: list[int], results: dict) -> list:
    """results maps pool index -> (MonteCarloResult, grid-slice reasons)."""
    region = planner.region_for_tee(net.segments[1], CFG, GEOM)
    errors = []
    trials = successes = 0
    for i, (mc, grid) in sorted(results.items()):
        expected = sum(not singularity.in_singularity(float(t), region)
                       for t in draws(seeds[i], TEE_TRIALS))
        if mc.trials != TEE_TRIALS or mc.successes != expected:
            errors.append((i, f"tee-mc op {i}: {mc.successes}/{mc.trials} "
                              f"successes, draws give {expected}"))
        bad = [roll for roll, reason in zip(grid_slice(i), grid)
               if reason != "completed"]
        if len(grid) != GRID_SLICE or bad:
            errors.append((i, f"tee-mc op {i}: escape grid fails at "
                              f"rolls {bad} of {list(grid_slice(i))}"))
        trials += mc.trials
        successes += mc.successes
    if not trials:
        return errors
    p = 1.0 - singularity.failure_probability(region)
    sigma = math.sqrt(p * (1.0 - p) / trials)
    if abs(successes / trials - p) > RATE_SIGMAS * sigma:
        errors.append((None, f"tee-mc: pooled rate {successes / trials} "
                                f"is more than {RATE_SIGMAS} sigma from "
                                f"1 - sector/120 = {p}"))
    return errors


def tee_mc(seed: int, workdir: Path) -> Workload:
    net = acceptance_tee()
    seeds = op_seeds(rng_for(seed, "tee-mc"), TEE_POOL)
    return Workload(
        name="tee-mc",
        ops=[lambda s=s, r=grid_slice(i): tee_mc_op(net, s, r)
             for i, s in enumerate(seeds)],
        items_per_op=[TEE_TRIALS + GRID_SLICE] * TEE_POOL,
        item="simulated missions (Monte Carlo trials + escape-grid rolls)",
        tail_pct=90.0,
        params={"network": "straight 500, tee 160, straight 300",
                "trials_per_op": TEE_TRIALS, "grid_rolls_per_op": GRID_SLICE,
                "pool": TEE_POOL, "op_seeds": seeds,
                "inputs_sha256": digest(seeds)},
        check=lambda results: check_tee_mc(net, seeds, results),
        warm=lambda: run_scalar(net, 0.0, True))


# -- network-mc --------------------------------------------------------------

NET_COUNT = 4
NET_TURNS = (3, 3, 2)  # elbows, branch tees, through tees
NET_LENGTH_MM = 6000.0
NET_TRIALS = 50
NET_POOL = 8
NET_SUBSAMPLE = 8


def check_network_mc(nets: list, seeds: list[int], results: dict) -> list:
    errors = []
    for i, mc in sorted(results.items()):
        net = nets[i % len(nets)]
        if mc.trials != NET_TRIALS or mc.successes != NET_TRIALS:
            errors.append((i, f"network-mc op {i}: {mc.successes}/"
                              f"{mc.trials} trials completed, expected all"))
        # trial-level agreement on a subsample: same seed, same draws
        scalar = sum(run_scalar(net, float(t), True).success
                     for t in draws(seeds[i], NET_SUBSAMPLE))
        batch = sim.monte_carlo_tee(net, CFG, GEOM, trials=NET_SUBSAMPLE,
                                    seed=seeds[i], with_holonomic=True)
        if batch.successes != scalar:
            errors.append((i, f"network-mc op {i}: Monte Carlo counts "
                              f"{batch.successes}, scalar loop {scalar} on "
                              f"{NET_SUBSAMPLE} draws"))
    return errors


def network_mc(seed: int, workdir: Path) -> Workload:
    rng = rng_for(seed, "network-mc")
    nets = [generate_network(rng, *NET_TURNS, NET_LENGTH_MM)
            for _ in range(NET_COUNT)]
    seeds = op_seeds(rng, NET_POOL)

    def warm():
        for net in nets:
            with contextlib.suppress(OmnipipeError):  # see trajectory()
                run_scalar(net, 0.0, True)

    return Workload(
        name="network-mc",
        ops=[lambda n=nets[i % NET_COUNT], s=s:
             sim.monte_carlo_tee(n, CFG, GEOM, trials=NET_TRIALS, seed=s,
                                 with_holonomic=True)
             for i, s in enumerate(seeds)],
        items_per_op=[NET_TRIALS] * NET_POOL,
        item="Monte Carlo trials",
        tail_pct=90.0,
        params={"networks": NET_COUNT, "length_mm": NET_LENGTH_MM,
                "elbows_branches_throughs": NET_TURNS,
                "trials_per_op": NET_TRIALS, "pool": NET_POOL,
                "segments": [len(n.segments) for n in nets],
                "op_seeds": seeds,
                "inputs_sha256": digest(
                    [[pipenet.network_to_dict(n) for n in nets], seeds])},
        check=lambda results: check_network_mc(nets, seeds, results),
        warm=warm)


# -- trajectory --------------------------------------------------------------

TRAJ_POOL = 6
TRAJ_TURNS = (2, 1, 1)  # elbows, branch tees, through tees
TRAJ_LENGTH_MM = 3500.0
TRAJ_DT = 0.01


def simulate_args(network: Path, theta5: float, out: Path) -> list[str]:
    return ["simulate", "--network", str(network), "--theta5", repr(theta5),
            "--dt", repr(TRAJ_DT), "--out", str(out)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_trajectory_files(net: PipeNetwork, theta5: float,
                           out: Path) -> list:
    """trajectory.csv and outcome.json against a one-substep run."""
    outcome = json.loads((out / "outcome.json").read_text())
    lines = (out / "trajectory.csv").read_text().splitlines()
    errors = []
    if not (outcome.get("success") is True
            and outcome.get("reason") == "completed"):
        errors.append(f"{out.name}: outcome {outcome.get('reason')!r}, "
                      f"expected 'completed'")
    if len(lines) < 2 or lines[0] != sim.TRAJECTORY_CSV_HEADER:
        return errors + [f"{out.name}: trajectory.csv has no records"]
    last = lines[-1].split(",")
    plan = planner.plan_mission(net, theta5, CFG, GEOM, with_holonomic=True)
    ref_outcome, records = sim.run_mission(net, plan, CFG, GEOM,
                                           theta5_deg=theta5, dt=None)
    ref = records[-1]
    try:
        time_s, seg, s_mm, th5 = (float(last[0]), int(last[1]),
                                  float(last[2]), float(last[3]))
    except (IndexError, ValueError):
        return errors + [f"{out.name}: malformed last row {lines[-1]!r}"]
    if (seg != ref.segment_index or abs(time_s - ref.time_s) > STATE_TOL
            or abs(s_mm - ref.s_mm) > STATE_TOL
            or _angle_gap(th5, ref.theta5_deg) > STATE_TOL
            or abs(outcome.get("time_s", math.nan) - ref_outcome.time_s)
            > STATE_TOL):
        errors.append(
            f"{out.name}: final state (t={time_s}, seg={seg}, s={s_mm}, "
            f"theta5={th5}) differs from the one-substep run (t="
            f"{ref.time_s}, seg={ref.segment_index}, s={ref.s_mm}, "
            f"theta5={ref.theta5_deg})")
    return errors


def trajectory(seed: int, workdir: Path) -> Workload:
    rng = rng_for(seed, "trajectory")
    nets = [generate_network(rng, *TRAJ_TURNS, TRAJ_LENGTH_MM)
            for _ in range(TRAJ_POOL)]
    thetas = [round(float(t), 3) for t in rng.uniform(0.0, PERIOD_DEG,
                                                      TRAJ_POOL)]
    files = []
    for i, net in enumerate(nets):
        path = workdir / f"network-{i}.json"
        path.write_text(pipenet.network_to_json(net))
        files.append(path)
    outs = [workdir / f"out-{i}" for i in range(TRAJ_POOL)]
    items: list[int] = []

    def warm():
        for path, theta5 in zip(files, thetas):
            net = pipenet.load_network(path.read_text())
            # Warming only fills caches.  A mission the planner rejects
            # fails its op in the timed loop, where the run reports it.
            with contextlib.suppress(OmnipipeError):
                run_scalar(net, theta5, True)

    def check(results: dict) -> list:
        errors = []
        items.clear()
        for i, code in sorted(results.items()):
            if code != 0:
                errors.append((i, f"trajectory op {i}: exit code {code}"))
                continue
            errors += [(i, f"trajectory op {i}: {message}") for message in
                       check_trajectory_files(nets[i], thetas[i], outs[i])]
            with open(outs[i] / "trajectory.csv", "rb") as f:
                items.append(sum(1 for _ in f) - 1)
        if 0 in results:
            again = workdir / "rerun-0"
            code, _ = run_cli(simulate_args(files[0], thetas[0], again))
            for name in ("trajectory.csv", "outcome.json"):
                if (code != 0 or (again / name).read_bytes()
                        != (outs[0] / name).read_bytes()):
                    errors.append((0, f"trajectory op 0: re-run {name} "
                                      f"is not byte-identical"))
        return errors

    return Workload(
        name="trajectory",
        ops=[lambda a=simulate_args(f, t, o): run_cli(a)[0]
             for f, t, o in zip(files, thetas, outs)],
        items_per_op=items,  # filled by check() from the written files
        item="trajectory records",
        tail_pct=90.0,
        params={"pool": TRAJ_POOL, "length_mm": TRAJ_LENGTH_MM,
                "elbows_branches_throughs": TRAJ_TURNS,
                "dt_s": TRAJ_DT, "theta5_deg": thetas,
                "segments": [len(n.segments) for n in nets],
                "inputs_sha256": digest(
                    [[pipenet.network_to_dict(n) for n in nets], thetas])},
        check=check,
        warm=warm)


# -- sector-design -----------------------------------------------------------

SECTOR_POOL = 256


def sector_op(d_mm: float, target_deg: float):
    """Calibrate reach for a target sector, then ask the CLI for the region.

    The sweep and failure probability go through ``omnipipe sector``, the
    interface that stays put while the sweep's signature changes.
    """
    reach = singularity.calibrate_reach_for_sector(d_mm, target_deg)
    code, text = run_cli(["sector", "--d", repr(d_mm),
                          "--reach", repr(reach)])
    report = json.loads(text) if code == 0 else {}
    return (code, reach, report.get("sector_deg"),
            report.get("failure_probability"))


def check_sector(d_mm: float, target_deg: float, result) -> list:
    code, reach, sector, prob = result
    if code != 0 or sector is None or prob is None:
        return [f"sector D={d_mm}: exit code {code}"]
    errors = []
    if abs(sector - target_deg) > SECTOR_TARGET_TOL_DEG:
        errors.append(f"sector D={d_mm}: {sector} deg misses the target "
                      f"{target_deg} deg")
    arcs = singularity.contact_loss_arcs(
        singularity.cross_section_at(d_mm, singularity.DEFAULT_PHI_MAX_RAD),
        reach)
    half = (arcs[0][1] - arcs[0][0]) / 2.0 if arcs else 0.0
    closed_form = min(4.0 * half, PERIOD_DEG)
    if abs(sector - closed_form) > SECTOR_FORM_TOL_DEG:
        errors.append(f"sector D={d_mm}: {sector} deg, closed form "
                      f"min(4h, 120) gives {closed_form} deg")
    if abs(prob - sector / PERIOD_DEG) > 1e-12:
        errors.append(f"sector D={d_mm}: failure probability {prob} is not "
                      f"sector/120 = {sector / PERIOD_DEG}")
    return errors


def sector_design(seed: int, workdir: Path) -> Workload:
    rng = rng_for(seed, "sector-design")
    queries = [(float(d), float(t)) for d, t in zip(
        rng.uniform(80.0, 400.0, SECTOR_POOL),
        rng.uniform(5.0, 115.0, SECTOR_POOL))]
    return Workload(
        name="sector-design",
        ops=[lambda q=q: sector_op(*q) for q in queries],
        items_per_op=[1] * SECTOR_POOL,
        item="design queries",
        tail_pct=99.0,
        params={"pool": SECTOR_POOL, "d_mm": [80.0, 400.0],
                "target_sector_deg": [5.0, 115.0],
                "inputs_sha256": digest(queries)},
        check=lambda results: [(i, e) for i, r in sorted(results.items())
                               for e in check_sector(*queries[i], r)],
        warm=lambda: sector_op(*queries[0]))


WORKLOADS = {"tee-mc": tee_mc, "network-mc": network_mc,
             "trajectory": trajectory, "sector-design": sector_design}
