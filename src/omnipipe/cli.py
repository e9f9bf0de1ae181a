"""Command-line front end.

Subcommands: fk, ik (Jacobian queries), sector (singularity region
report), plan, simulate, montecarlo (file-producing runs).  All angles on
the command line are degrees and all lengths millimeters; outputs are
JSON or CSV with sorted keys and repr-rounded floats so identical
invocations produce byte-identical bytes.

Each call builds its parser afresh and keeps nothing between calls.
When the first argument names a subcommand, only that subcommand's
arguments are added (see build_parser); the usage, help and error
messages are those of the full parser.

Exit codes: 0 success, 2 argument/input parse error or an output that
cannot be written, 3 degenerate
geometry or planning input, 4 insufficient reach / no escape, 5 simulated
mission failure or simulation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .errors import (InsufficientReachError, InvalidGeometryError,
                     InvalidSectionError, NetworkValidationError,
                     NoEscapeError, PlanError, SimulationError)
from .kinematics import (CommandVector, RobotGeometry, TwistVector,
                         forward_kinematics, inverse_kinematics)
from .pipenet import RatioMode, load_network
from .planner import (REFERENCE_GEOMETRY, PlannerConfig, plan_mission,
                      plan_to_json)
from .sim import (DEFAULT_DT_S, monte_carlo_tee, outcome_to_json,
                  run_mission, write_trajectory_csv)
from .singularity import (DEFAULT_PHI_MAX_RAD, failure_probability,
                          sweep_t_junction)

_EXIT_PARSE = 2
_EXIT_GEOMETRY = 3
_EXIT_REACH = 4
_EXIT_SIM = 5

_GEOMETRY_KEYS = tuple(f.name for f in dataclasses.fields(RobotGeometry))


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text if text.endswith("\n") else text + "\n")


def _parse_vector(text: str, name: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"{name} needs 4 comma-separated numbers, got "
                         f"{text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{name} must be numeric, got {text!r}") from None


def _add_geometry_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("robot geometry (mm)")
    g.add_argument("--geometry", metavar="FILE",
                   help="JSON file with geometry fields; flags override it")
    g.add_argument("--r", type=float, default=None, help="lug radius")
    g.add_argument("--l", type=float, default=None, help="arm length")
    g.add_argument("--a-offset", type=float, default=None,
                   help="center offset a (default l/2)")
    g.add_argument("--reach-min", type=float, default=None)
    g.add_argument("--reach-max", type=float, default=None)
    g.add_argument("--module-radius", type=float, default=None,
                   help="module cross-section radius")


def _geometry_from_args(args) -> RobotGeometry:
    # a_offset follows the arm length (l/2) unless set explicitly
    values = {**dataclasses.asdict(REFERENCE_GEOMETRY), "a_offset": None}
    if args.geometry:
        try:
            loaded = json.loads(Path(args.geometry).read_text())
        except (OSError, json.JSONDecodeError, RecursionError) as e:
            raise ValueError(f"cannot read geometry file: {e}") from None
        if not isinstance(loaded, dict):
            raise ValueError("geometry file must hold a JSON object")
        unknown = set(loaded) - set(_GEOMETRY_KEYS)
        if unknown:
            raise ValueError(f"unknown geometry field "
                             f"{sorted(unknown)[0]!r}")
        values.update(loaded)
    overrides = {"lug_radius_r": args.r, "arm_length_l": args.l,
                 "a_offset": args.a_offset, "reach_min": args.reach_min,
                 "reach_max": args.reach_max,
                 "module_outer_radius": args.module_radius}
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    if values["a_offset"] is None:
        # l / 2, taken once RobotGeometry has checked l
        geom = RobotGeometry(**{**values, "a_offset": values["arm_length_l"]})
        return dataclasses.replace(geom, a_offset=geom.arm_length_l / 2.0)
    return RobotGeometry(**values)


def _add_planner_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("planner")
    d = PlannerConfig()
    g.add_argument("--speed", type=float, default=d.straight_speed,
                   help="straight drive speed, mm/s")
    g.add_argument("--trigger-fraction", type=float,
                   default=d.tee_trigger_fraction,
                   help="head depth into the junction starting the turn, "
                        "as a fraction of D")
    g.add_argument("--ratio-mode", choices=[m.value for m in RatioMode],
                   default=d.ratio_mode.value)
    g.add_argument("--deadband", type=float, default=d.wobble_deadband_deg,
                   help="no-motion half-width around 90 deg module "
                        "self-rotation, deg")
    g.add_argument("--rotate-rate", type=float, default=d.rotate_rate_rad_s,
                   help="holonomic roll rate, rad/s")
    g.add_argument("--phi-max-deg", type=float, default=None,
                   help="tee sweep tilt limit (default: equal-bore limit)")
    g.add_argument("--no-holonomic", action="store_true",
                   help="plan without the escape/alignment roll")


def _planner_config(args) -> PlannerConfig:
    return PlannerConfig(
        straight_speed=args.speed,
        tee_trigger_fraction=args.trigger_fraction,
        ratio_mode=RatioMode(args.ratio_mode),
        wobble_deadband_deg=args.deadband,
        rotate_rate_rad_s=args.rotate_rate,
        sweep_phi_max_deg=args.phi_max_deg)


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get("OMNIPIPE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"OMNIPIPE_SEED must be an integer, got "
                         f"{text!r}") from None


def _load_network_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise NetworkValidationError(f"cannot read network file: {e}") \
            from None
    return load_network(text)


def _cmd_fk(args) -> int:
    geom = _geometry_from_args(args)
    cmd = CommandVector(*_parse_vector(args.cmd, "--cmd"))
    twist = forward_kinematics(cmd, geom)
    _emit({"wx": twist.omega_x, "wy": twist.omega_y, "wz": twist.omega_z,
           "vcz": twist.v_cz})
    return 0


def _cmd_ik(args) -> int:
    geom = _geometry_from_args(args)
    twist = TwistVector(*_parse_vector(args.twist, "--twist"))
    cmd = inverse_kinematics(twist, geom)
    _emit({"th1": cmd.theta_dot_1, "th2": cmd.theta_dot_2,
           "th3": cmd.theta_dot_3, "th4": cmd.theta_dot_4})
    return 0


def _cmd_sector(args) -> int:
    geom = _geometry_from_args(args)
    reach = args.reach if args.reach is not None else geom.reach_max
    phi_max = (math.radians(args.phi_max_deg)
               if args.phi_max_deg is not None else DEFAULT_PHI_MAX_RAD)
    region = sweep_t_junction(args.d, reach, phi_max)
    _emit({"sector_deg": region.sector_measure_deg,
           "free_margin_deg": region.free_margin_deg,
           "failure_probability": failure_probability(region),
           "arcs": [list(arc) for arc in region.forbidden_arcs]})
    return 0


def _cmd_plan(args) -> int:
    geom = _geometry_from_args(args)
    cfg = _planner_config(args)
    net = _load_network_file(args.network)
    steps = plan_mission(net, args.theta5, cfg, geom,
                         with_holonomic=not args.no_holonomic)
    text = plan_to_json(steps)
    _write(Path(args.out) / "plan.json", text)
    print(text)
    return 0


def _cmd_simulate(args) -> int:
    geom = _geometry_from_args(args)
    cfg = _planner_config(args)
    net = _load_network_file(args.network)
    steps = plan_mission(net, args.theta5, cfg, geom,
                         with_holonomic=not args.no_holonomic)
    outcome, records = run_mission(net, steps, cfg, geom,
                                   theta5_deg=args.theta5, dt=args.dt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(records, out / "trajectory.csv")
    text = outcome_to_json(outcome)
    _write(out / "outcome.json", text)
    print(text)
    return 0 if outcome.success else _EXIT_SIM


def _cmd_montecarlo(args) -> int:
    geom = _geometry_from_args(args)
    cfg = _planner_config(args)
    net = _load_network_file(args.network)
    result = monte_carlo_tee(net, cfg, geom, trials=args.trials,
                             seed=_seed_from(args),
                             with_holonomic=not args.no_holonomic)
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2)
    _write(Path(args.out) / "stats.json", text)
    print(text)
    return 0


def _fk_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cmd", required=True,
                   help="th1,th2,th3,th4 motor rates (rad/s)")
    _add_geometry_args(p)


def _ik_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--twist", required=True,
                   help="wx,wy,wz (rad/s), vcz (mm/s)")
    _add_geometry_args(p)


def _sector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=float, default=160.0,
                   help="bore diameter, mm")
    p.add_argument("--reach", type=float, default=None,
                   help="module reach, mm (default: geometry reach_max)")
    p.add_argument("--phi-max-deg", type=float, default=None)
    _add_geometry_args(p)


def _mission_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, metavar="FILE")
    p.add_argument("--theta5", type=float, default=0.0,
                   help="initial roll relative to the first turn, deg")
    p.add_argument("--out", default=".", help="output directory")


def _plan_args(p: argparse.ArgumentParser) -> None:
    _mission_args(p)
    _add_geometry_args(p)
    _add_planner_args(p)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    _mission_args(p)
    p.add_argument("--dt", type=float, default=DEFAULT_DT_S,
                   help="integration substep, s")
    _add_geometry_args(p)
    _add_planner_args(p)


def _montecarlo_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, metavar="FILE")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: OMNIPIPE_SEED or 0)")
    p.add_argument("--out", default=".", help="output directory")
    _add_geometry_args(p)
    _add_planner_args(p)


# name -> (help, arguments, command), in the order usage lists them
_SUBCOMMANDS = {
    "fk": ("forward kinematics: motor rates to twist", _fk_args, _cmd_fk),
    "ik": ("inverse kinematics: twist to motor rates", _ik_args, _cmd_ik),
    "sector": ("singularity sector report for a tee", _sector_args,
               _cmd_sector),
    "plan": ("write a mission plan for a network", _plan_args, _cmd_plan),
    "simulate": ("plan and simulate a mission", _simulate_args,
                 _cmd_simulate),
    "montecarlo": ("success statistics over random initial rolls",
                   _montecarlo_args, _cmd_montecarlo),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``omnipipe`` parser, every subparser's arguments added unless
    ``command`` names a subcommand: then only that subparser gets them.

    argparse hands the arguments after a subcommand name to that
    subparser alone, and the top-level usage, help and errors read only
    the subcommands' names and help strings, so parsing an argv that
    starts with ``command`` gives the same result and the same messages
    with either tree.
    """
    parser = argparse.ArgumentParser(
        prog="omnipipe",
        description="Kinematics, singularity analysis and mission "
                    "simulation for a three-module in-pipe robot.")
    sub = parser.add_subparsers(dest="command", required=True)
    populate_all = command not in _SUBCOMMANDS
    for name, (helptext, add_arguments, func) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if populate_all or name == command:
            add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NetworkValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_PARSE
    except (InvalidGeometryError, InvalidSectionError, PlanError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_GEOMETRY
    except (InsufficientReachError, NoEscapeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_REACH
    except SimulationError as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_SIM
    except OSError as e:
        # input files are read where their errors get typed, so this is
        # an output: e.g. an --out that names a regular file
        print(f"error: cannot write the output: {e}", file=sys.stderr)
        return _EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
