import argparse
import copy
import hashlib
import importlib.metadata
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omnipipe
from omnipipe import (CommandVector, PipeNetwork, elbow, forward_kinematics,
                      network_to_json, straight, tee)
from omnipipe import cli
from omnipipe.cli import main
from omnipipe.sim import DEFAULT_DT_S, MAX_TRIALS, run_mission

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture
def net_file(tee_net, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(network_to_json(tee_net))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- kinematics queries ----------------------------------------------------------

def test_fk_matches_library(capsys, geom):
    code, out, _ = run_cli(capsys, "fk", "--cmd", "1,2,3,0.5")
    assert code == 0
    doc = json.loads(out)
    twist = forward_kinematics(CommandVector(1.0, 2.0, 3.0, 0.5), geom)
    assert doc == {"wx": twist.omega_x, "wy": twist.omega_y,
                   "wz": twist.omega_z, "vcz": twist.v_cz}


def test_fk_overflow_prints_only_the_typed_error():
    # numpy's overflow warnings would land on stderr before the error
    proc = run_console_script("fk", "--cmd", "1e308,-1e308,1e308,0")
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: v_cz must be finite\n"


_WIDE_LUGS = ["--r", "1e300", "--l", "1e-10", "--reach-min", "1e-10",
              "--reach-max", "1"]


def test_fk_rejects_a_geometry_whose_jacobian_overflows(capsys):
    # r / (a + l) = 1e300 / 1.5e-10 mm is past the float range
    code, out, err = run_cli(capsys, "fk", "--cmd", "1,1,1,0", *_WIDE_LUGS)
    assert code == 3 and out == ""
    assert err.startswith("error: the Jacobian is not finite")
    # the inverse's scalars, (a + l) / r and 1 / r, are finite
    code, out, _ = run_cli(capsys, "ik", "--twist", "1,1,1,0", *_WIDE_LUGS)
    assert code == 0
    assert json.loads(out)["th4"] == 1.0


def test_ik_round_trips_fk(capsys):
    code, out, _ = run_cli(capsys, "fk", "--cmd", "1.5,-2.0,0.25,0.1")
    twist = json.loads(out)
    code, out, _ = run_cli(
        capsys, "ik", "--twist",
        f"{twist['wx']},{twist['wy']},{twist['wz']},{twist['vcz']}")
    assert code == 0
    rates = json.loads(out)
    assert rates["th1"] == pytest.approx(1.5, abs=1e-12)
    assert rates["th2"] == pytest.approx(-2.0, abs=1e-12)
    assert rates["th3"] == pytest.approx(0.25, abs=1e-12)
    assert rates["th4"] == pytest.approx(0.1, abs=1e-12)


def test_geometry_flags_change_the_map(capsys):
    _, base, _ = run_cli(capsys, "fk", "--cmd", "1,1,1,0")
    _, scaled, _ = run_cli(capsys, "fk", "--cmd", "1,1,1,0", "--r", "30")
    assert json.loads(scaled)["vcz"] == pytest.approx(
        2.0 * json.loads(base)["vcz"])


def test_geometry_file_and_override(capsys, tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"lug_radius_r": 30.0}))
    _, out, _ = run_cli(capsys, "fk", "--cmd", "1,1,1,0",
                        "--geometry", str(path))
    assert json.loads(out)["vcz"] == pytest.approx(30.0)
    _, out, _ = run_cli(capsys, "fk", "--cmd", "1,1,1,0",
                        "--geometry", str(path), "--r", "15")
    assert json.loads(out)["vcz"] == pytest.approx(15.0)


def test_geometry_file_rejects_unknown_field(capsys, tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"lug_radius": 30.0}))
    code, _, err = run_cli(capsys, "fk", "--cmd", "1,1,1,0",
                           "--geometry", str(path))
    assert code == 2
    assert "lug_radius" in err


def test_geometry_file_rejects_boolean_values(capsys, tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"lug_radius_r": True}))
    code, out, err = run_cli(capsys, "fk", "--cmd", "1,1,1,0",
                             "--geometry", str(path))
    assert code == 3
    assert out == ""
    assert "lug_radius_r" in err


# -- exit codes -------------------------------------------------------------------

def test_malformed_command_vector_exits_2(capsys):
    code, _, err = run_cli(capsys, "fk", "--cmd", "1,2,3")
    assert code == 2 and "4 comma-separated" in err
    code, _, _ = run_cli(capsys, "fk", "--cmd", "a,b,c,d")
    assert code == 2


def test_degenerate_geometry_exits_3(capsys):
    code, _, err = run_cli(capsys, "fk", "--cmd", "1,1,1,0", "--r", "0")
    assert code == 3 and err.startswith("error:")


def test_insufficient_reach_exits_4(capsys):
    for reach in ("30", "50"):
        code, _, err = run_cli(capsys, "sector", "--d", "160",
                               "--reach", reach)
        assert code == 4 and "reach" in err.lower()


@pytest.mark.parametrize("reach", ["-5", "0", "nan", "inf"])
def test_invalid_reach_exits_3(capsys, reach):
    code, out, err = run_cli(capsys, "sector", "--d", "160",
                             "--reach", reach)
    assert code == 3 and "reach_max" in err
    assert out == ""


def test_failed_mission_exits_5(capsys, net_file, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--network", str(net_file),
                           "--theta5", "0", "--no-holonomic",
                           "--out", str(tmp_path / "run"))
    assert code == 5
    doc = json.loads(out)
    assert doc["success"] is False
    assert doc["reason"] == "singularity"
    saved = json.loads((tmp_path / "run" / "outcome.json").read_text())
    assert saved == doc


@pytest.mark.parametrize("dt", ["1e-320", "1e-9", "0", "-0.01"])
def test_simulate_rejects_unbounded_substeps_exits_5(capsys, net_file,
                                                     tmp_path, dt):
    # the substep count is checked before integration, so no record of
    # the 10^10 (or, for 1e-320, overflowing) substeps is ever allocated
    code, out, err = run_cli(capsys, "simulate", "--network", str(net_file),
                             "--dt", dt, "--out", str(tmp_path / "run"))
    assert code == 5
    assert err.startswith("error: dt") and out == ""
    assert not (tmp_path / "run" / "trajectory.csv").exists()


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("flags, name", [
    (["--theta5=inf"], "theta5_deg"), (["--theta5=-inf"], "theta5_deg"),
    (["--theta5", "nan"], "theta5_deg"),
    (["--theta5", "0", "--rotate-rate", "nan"], "rotate_rate_rad_s"),
    (["--theta5", "0", "--rotate-rate", "inf"], "rotate_rate_rad_s")])
def test_non_finite_planner_input_exits_3(capsys, net_file, tmp_path,
                                          command, flags, name):
    code, out, err = run_cli(capsys, command, "--network", str(net_file),
                             *flags, "--out", str(tmp_path / "run"))
    assert code == 3
    assert err.startswith(f"error: {name} must be finite") and out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["plan", "simulate", "montecarlo"])
@pytest.mark.parametrize("speed", ["1e308", "1e-320"])
def test_out_of_range_speed_exits_3_naming_straight_speed(
        capsys, net_file, tmp_path, command, speed):
    # 1e308 overflows the tee turn rate, 1e-320 makes a drive step last
    # forever; both are valid floats that PlannerConfig accepts
    extra = (["--trials", "20"] if command == "montecarlo"
             else ["--theta5", "76.435"])
    code, out, err = run_cli(capsys, command, "--network", str(net_file),
                             "--speed", speed, *extra,
                             "--out", str(tmp_path / "run"))
    assert code == 3
    assert err.startswith(f"error: straight_speed {float(speed)!r} mm/s is "
                          f"out of range") and out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("phi, shown", [("1e308", "1e+308"), ("90", "90.0"),
                                        ("-1", "-1.0")])
def test_out_of_range_tilt_exits_3_with_a_short_message(capsys, net_file,
                                                        tmp_path, phi, shown):
    code, out, err = run_cli(capsys, "plan", "--network", str(net_file),
                             "--phi-max-deg", phi,
                             "--out", str(tmp_path / "run"))
    assert (code, out) == (3, "")
    assert err == f"error: tilt must lie in [0, 90 deg), got {shown} deg\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["plan", "simulate", "montecarlo"])
def test_out_of_range_rotate_rate_exits_3_naming_it(capsys, net_file,
                                                    tmp_path, command):
    # at 1e-320 rad/s the escape roll's duration overflows to inf
    extra = ["--trials", "20"] if command == "montecarlo" else []
    code, out, err = run_cli(capsys, command, "--network", str(net_file),
                             "--rotate-rate", "1e-320", *extra,
                             "--out", str(tmp_path / "run"))
    assert code == 3
    assert err.startswith("error: rotate rate 1e-320 rad/s is out of "
                          "range: it gives a roll duration of inf s")
    assert out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, written", [
    ("plan", "plan.json"), ("simulate", "trajectory.csv"),
    ("montecarlo", "stats.json")])
def test_out_that_cannot_be_written_exits_2_naming_it(
        capsys, net_file, tmp_path, command, written):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    (tmp_path / "run" / written).mkdir(parents=True)
    extra = ["--trials", "20"] if command == "montecarlo" else []
    # --out names a regular file, or its output file is a directory
    for out_dir, path in ((taken, taken), (tmp_path / "run",
                                           tmp_path / "run" / written)):
        code, out, err = run_cli(capsys, command, "--network",
                                 str(net_file), *extra, "--out",
                                 str(out_dir))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write the output: ")
        assert repr(str(path)) in err and err.count("\n") == 1
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("dt", ["0.01", "1e-3"])
def test_simulate_integrates_steps_shorter_than_a_femtosecond(
        capsys, net_file, tmp_path, dt):
    # at 1e300 mm/s every drive and turn step lasts ~1e-298 s, one substep
    code, out, _ = run_cli(capsys, "simulate", "--network", str(net_file),
                           "--speed", "1e300", "--dt", dt,
                           "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["reason"] == "completed"


def test_invalid_network_document_exits_2(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"segments": [
        {"kind": "straight", "D_mm": 160.0, "length_mm": 500.0,
         "color": "red"}]}))
    code, _, err = run_cli(capsys, "plan", "--network", str(path),
                           "--out", str(tmp_path))
    assert code == 2
    assert "color" in err


def test_missing_network_file_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "plan",
                         "--network", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path))
    assert code == 2


# -- sector report ------------------------------------------------------------------

def test_sector_report_shape(capsys):
    code, out, _ = run_cli(capsys, "sector")
    assert code == 0
    doc = json.loads(out)
    assert doc["sector_deg"] == pytest.approx(96.54, abs=0.01)
    assert doc["free_margin_deg"] == pytest.approx(11.73, abs=0.01)
    assert doc["failure_probability"] == pytest.approx(0.8045, abs=0.0005)
    # two opposite arcs of half-width w fold onto a 4w sector, so the raw
    # arc measure equals the folded sector measure
    total = sum(hi - lo for lo, hi in doc["arcs"])
    assert total == pytest.approx(doc["sector_deg"], abs=1e-9)


def test_sector_without_contact_loss_reports_float_zero(capsys):
    # at D = 80 the reference reach covers the whole tilted section
    code, out, _ = run_cli(capsys, "sector", "--d", "80")
    assert code == 0
    assert '"sector_deg": 0.0\n' in out
    assert json.loads(out) == {"arcs": [], "failure_probability": 0.0,
                               "free_margin_deg": 60.0, "sector_deg": 0.0}


@pytest.mark.parametrize("d", ["inf", "nan", "-inf"])
def test_sector_rejects_a_non_finite_bore(capsys, d):
    code, out, err = run_cli(capsys, "sector", f"--d={d}")
    assert code == 3
    assert out == ""
    assert err == f"error: diameter must be finite and > 0, got {d}\n"


# -- file-producing commands ----------------------------------------------------------

def test_plan_writes_valid_plan(capsys, net_file, tmp_path):
    out_dir = tmp_path / "plans"
    code, out, _ = run_cli(capsys, "plan", "--network", str(net_file),
                           "--theta5", "30", "--out", str(out_dir))
    assert code == 0
    on_disk = (out_dir / "plan.json").read_text()
    assert json.loads(on_disk) == json.loads(out)
    steps = json.loads(on_disk)["steps"]
    assert steps and all("command" in s and "duration_s" in s
                         for s in steps)


def test_plan_without_holonomic_does_not_roll_at_an_elbow(capsys, tmp_path):
    net = tmp_path / "elbow.json"
    net.write_text(network_to_json(PipeNetwork((
        straight(160.0, 300.0), elbow(160.0, 240.0, 90.0),
        straight(160.0, 300.0)))))
    for flags, kinds in (([], ["drive", "holonomic_rotate", "turn_elbow",
                                "drive"]),
                         (["--no-holonomic"], ["drive", "turn_elbow",
                                               "drive"])):
        code, out, _ = run_cli(capsys, "plan", "--network", str(net),
                               "--theta5", "40", "--out", str(tmp_path),
                               *flags)
        assert code == 0
        assert [s["kind"] for s in json.loads(out)["steps"]] == kinds


def test_simulate_writes_trajectory_and_outcome(capsys, net_file, tmp_path):
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "simulate", "--network", str(net_file),
                         "--theta5", "30", "--out", str(out_dir))
    assert code == 0
    csv_lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == ("time_s,segment,s_mm,theta5_deg,th1,th2,th3,th4,"
                            "wx,wy,wz,vcz,sign1,sign2,sign3,singular,event")
    assert len(csv_lines) > 10
    doc = json.loads((out_dir / "outcome.json").read_text())
    assert doc["success"] is True


def test_simulate_reruns_are_byte_identical(capsys, net_file, tmp_path):
    blobs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "simulate", "--network", str(net_file),
                             "--theta5", "41", "--out", str(out_dir))
        assert code == 0
        blobs.append(((out_dir / "trajectory.csv").read_bytes(),
                      (out_dir / "outcome.json").read_bytes()))
    assert blobs[0] == blobs[1]


# SHA-256 of trajectory.csv from `simulate --dt 0.01` on the acceptance
# tee.  Kinematics and planning run on Python floats, so the bits depend
# on IEEE arithmetic and the C library's sin, cos, asin and atan only.
_TEE_TRAJECTORY_SHA256 = {
    "17": "42af5e63e29e0e3c85c79630f1c6693f5773d11f3837d3ff28edea84cd256b57",
    "30": "91b9e5cb67a08a32584ab5be4c24e6fb2c6e2b9c13080341fc699e750d650b37",
}


@pytest.mark.parametrize("theta5", sorted(_TEE_TRAJECTORY_SHA256))
def test_acceptance_tee_trajectory_has_the_pinned_bits(capsys, net_file,
                                                       tmp_path, theta5):
    code, _, _ = run_cli(capsys, "simulate", "--network", str(net_file),
                         "--theta5", theta5, "--dt", "0.01",
                         "--out", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes())
    assert digest.hexdigest() == _TEE_TRAJECTORY_SHA256[theta5]


# SHA-256 of trajectory.csv from `simulate --theta5 17 --dt 0.01` on a
# network with two elbows and a branch tee: with the escape the robot
# rolls before each turn, and the rolls cross a drive line and wrap
# theta5.
_TWO_ELBOW_TRAJECTORY_SHA256 = (
    "6a368e62f2349533e4415f0bd66f6c7a8e08e0016019b04dce63b546cb82704e")


def test_two_elbow_trajectory_has_the_pinned_bits(capsys, tmp_path):
    d = 160.0
    net = PipeNetwork((straight(d, 400.0), elbow(d, 320.0, 90.0, 40.0),
                       straight(d, 300.0), tee(d, 100.0), straight(d, 300.0),
                       elbow(d, 400.0, 45.0, 200.0), straight(d, 300.0)))
    path = tmp_path / "net.json"
    path.write_text(network_to_json(net))
    code, _, _ = run_cli(capsys, "simulate", "--network", str(path),
                         "--theta5", "17", "--dt", "0.01",
                         "--out", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes())
    assert digest.hexdigest() == _TWO_ELBOW_TRAJECTORY_SHA256


def _dynamic_arch_openblas() -> str | None:
    """Why numpy's BLAS cannot switch kernels by environment, or None."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return "numpy.show_config has no dicts mode before numpy 1.25"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return (f"numpy's BLAS ({blas.get('name', 'unknown')}) is not an "
                f"OpenBLAS built with DYNAMIC_ARCH")
    return None


_NO_KERNEL_SWITCH = _dynamic_arch_openblas()


@pytest.mark.skipif(_NO_KERNEL_SWITCH is not None,
                    reason=str(_NO_KERNEL_SWITCH))
def test_outputs_do_not_depend_on_the_blas_kernel(net_file, tmp_path,
                                                  monkeypatch):
    # OPENBLAS_CORETYPE makes a DYNAMIC_ARCH OpenBLAS pick another CPU
    # kernel for the whole process, as another host would
    files = []
    for coretype in (None, "Prescott"):
        if coretype is None:
            monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        out = tmp_path / str(coretype)
        argvs = [[command, "--network", str(net_file), "--theta5", theta5,
                  "--out", str(out / theta5)]
                 + (["--dt", "0.01"] if command == "simulate" else [])
                 for theta5 in ("17", "30") for command in ("plan", "simulate")]
        proc = run_fresh_python(
            "import json, sys; from omnipipe.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))",
            json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr.decode()
        files.append({path.relative_to(out): path.read_bytes()
                      for path in sorted(out.glob("*/*"))
                      if path.name in ("plan.json", "trajectory.csv")})
    assert len(files[0]) == 4
    assert files[0] == files[1]


def test_simulate_near_60_deg_alignment_roll_completes(capsys, tmp_path):
    # the second elbow's alignment roll lands on the no-motion line close
    # to 60 deg; the nudge off the line must not push it past 60 deg
    elbows = [{"kind": "elbow", "D_mm": 160, "bend_radius_mm": 320,
               "bend_angle_deg": 90, "turn_plane_roll_deg": roll}
              for roll in (0, 60)]
    run = {"kind": "straight", "D_mm": 160, "length_mm": 300}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(
        {"segments": [run, elbows[0], run, elbows[1], run]}))
    code, out, err = run_cli(capsys, "simulate", "--network", str(path),
                             "--theta5", "37.4", "--out", str(tmp_path))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["success"] is True
    assert doc["reason"] == "completed"


def test_montecarlo_writes_stats(capsys, net_file, tmp_path):
    code, out, _ = run_cli(capsys, "montecarlo", "--network", str(net_file),
                           "--trials", "50", "--seed", "9",
                           "--no-holonomic", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "stats.json").read_text())
    assert doc == json.loads(out)
    assert doc["trials"] == 50
    assert doc["seed"] == 9
    assert 0.0 <= doc["success_rate"] <= 1.0
    assert doc["with_holonomic"] is False


def test_montecarlo_seed_env_fallback(capsys, net_file, tmp_path,
                                      monkeypatch):
    monkeypatch.setenv("OMNIPIPE_SEED", "123")
    code, out, _ = run_cli(capsys, "montecarlo", "--network", str(net_file),
                           "--trials", "20", "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["seed"] == 123


def test_montecarlo_rejects_a_negative_seed_exits_2(capsys, net_file,
                                                   tmp_path):
    code, out, err = run_cli(capsys, "montecarlo", "--network", str(net_file),
                             "--trials", "20", "--seed", "-3",
                             "--out", str(tmp_path))
    assert (code, out, err) == (2, "", "error: seed must be >= 0, got -3\n")
    assert not (tmp_path / "stats.json").exists()


def test_montecarlo_names_a_seed_variable_that_is_not_an_integer_exits_2(
        capsys, net_file, tmp_path, monkeypatch):
    monkeypatch.setenv("OMNIPIPE_SEED", "abc")
    code, out, err = run_cli(capsys, "montecarlo", "--network", str(net_file),
                             "--trials", "20", "--out", str(tmp_path))
    assert (code, out, err) == (
        2, "", "error: OMNIPIPE_SEED must be an integer, got 'abc'\n")
    assert not (tmp_path / "stats.json").exists()


@pytest.mark.parametrize("trials", [str(MAX_TRIALS + 1), "1" + "0" * 30])
def test_montecarlo_rejects_trials_above_the_limit_exits_2(
        capsys, net_file, tmp_path, trials):
    code, out, err = run_cli(capsys, "montecarlo", "--network", str(net_file),
                             "--trials", trials, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err == (f"error: trials must be <= MAX_TRIALS = {MAX_TRIALS}, "
                   f"got {trials}\n")
    assert not (tmp_path / "stats.json").exists()


def test_montecarlo_writes_nothing_to_stderr_by_default(net_file, tmp_path):
    # the success-set path logs at DEBUG only; a plain run stays silent
    for extra in (["--no-holonomic"], []):
        proc = run_fresh_python(
            "import sys; from omnipipe.cli import main; sys.exit(main())",
            "montecarlo", "--network", str(net_file), "--trials", "50",
            "--out", str(tmp_path), *extra)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b""


def test_main_carries_no_state_between_calls(capsys, net_file, tmp_path):
    args = ("simulate", "--network", str(net_file), "--theta5", "30")
    code, _, _ = run_cli(capsys, *args, "--dt", "0.02",
                         "--out", str(tmp_path / "dt"))
    assert code == 0
    with pytest.raises(SystemExit) as exit_info:
        main([*args, "--bogus"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: omnipipe")
    assert "unrecognized arguments: --bogus" in err
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "default"))
    assert code == 0
    # each call wrote what a fresh process writes for the same arguments
    for name, flags in (("dt", ("--dt", "0.02")), ("default", ())):
        proc = run_console_script(*args, *flags,
                                  "--out", str(tmp_path / f"fresh-{name}"))
        assert proc.returncode == 0, proc.stderr.decode()
        for output in ("trajectory.csv", "outcome.json"):
            assert ((tmp_path / name / output).read_bytes()
                    == (tmp_path / f"fresh-{name}" / output).read_bytes())


# -- the per-call parser ------------------------------------------------------

_SUBCOMMAND_NAMES = ("fk", "ik", "sector", "plan", "simulate", "montecarlo")
_PARSE_CASES = [[name, "-h"] for name in _SUBCOMMAND_NAMES] + [
    ["-h"], ["--help"], [], ["bogus"], ["--", "sector"], ["-h", "sector"],
    ["simulate"], ["sector", "--bogus"], ["sector", "--d", "abc"],
    ["sector", "--di", "3"], ["simulate", "--d", "1"], ["plan", "--network"],
    ["montecarlo", "--trials", "1.5", "--network", "absent.json"],
    ["fk", "--cmd", "1,1,1,0", "extra"], ["fk", "--cmd", "1,1,1,0"],
    ["sector", "--d", "200", "--phi-max-deg", "30"],
]


def _exit_and_output(capsys, argv) -> tuple:
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_per_call_parser_prints_what_the_full_parser_prints(
        capsys, monkeypatch, argv):
    got = _exit_and_output(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert _exit_and_output(capsys, argv) == got


def _subparser(parser: argparse.ArgumentParser,
               name: str) -> argparse.ArgumentParser:
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
                ).choices[name]


def test_main_adds_only_the_invoked_subcommands_arguments(capsys,
                                                          monkeypatch):
    sector = _subparser(cli.build_parser(), "sector")
    want = sorted(action.option_strings for action in sector._actions)
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        added.append(list(args))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    code, out, _ = run_cli(capsys, "sector", "--d", "200")
    assert code == 0 and json.loads(out)["sector_deg"] > 0.0
    # every parser adds its own -h: the top parser and six subparsers
    helps = [args for args in added if args[0] == "-h"]
    assert len(helps) == 1 + len(_SUBCOMMAND_NAMES)
    assert sorted(args for args in added if args[0] != "-h") == [
        args for args in want if args[0] != "-h"]


def test_simulate_and_run_mission_share_one_default_substep():
    assert DEFAULT_DT_S == 0.01
    default = inspect.signature(run_mission).parameters["dt"].default
    args = cli.build_parser("simulate").parse_args(
        ["simulate", "--network", "net.json"])
    assert default is args.dt is DEFAULT_DT_S


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["sector", "--d", "200"]
    want = run_cli(capsys, *argv)
    commands = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None:
                        commands.append(command) or build(command))
    monkeypatch.setattr(sys, "argv", ["omnipipe", *argv])
    code = main()
    out = capsys.readouterr()
    assert (code, out.out, out.err) == want
    assert commands == ["sector"]


_EXTREMES = ["0", "-0", "inf", "-inf", "nan", "1e308", "-1e308", "1e-308",
             "-1e-308", "1e-320", "-1e-320", "-1", "-45.5"]
_FLAGS = {
    "plan": ["--speed", "--trigger-fraction", "--deadband", "--rotate-rate",
             "--theta5"],
    "simulate": ["--speed", "--trigger-fraction", "--deadband",
                 "--rotate-rate", "--theta5", "--dt"],
    "montecarlo": ["--speed", "--trigger-fraction", "--deadband",
                   "--rotate-rate"],
    "sector": ["--d", "--reach", "--phi-max-deg"],
}


@st.composite
def extreme_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    value = st.sampled_from(_EXTREMES) | st.floats().map(repr)
    argv = [command]
    for flag in _FLAGS[command]:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(value)}")
    if command == "montecarlo":
        # trial counts stay small; the draws are not what is under test
        argv.append(f"--trials={draw(st.integers(-1, 1000))}")
    if command != "sector" and draw(st.booleans()):
        argv.append("--no-holonomic")
    return argv


@settings(max_examples=150, deadline=None)
@given(extreme_argv())
@example(["sector", "--d=1e-300", "--phi-max-deg=89.999999",
          "--reach=1e-300"])
@example(["sector", "--d=1e308", "--phi-max-deg=89"])
def test_cli_ends_in_a_documented_exit_code_on_extreme_values(
        tmp_path_factory, argv):
    # every call ends in a documented exit code, never a traceback
    base = tmp_path_factory.getbasetemp() / "extreme-values"
    net = base / "net.json"
    if not net.exists():
        base.mkdir(exist_ok=True)
        net.write_text(network_to_json(PipeNetwork((
            straight(160.0, 500.0), tee(160.0), straight(160.0, 300.0)))))
    if argv[0] != "sector":
        argv += ["--network", str(net), "--out", str(base / "out")]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code in (0, 2, 3, 4, 5)


# what a JSON input file may hold where a number belongs: extremes,
# plain numbers, wrong types and nesting
_ODD_VALUES = (
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308,
                     1e-320, -1e-320, 0, -0.0, -1, 10 ** 400, True, None,
                     "", "160", [], {}, [160.0], {"D_mm": 160.0},
                     [[[[160.0]]]]]).map(copy.deepcopy)
    | st.floats(min_value=-1e4, max_value=1e4))
_SEGMENT_KEYS = ("kind", "D_mm", "length_mm", "bend_radius_mm",
                 "bend_angle_deg", "turn_plane_roll_deg", "branch_roll_deg",
                 "exit", "equivalent_radius_mm", "radius_mm")
_ANGLES = st.floats(min_value=-360.0, max_value=360.0)


def _root(draw, doc: dict):
    """Mostly ``doc`` itself, at times wrapped in a list or replaced."""
    shape = draw(st.integers(0, 7))
    return doc if shape < 6 else [doc] if shape == 6 else draw(_ODD_VALUES)


def _valid_segment(draw, kind: str, d: float) -> dict:
    if kind == "straight":
        return {"kind": kind, "D_mm": d,
                "length_mm": draw(st.floats(min_value=1.0, max_value=1e3))}
    if kind == "elbow":
        return {"kind": kind, "D_mm": d,
                "bend_radius_mm": draw(st.floats(min_value=0.5 * d,
                                                 max_value=4.0 * d)),
                "bend_angle_deg": draw(st.floats(min_value=1.0,
                                                 max_value=180.0)),
                "turn_plane_roll_deg": draw(_ANGLES)}
    return {"kind": kind, "D_mm": d, "branch_roll_deg": draw(_ANGLES),
            "exit": draw(st.sampled_from(["branch", "through"]))}


@st.composite
def network_documents(draw):
    """A valid network with up to three edits that may break it."""
    d = draw(st.sampled_from([80.0, 160.0, 400.0]))
    kinds = st.sampled_from(["straight", "elbow", "tee"])
    segments = [_valid_segment(draw, kind, d)
                for kind in draw(st.lists(kinds, min_size=1, max_size=4))]
    doc = {"segments": segments}
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["set", "set", "drop", "segment",
                                     "top-level"]))
        i = draw(st.integers(0, len(segments) - 1))
        segment = segments[i]
        if edit == "set" and isinstance(segment, dict):
            key = draw(st.sampled_from(_SEGMENT_KEYS))
            segment[key] = draw(
                st.sampled_from(["straight", "elbow", "tee", "bend",
                                 ["straight"], "branch", "up"])
                if key in ("kind", "exit") else _ODD_VALUES)
        elif edit == "drop" and isinstance(segment, dict) and segment:
            del segment[draw(st.sampled_from(sorted(segment)))]
        elif edit == "segment":
            segments[i] = draw(_ODD_VALUES)
        else:
            doc[draw(st.sampled_from(["notes", "segments"]))] = draw(
                _ODD_VALUES)
    return _root(draw, doc)


@st.composite
def geometry_documents(draw):
    """Some reference geometry fields, up to two of them replaced."""
    reference = {"lug_radius_r": 15.0, "arm_length_l": 60.0,
                 "a_offset": 30.0, "reach_min": 40.0, "reach_max": 90.0,
                 "module_outer_radius": 20.0}
    doc = {key: value for key, value in reference.items()
           if draw(st.booleans())}
    keys = st.sampled_from(sorted(reference) + ["lug_radius"])
    for _ in range(draw(st.integers(0, 2))):
        doc[draw(keys)] = draw(_ODD_VALUES)
    return _root(draw, doc)


def run_on_file(tmp_path_factory, name: str, text: str, argv: list) -> int:
    base = tmp_path_factory.getbasetemp() / "input-files"
    base.mkdir(exist_ok=True)
    (base / name).write_text(text)
    try:
        return main([*argv, str(base / name)])
    except SystemExit as e:
        return e.code


_DEEP = "[" * 100_000
_LIST_KIND = json.dumps({"segments": [
    {"kind": ["straight"], "D_mm": 160.0, "length_mm": 500.0}]})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["plan", "simulate", "montecarlo"]), st.booleans(),
       network_documents().map(json.dumps))
@example("simulate", False, _LIST_KIND)
@example("simulate", False, _DEEP)
@example("montecarlo", True, _DEEP)
def test_cli_ends_in_a_documented_exit_code_on_any_network_file(
        tmp_path_factory, command, no_holonomic, text):
    # a coarse dt and few trials keep the work per example small
    argv = [command, "--out",
            str(tmp_path_factory.getbasetemp() / "input-files-out")]
    argv += {"plan": [], "simulate": ["--dt", "0.5"],
             "montecarlo": ["--trials", "20"]}[command]
    if no_holonomic:
        argv.append("--no-holonomic")
    code = run_on_file(tmp_path_factory, "net.json", text,
                       [*argv, "--network"])
    assert code in (0, 2, 3, 4, 5)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([["fk", "--cmd", "1,2,3,0.5"], ["sector"]]),
       geometry_documents().map(json.dumps))
@example(["fk", "--cmd", "1,2,3,0.5"], _DEEP)
@example(["sector"], _DEEP)
def test_cli_ends_in_a_documented_exit_code_on_any_geometry_file(
        tmp_path_factory, argv, text):
    code = run_on_file(tmp_path_factory, "geom.json", text,
                       [*argv, "--geometry"])
    assert code in (0, 2, 3, 4, 5)


_SIMULATE = ["simulate", "--out", "out", "--network"]
_FK = ["fk", "--cmd", "1,1,1,0", "--geometry"]


@pytest.mark.parametrize("argv, name, text, exit_code", [
    (_SIMULATE, "net.json", _LIST_KIND, 2),
    (_SIMULATE, "net.json", _DEEP, 2),
    (_FK, "geom.json", _DEEP, 2),
    (_SIMULATE, "net.json", json.dumps({"segments": [
        {"kind": "straight", "D_mm": 10 ** 400, "length_mm": 5.0}]}), 2),
    (_FK, "geom.json", json.dumps({"lug_radius_r": 10 ** 400}), 3),
    (_FK, "geom.json", json.dumps({"arm_length_l": "60"}), 3),
], ids=["list-kind", "deep-network", "deep-geometry", "huge-int-network",
        "huge-int-geometry", "string-arm-length"])
def test_malformed_input_file_ends_in_a_typed_error(
        capsys, tmp_path, monkeypatch, argv, name, text, exit_code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, *argv, name)
    assert code == exit_code and out == ""
    assert err.startswith("error: ")


def _declared_console_script() -> str:
    """The ``omnipipe`` target that ``pyproject.toml`` declares."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"]["omnipipe"]


def run_console_script(*argv) -> subprocess.CompletedProcess:
    """Run the declared entry point as the generated script would.

    The child imports the same ``omnipipe`` package as this test, sets
    ``sys.argv[0]`` and exits with whatever ``main()`` returns, so both
    the reading of ``sys.argv`` and the exit status are under test.
    """
    entry = importlib.metadata.EntryPoint(
        name="omnipipe", value=_declared_console_script(),
        group="console_scripts")
    assert entry.load() is main
    script = (f"import sys; from {entry.module} import {entry.attr} as main; "
              "sys.argv[0] = 'omnipipe'; sys.exit(main())")
    return run_fresh_python(script, *argv)


def run_fresh_python(script: str, *argv) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this ``omnipipe``."""
    package_root = str(Path(omnipipe.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, env=env)


def test_import_does_not_load_scipy():
    proc = run_fresh_python(
        "import sys, omnipipe, omnipipe.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


def test_console_script_is_installed():
    proc = run_console_script("fk", "--cmd", "1,1,1,0")
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["vcz"] == pytest.approx(15.0)

    proc = run_console_script("fk", "--cmd", "1,2,3")
    assert proc.returncode == 2
    assert "4 comma-separated" in proc.stderr.decode()


@pytest.mark.skipif(shutil.which("omnipipe") is None,
                    reason="no `omnipipe` executable on PATH")
def test_installed_executable_matches_entry_point():
    argv = ("fk", "--cmd", "1,1,1,0")
    proc = subprocess.run([shutil.which("omnipipe"), *argv],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == run_console_script(*argv).stdout
