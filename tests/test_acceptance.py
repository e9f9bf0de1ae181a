"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Each test wraps its assertions in the ``criterion`` context manager so the
run ends with a visible PASS/FAIL line per criterion.  Tolerances and
runtime budgets are part of the contract and must not be loosened.
"""

import json
import math
import time

import numpy as np
import pytest

from omnipipe import (REFERENCE_GEOMETRY, CommandVector, EllipseSection,
                      MissionStep, ModuleVelocities, PipeNetwork,
                      PlannerConfig, SimState, StepKind,
                      calibrate_reach_for_sector, center_velocity,
                      contact_loss_arcs, failure_probability,
                      forward_kinematics, inverse_kinematics,
                      module_linear_velocities, module_path_radii,
                      module_positions, monte_carlo_tee, plan_mission,
                      radius_of_curvature, run_mission, step, straight,
                      sweep_t_junction, tee)
from omnipipe import DEFAULT_PHI_MAX_RAD, RatioMode, elbow
from omnipipe.cli import main as cli_main

from conftest import criterion

GEOM = REFERENCE_GEOMETRY
CFG = PlannerConfig()
TEE_NET = PipeNetwork((straight(160.0, 500.0), tee(160.0),
                       straight(160.0, 300.0)))
DRIVE = CommandVector(100.0 / 15.0, 100.0 / 15.0, 100.0 / 15.0, 0.0)


def test_criterion_1_jacobian_scalar_agreement():
    with criterion(1, "forward map matches scalar form to 1e-12 on 1e4 "
                      "random commands, IK round-trip < 1e-9, < 1 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        rates = rng.uniform(-50.0, 50.0, size=(10_000, 4))
        r, l = GEOM.lug_radius_r, GEOM.arm_length_l
        for th in rates:
            twist = forward_kinematics(CommandVector(*th), GEOM)
            wx = math.sqrt(3.0) * r / (3.0 * l) * (th[2] - th[1])
            wy = r / (3.0 * l) * (-2.0 * th[0] + th[1] + th[2])
            vcz = r / 3.0 * (th[0] + th[1] + th[2])
            assert twist.omega_x == pytest.approx(wx, rel=1e-12, abs=1e-12)
            assert twist.omega_y == pytest.approx(wy, rel=1e-12, abs=1e-12)
            assert twist.omega_z == pytest.approx(th[3], rel=1e-12)
            assert twist.v_cz == pytest.approx(vcz, rel=1e-12, abs=1e-12)
            back = inverse_kinematics(twist, GEOM)
            assert np.max(np.abs(back.as_array() - th)) < 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f} s"


def test_criterion_2_straight_drive_invariant():
    with criterion(2, "equal drive rates give bit-exact zero wobble and "
                      "infinite curvature radius"):
        for rate in (0.001, 1.0, 7.25, 123.456, -3.0):
            cmd = CommandVector(rate, rate, rate, 0.0)
            twist = forward_kinematics(cmd, GEOM)
            assert twist.omega_x == 0.0
            assert twist.omega_y == 0.0
            mv = module_linear_velocities(cmd, GEOM)
            assert radius_of_curvature(mv, twist) == math.inf


def test_criterion_3_spin_transform_cancellation():
    with criterion(3, "equal arms: planar center velocity < 1e-12 over 1e3 "
                      "random samples; unequal arms match the cross-product "
                      "oracle"):
        rng = np.random.default_rng(3)
        for v, th4 in rng.uniform([-200.0, -3.0], [200.0, 3.0],
                                  size=(1_000, 2)):
            cmd = CommandVector(v / GEOM.lug_radius_r,
                                v / GEOM.lug_radius_r,
                                v / GEOM.lug_radius_r, th4)
            mv = module_linear_velocities(cmd, GEOM)
            vel = center_velocity(mv, th4)
            assert abs(vel[0]) < 1e-12
            assert abs(vel[1]) < 1e-12
            assert vel[2] == pytest.approx(v, rel=1e-12, abs=1e-12)
        # unequal arm extensions: residual equals mean of w x p_i
        mv = ModuleVelocities(60.0, 60.0, 60.0, 60.0, 55.0, 50.0)
        th4 = 1.5
        got = center_velocity(mv, th4)
        w = np.array([0.0, 0.0, th4])
        expect = sum(np.array([0.0, 0.0, s]) + np.cross(w, p)
                     for s, p in zip(mv.speeds, module_positions(mv))) / 3.0
        assert got == pytest.approx(expect, rel=1e-12)
        assert np.hypot(got[0], got[1]) > 1.0


def test_criterion_4_bend_radii_identities():
    with criterion(4, "bend path radii sum to 4.5 D to 1e-12 over a 0.1 deg "
                      "grid and split 1:1.75:1.75 at roll 0"):
        seg = elbow(160.0, 240.0, 90.0)
        for theta5 in np.arange(0.0, 360.0, 0.1):
            radii = module_path_radii(seg, float(theta5),
                                      RatioMode.FIXED_RATIO)
            assert sum(radii) == pytest.approx(4.5 * 160.0, rel=1e-12)
        r1, r2, r3 = module_path_radii(seg, 0.0, RatioMode.FIXED_RATIO)
        assert r2 / r1 == pytest.approx(1.75, rel=1e-12)
        assert r3 / r1 == pytest.approx(1.75, rel=1e-12)


def test_criterion_5_contact_loss_arcs_vs_sampled_oracle():
    with criterion(5, "contact-loss arc endpoints within 0.01 deg of a "
                      "1e6-sample oracle on 100 random sections, worked "
                      "half-width 40.23 +- 0.01 deg, < 10 s"):
        t0 = time.perf_counter()
        n = 1_000_000
        psi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        cos2 = np.cos(psi) ** 2
        sin2 = 1.0 - cos2
        grid_deg = 360.0 / n
        rng = np.random.default_rng(5)
        for _ in range(100):
            b = rng.uniform(40.0, 120.0)
            a = b * rng.uniform(1.05, 2.5)
            reach = b + rng.uniform(0.05, 0.95) * (a - b)
            sec = EllipseSection(a, b, math.acos(b / a))
            arcs = contact_loss_arcs(sec, reach)
            lost = (a * a) * (b * b) > (reach * reach) * (
                (b * b) * cos2 + (a * a) * sin2)
            flips = np.flatnonzero(lost != np.roll(lost, 1))
            oracle = flips * grid_deg
            endpoints = np.array([p % 360.0 for arc in arcs for p in arc])
            assert len(endpoints) == len(oracle)
            for p in endpoints:
                d = np.abs(oracle - p)
                assert float(np.min(np.minimum(d, 360.0 - d))) < 0.01
        worked = contact_loss_arcs(EllipseSection(100.0, 80.0,
                                                  math.acos(0.8)), 90.0)
        half = (worked[0][1] - worked[0][0]) / 2.0
        assert half == pytest.approx(40.23, abs=0.01)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"criterion 5 took {elapsed:.2f} s"


def test_criterion_6_reach_calibration():
    with criterion(6, "calibrated reach at D=160 gives sector 96.54 +- "
                      "0.01 deg, failure probability 0.8045 +- 0.0005, "
                      "free margin 11.73 +- 0.1 deg"):
        reach = calibrate_reach_for_sector(160.0, 96.54)
        region = sweep_t_junction(160.0, reach, DEFAULT_PHI_MAX_RAD)
        assert region.sector_measure_deg == pytest.approx(96.54, abs=0.01)
        assert failure_probability(region) == pytest.approx(0.8045,
                                                            abs=0.0005)
        assert region.free_margin_deg == pytest.approx(11.73, abs=0.1)


def test_criterion_7_monte_carlo_success_rates():
    with criterion(7, "1e5 random-roll trials without the escape land "
                      "within 3 sigma of 0.1955; a 1 deg grid with the "
                      "escape succeeds every time, < 30 s"):
        t0 = time.perf_counter()
        res = monte_carlo_tee(TEE_NET, CFG, GEOM, trials=100_000, seed=0,
                              with_holonomic=False)
        sigma = math.sqrt(0.1955 * (1.0 - 0.1955) / 100_000)
        assert abs(res.success_rate - 0.1955) <= 3.0 * sigma, res.success_rate
        successes = 0
        for theta5 in range(120):
            plan = plan_mission(TEE_NET, float(theta5), CFG, GEOM)
            outcome, _ = run_mission(TEE_NET, plan, CFG, GEOM,
                                     theta5_deg=float(theta5), dt=None)
            successes += outcome.success
        assert successes / 120 == 1.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"criterion 7 took {elapsed:.2f} s"


def test_criterion_8_drive_sign_flip():
    with criterion(8, "self-rotation past 180 deg reverses travel under "
                      "positive drive; at 90 deg the robot stalls"):
        net = PipeNetwork((straight(160.0, 500.0),))
        plan = [
            MissionStep(kind=StepKind.DRIVE, command=DRIVE, duration_s=2.0),
            MissionStep(kind=StepKind.HOLONOMIC_ROTATE,
                        command=CommandVector(0.0, 0.0, 0.0, 0.5),
                        duration_s=math.radians(50.0) / 0.5),
            MissionStep(kind=StepKind.DRIVE, command=DRIVE, duration_s=1.0),
        ]
        outcome, records = run_mission(net, plan, CFG, GEOM, dt=None)
        drive_recs = [r for r in records if r.command == DRIVE]
        assert drive_recs[0].twist.v_cz == pytest.approx(100.0, rel=1e-12)
        # 50 deg of roll at gain 4 leaves the wheels 200 deg around
        assert drive_recs[-1].twist.v_cz == pytest.approx(-100.0, rel=1e-12)
        assert drive_recs[-1].s_mm == pytest.approx(100.0, rel=1e-9)
        assert not outcome.success
        # exactly 90 deg of self-rotation: no translation at all
        parked = SimState(s_mm=100.0, alpha_rad=math.pi / 2.0)
        state, rec = step(parked, DRIVE, 0.5, net, GEOM)
        assert rec.twist.v_cz == 0.0
        assert state.s_mm == 100.0


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    with criterion(9, "simulate and montecarlo reruns with the same seed "
                      "produce byte-identical outputs"):
        net_file = tmp_path / "net.json"
        from omnipipe import network_to_json
        net_file.write_text(network_to_json(TEE_NET))
        sim_blobs, mc_blobs = [], []
        for name in ("one", "two"):
            out = tmp_path / name
            code = cli_main(["simulate", "--network", str(net_file),
                             "--theta5", "30", "--out", str(out)])
            assert code == 0
            sim_blobs.append((out / "trajectory.csv").read_bytes()
                             + (out / "outcome.json").read_bytes())
            code = cli_main(["montecarlo", "--network", str(net_file),
                             "--trials", "500", "--seed", "42",
                             "--no-holonomic", "--out", str(out)])
            assert code == 0
            mc_blobs.append((out / "stats.json").read_bytes())
        capsys.readouterr()
        assert sim_blobs[0] == sim_blobs[1]
        assert mc_blobs[0] == mc_blobs[1]
