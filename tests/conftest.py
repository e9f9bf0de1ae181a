"""Shared fixtures plus the acceptance-report hook.

The acceptance tests register one line per criterion through the
``criterion`` context manager; pytest prints the collected table after
the run so the pass/fail status of every criterion is visible in plain
``pytest -v`` output.

Every test starts with omnipipe's memo caches empty, so no result
depends on which tests ran before it.
"""

from contextlib import contextmanager

import pytest

from omnipipe import (REFERENCE_GEOMETRY, PipeNetwork, PlannerConfig,
                      RobotGeometry, drive, planner, sim, singularity,
                      straight, tee)

_RESULTS: list[tuple[int, str, bool]] = []


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        _RESULTS.append((number, description, False))
        raise
    else:
        _RESULTS.append((number, description, True))


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} - "
                                    f"{description}")


# every memo in omnipipe, each a bounded lru_cache keyed by value
MEMOS = (drive.drive_sign, planner._tee_turn, planner._drive_command,
         planner._roll_command, singularity.sweep_t_junction, sim._twist,
         sim._derived_set)


def empty_every_memo():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    empty_every_memo()


@pytest.fixture
def geom() -> RobotGeometry:
    """Reference robot: 15 mm lugs, 60 mm arms, calibrated max reach."""
    return REFERENCE_GEOMETRY


@pytest.fixture
def cfg() -> PlannerConfig:
    return PlannerConfig()


@pytest.fixture
def tee_net() -> PipeNetwork:
    return PipeNetwork((straight(160.0, 500.0), tee(160.0),
                        straight(160.0, 300.0)))
