"""A seeded generator of pipe networks for the output corpus (test_corpus).

It lives beside the tests, apart from the benchmark harness, so that a
pinned digest moves only when omnipipe's output does.  It draws with
random.Random.random() alone, whose stream Python keeps the same for a
given integer seed, and rounds every length and roll to a short decimal,
so each network document is plain to read.
"""

from __future__ import annotations

import random

from omnipipe import PipeNetwork, TeeExit, elbow, straight, tee

NETWORK_SEEDS = range(10)


def generated_network(seed: int) -> PipeNetwork:
    """Two to four turns (elbows, branch tees and through tees) between
    straights, on one bore of 100-170 mm; turn planes at 0.0, -0.0 or a
    random roll, elbows from 0.75 D to 3 D, and some tees with their own
    equivalent radius."""
    rng = random.Random(seed)
    u = rng.random
    d = float(round(100.0 + 70.0 * u()))
    segments = [straight(d, round(50.0 + 350.0 * u(), 1))]
    for _ in range(2 + int(3.0 * u())):
        kind, pick = u(), u()
        plane = 0.0 if pick < 0.15 else -0.0 if pick < 0.3 else round(
            360.0 * u(), 2)
        if kind < 0.4:
            segments.append(elbow(d, round(d * (0.75 + 2.25 * u()), 1),
                                  (30.0, 45.0, 90.0, 180.0)[int(4.0 * u())],
                                  plane))
        else:
            radius = None if u() < 0.6 else round(d * (0.3 + 0.7 * u()), 1)
            segments.append(tee(d, plane, TeeExit.BRANCH if kind < 0.75
                                else TeeExit.THROUGH, radius))
        segments.append(straight(d, round(5.0 + 295.0 * u(), 1)))
    return PipeNetwork(tuple(segments))
