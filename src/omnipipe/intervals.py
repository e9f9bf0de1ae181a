"""Arithmetic on sets of angular intervals over a periodic domain.

An interval is a ``(lo, hi)`` pair in degrees with ``lo <= hi``; the pair
denotes the arc swept from ``lo`` to ``hi``, taken modulo the period, so
``hi`` may exceed the period to express an arc that wraps through zero
(e.g. ``(350, 370)`` is the 20 deg arc about 0 on a 360 deg circle).

Canonical sets returned by :func:`normalize` are sorted, disjoint,
non-empty intervals with ``0 <= lo < hi <= period``.
"""

from __future__ import annotations

import math

Interval = tuple[float, float]

_EPS = 1e-9


def wrap(angle: float, period: float) -> float:
    """``angle`` reduced into [0, period)."""
    out = math.fmod(angle, period)
    if out < 0.0:
        out += period
        if out == period:  # a tiny negative remainder rounds up to period
            return 0.0
    return out


def normalize(intervals: list[Interval], period: float) -> list[Interval]:
    """Canonicalize raw intervals: wrap into [0, period), split, merge."""
    pieces: list[Interval] = []
    for lo, hi in intervals:
        if hi < lo:
            raise ValueError(f"interval ({lo}, {hi}) has hi < lo")
        width = hi - lo
        if width <= 0.0:
            continue
        if width >= period:
            return [(0.0, period)]
        lo = wrap(lo, period)
        hi = lo + width
        if hi <= period:
            pieces.append((lo, hi))
        else:
            pieces.append((lo, period))
            pieces.append((0.0, hi - period))
    if not pieces:
        return []
    pieces.sort()
    merged = [pieces[0]]
    for lo, hi in pieces[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + _EPS:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    # the last interval may wrap-merge with the first
    if len(merged) > 1:
        flo, fhi = merged[0]
        llo, lhi = merged[-1]
        if lhi >= period - _EPS and flo <= _EPS:
            merged[-1] = (llo, period)
            if fhi >= period - _EPS:
                return [(0.0, period)]
    return merged


def complement(intervals: list[Interval], period: float) -> list[Interval]:
    """Gaps of a canonical set within [0, period), as a canonical set; a
    gap through 0 comes as its two pieces (0, lo) and (hi, period)."""
    if not intervals:
        return [(0.0, period)]
    gaps: list[Interval] = []
    prev_hi = 0.0
    for lo, hi in intervals:
        if lo > prev_hi + _EPS:
            gaps.append((prev_hi, lo))
        prev_hi = max(prev_hi, hi)
    if prev_hi < period - _EPS:
        gaps.append((prev_hi, period))
    return gaps


def signed_delta(from_angle: float, to_angle: float, period: float) -> float:
    """Smallest signed rotation taking ``from_angle`` to ``to_angle``."""
    d = math.fmod(to_angle - from_angle, period)
    if d > period / 2.0:
        d -= period
    elif d < -period / 2.0:
        d += period
    return d
