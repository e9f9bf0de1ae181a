"""Pipe network data model and JSON ingestion.

A network is an ordered list of segments (straight, elbow, tee); missions
traverse the list in order, so no graph search is involved.  Segments
carry everything the planner and simulator need: bore diameter, arc
lengths, and the roll of each turn's plane.

The tee branch exit is modeled as a straight run of D/2 to the junction
center followed by a 90 deg arc of configurable equivalent radius
(default D/2); the through exit is a straight run of length D across the
junction body.  Path shape at tees is bookkeeping only, turn feasibility
is judged by the singularity predicate.

Robot roll theta5 is measured relative to the plane of the next upcoming
turn; reference_rolls() gives each segment's reference so callers can
shift theta5 consistently when crossing segment boundaries.  A network
keeps both per-segment values, roll_references and arc_lengths, from
its construction on.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass, field

from .errors import NetworkValidationError


class SegmentKind(enum.Enum):
    STRAIGHT = "straight"
    ELBOW = "elbow"
    TEE = "tee"


class TeeExit(enum.Enum):
    THROUGH = "through"
    BRANCH = "branch"


class RatioMode(enum.Enum):
    """How elbow module-path radii are computed from the bend.

    FIXED_RATIO uses a fixed 1.5 D centerline radius; GENERALIZED uses the
    segment's actual bend radius.  The +-0.5 D cosine offsets are common.
    """
    FIXED_RATIO = "fixed-ratio"
    GENERALIZED = "generalized"


def _require_positive(value, name: str, *, finite_only: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkValidationError(f"{name} must be a number", field=name)
    if not abs(value) <= sys.float_info.max:  # also an int past float range
        raise NetworkValidationError(f"{name} must be finite", field=name)
    if not finite_only and value <= 0:
        raise NetworkValidationError(f"{name} must be > 0, got {value}",
                                     field=name)
    return float(value)


@dataclass(frozen=True)
class PipeSegment:
    kind: SegmentKind
    d_mm: float
    length_mm: float | None = None            # straight
    bend_radius_mm: float | None = None       # elbow
    bend_angle_deg: float | None = None       # elbow, in (0, 180]
    turn_plane_roll_deg: float = 0.0          # elbow
    branch_roll_deg: float = 0.0              # tee
    exit: TeeExit = TeeExit.BRANCH            # tee
    equivalent_radius_mm: float | None = None  # tee, defaults to D/2

    def __post_init__(self):
        if not isinstance(self.kind, SegmentKind):
            raise NetworkValidationError(
                f"kind must be a SegmentKind, got {self.kind!r}", field="kind")
        _require_positive(self.d_mm, "D_mm")
        if self.kind is SegmentKind.STRAIGHT:
            if self.length_mm is None:
                raise NetworkValidationError("straight needs length_mm",
                                             field="length_mm")
            _require_positive(self.length_mm, "length_mm")
        elif self.kind is SegmentKind.ELBOW:
            if self.bend_radius_mm is None:
                raise NetworkValidationError("elbow needs bend_radius_mm",
                                             field="bend_radius_mm")
            if self.bend_angle_deg is None:
                raise NetworkValidationError("elbow needs bend_angle_deg",
                                             field="bend_angle_deg")
            _require_positive(self.bend_radius_mm, "bend_radius_mm")
            _require_positive(self.bend_angle_deg, "bend_angle_deg")
            if self.bend_angle_deg > 180.0:
                raise NetworkValidationError(
                    f"bend_angle_deg must lie in (0, 180], got "
                    f"{self.bend_angle_deg}", field="bend_angle_deg")
            _require_positive(self.turn_plane_roll_deg, "turn_plane_roll_deg",
                              finite_only=True)
        elif self.kind is SegmentKind.TEE:
            _require_positive(self.branch_roll_deg, "branch_roll_deg",
                              finite_only=True)
            if not isinstance(self.exit, TeeExit):
                raise NetworkValidationError(
                    f"exit must be 'through' or 'branch', got {self.exit!r}",
                    field="exit")
            if self.equivalent_radius_mm is not None:
                _require_positive(self.equivalent_radius_mm,
                                  "equivalent_radius_mm")

    @property
    def tee_equivalent_radius(self) -> float:
        if self.equivalent_radius_mm is not None:
            return self.equivalent_radius_mm
        return self.d_mm / 2.0

    def arc_length(self) -> float:
        """Centerline length of this segment in mm."""
        if self.kind is SegmentKind.STRAIGHT:
            return self.length_mm
        if self.kind is SegmentKind.ELBOW:
            return self.bend_radius_mm * math.radians(self.bend_angle_deg)
        if self.exit is TeeExit.THROUGH:
            return self.d_mm
        return self.d_mm / 2.0 + self.tee_equivalent_radius * math.pi / 2.0

    def turn_roll_deg(self) -> float | None:
        """Roll of this segment's turn plane; None for straights."""
        if self.kind is SegmentKind.ELBOW:
            return self.turn_plane_roll_deg
        if self.kind is SegmentKind.TEE:
            return self.branch_roll_deg
        return None


def straight(d_mm: float, length_mm: float) -> PipeSegment:
    return PipeSegment(SegmentKind.STRAIGHT, d_mm, length_mm=length_mm)


def elbow(d_mm: float, bend_radius_mm: float, bend_angle_deg: float,
          turn_plane_roll_deg: float = 0.0) -> PipeSegment:
    return PipeSegment(SegmentKind.ELBOW, d_mm, bend_radius_mm=bend_radius_mm,
                       bend_angle_deg=bend_angle_deg,
                       turn_plane_roll_deg=turn_plane_roll_deg)


def tee(d_mm: float, branch_roll_deg: float = 0.0,
        exit: TeeExit = TeeExit.BRANCH,
        equivalent_radius_mm: float | None = None) -> PipeSegment:
    return PipeSegment(SegmentKind.TEE, d_mm, branch_roll_deg=branch_roll_deg,
                       exit=exit, equivalent_radius_mm=equivalent_radius_mm)


@dataclass(frozen=True)
class PipeNetwork:
    segments: tuple[PipeSegment, ...]
    roll_references: tuple[float, ...] = field(  # reference_rolls(self)
        init=False, repr=False, compare=False)
    arc_lengths: tuple[float, ...] = field(  # each segment's arc_length()
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # stored as a tuple, so equal networks give equal memo keys
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise NetworkValidationError("network must contain segments")
        for i, segment in enumerate(self.segments):
            if not isinstance(segment, PipeSegment):
                raise NetworkValidationError(
                    f"segment {i} is not a PipeSegment: {segment!r}",
                    segment_index=i)
            if i and segment.d_mm != self.segments[i - 1].d_mm:
                raise NetworkValidationError(
                    f"segment {i} changes diameter "
                    f"{self.segments[i - 1].d_mm} -> {segment.d_mm}; "
                    f"reducers are not supported",
                    segment_index=i, field="D_mm")
        object.__setattr__(self, "roll_references",
                           tuple(reference_rolls(self)))
        object.__setattr__(self, "arc_lengths",
                           tuple(seg.arc_length() for seg in self.segments))

    def total_length(self) -> float:
        return sum(self.arc_lengths)


def reference_rolls(net: PipeNetwork) -> list[float]:
    """Per-segment roll reference: the plane of the next upcoming turn.

    Segment i's reference is the roll of the first elbow/tee at index >= i;
    past the last turn the reference is held (no further shifts), and a
    network with no turns uses 0 throughout.
    """
    n = len(net.segments)
    refs: list[float | None] = [None] * n
    nxt: float | None = None
    for i in range(n - 1, -1, -1):
        roll = net.segments[i].turn_roll_deg()
        if roll is not None:
            nxt = roll
        refs[i] = nxt
    prev = 0.0
    out: list[float] = []
    for ref in refs:
        if ref is None:
            ref = prev
        out.append(ref)
        prev = ref
    return out


# -- JSON schema ------------------------------------------------------------

_FIELDS = {
    "straight": {"kind", "D_mm", "length_mm"},
    "elbow": {"kind", "D_mm", "bend_radius_mm", "bend_angle_deg",
              "turn_plane_roll_deg"},
    "tee": {"kind", "D_mm", "branch_roll_deg", "exit", "equivalent_radius_mm"},
}


def _segment_from_dict(data: dict, index: int) -> PipeSegment:
    if not isinstance(data, dict):
        raise NetworkValidationError(f"segment {index} must be an object",
                                     segment_index=index)
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise NetworkValidationError(
            f"segment {index}: kind must be one of "
            f"{sorted(_FIELDS)}, got {kind!r}",
            segment_index=index, field="kind")
    unknown = set(data) - _FIELDS[kind]
    if unknown:
        name = sorted(unknown)[0]
        raise NetworkValidationError(
            f"segment {index}: unknown field {name!r} for kind {kind!r}",
            segment_index=index, field=name)
    try:
        if kind == "straight":
            return straight(data.get("D_mm"), data.get("length_mm"))
        if kind == "elbow":
            return elbow(data.get("D_mm"), data.get("bend_radius_mm"),
                         data.get("bend_angle_deg"),
                         data.get("turn_plane_roll_deg", 0.0))
        exit_name = data.get("exit", "branch")
        try:
            exit_val = TeeExit(exit_name)
        except ValueError:
            raise NetworkValidationError(
                f"exit must be 'through' or 'branch', got {exit_name!r}",
                field="exit") from None
        return tee(data.get("D_mm"), data.get("branch_roll_deg", 0.0),
                   exit_val, data.get("equivalent_radius_mm"))
    except NetworkValidationError as e:
        raise NetworkValidationError(f"segment {index}: {e.args[0]}",
                                     segment_index=index,
                                     field=e.field) from None


def network_from_dict(data: dict) -> PipeNetwork:
    if not isinstance(data, dict):
        raise NetworkValidationError("network document must be an object")
    unknown = set(data) - {"segments"}
    if unknown:
        raise NetworkValidationError(
            f"unknown top-level field {sorted(unknown)[0]!r}",
            field=sorted(unknown)[0])
    segments = data.get("segments")
    if not isinstance(segments, list) or not segments:
        raise NetworkValidationError(
            "document needs a non-empty 'segments' list", field="segments")
    return PipeNetwork(tuple(
        _segment_from_dict(seg, i) for i, seg in enumerate(segments)))


def load_network(document: str) -> PipeNetwork:
    """Parse and validate a JSON network document."""
    try:
        data = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as e:
        raise NetworkValidationError(f"invalid JSON: {e}") from None
    return network_from_dict(data)


def network_to_dict(net: PipeNetwork) -> dict:
    out = []
    for seg in net.segments:
        if seg.kind is SegmentKind.STRAIGHT:
            out.append({"kind": "straight", "D_mm": seg.d_mm,
                        "length_mm": seg.length_mm})
        elif seg.kind is SegmentKind.ELBOW:
            out.append({"kind": "elbow", "D_mm": seg.d_mm,
                        "bend_radius_mm": seg.bend_radius_mm,
                        "bend_angle_deg": seg.bend_angle_deg,
                        "turn_plane_roll_deg": seg.turn_plane_roll_deg})
        else:
            rec = {"kind": "tee", "D_mm": seg.d_mm,
                   "branch_roll_deg": seg.branch_roll_deg,
                   "exit": seg.exit.value}
            if seg.equivalent_radius_mm is not None:
                rec["equivalent_radius_mm"] = seg.equivalent_radius_mm
            out.append(rec)
    return {"segments": out}


def network_to_json(net: PipeNetwork) -> str:
    return json.dumps(network_to_dict(net), sort_keys=True, indent=2)


# -- Module path radii through a bend (speed-ratio source) -------------------

_RADIUS_OFFSETS_DEG = (0.0, -120.0, 120.0)


def module_path_radii(segment: PipeSegment, theta5_deg: float,
                      mode: RatioMode = RatioMode.GENERALIZED
                      ) -> tuple[float, float, float]:
    """Per-module path radii (mm) while rolling through an elbow.

    A module at wall angle theta5 + offset from the turn plane follows a
    path of radius R - 0.5 D cos(angle), where R is the bend centerline
    radius: the actual bend_radius in GENERALIZED mode, the fixed 1.5 D of
    the ratio formula in FIXED_RATIO mode.  theta5 in degrees.
    """
    if segment.kind is not SegmentKind.ELBOW:
        raise ValueError("module_path_radii requires an elbow segment")
    d = segment.d_mm
    center = 1.5 * d if mode is RatioMode.FIXED_RATIO else segment.bend_radius_mm
    return tuple(
        center - 0.5 * d * math.cos(math.radians(theta5_deg + off))
        for off in _RADIUS_OFFSETS_DEG)
