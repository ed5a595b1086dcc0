"""Shared domain types for the capture/filter/summarize pipeline.

All types here are immutable value objects and safe to share between
concurrent tasks. Serialization lives in :mod:`robosum.frameio`. The one
rule for what an integer and a number are (:func:`require_int`,
:func:`require_number`, :func:`check_config_fields`) and for which keys a
settings object may hold (:func:`read_fields`, :func:`build_fields`) live
here too.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import MISSING, dataclass, fields
from enum import Enum

import numpy as np

from .errors import PipelineError

FEATURE_DIM = 157

# Indices of the 18-point body landmark convention.
NOSE = 0
NECK = 1
R_SHOULDER = 2
R_ELBOW = 3
R_WRIST = 4
L_SHOULDER = 5
L_ELBOW = 6
L_WRIST = 7
R_HIP = 8
R_KNEE = 9
R_ANKLE = 10
L_HIP = 11
L_KNEE = 12
L_ANKLE = 13
R_EYE = 14
L_EYE = 15
R_EAR = 16
L_EAR = 17

NUM_LANDMARKS = 18

#: The largest finite float. Comparing a number with it is exact, so
#: ``-FLOAT_MAX <= v <= FLOAT_MAX`` is false for NaN, for ±inf and for an
#: integer too large for a float.
FLOAT_MAX = sys.float_info.max


def require_int(value, name: str) -> int:
    """``value`` itself if it is an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def require_number(value, name: str) -> float:
    """``value`` as a float if it is an int or a float that fits one; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and not -FLOAT_MAX <= value <= FLOAT_MAX:
        raise ValueError(f"{name} is too large for a float")
    return float(value)


#: Field annotations that hold a number, as types and as strings.
_NUMBER_TYPES = ("int", int, "float", float)


def check_config_fields(cfg, finite: bool = False) -> None:
    """The number rule for a settings dataclass: ``int`` fields hold ints, ``float`` fields an int or a float.

    With ``finite`` those must also be finite; an int too large for a float
    is not. Other fields are not looked at, and other ranges are each class's own.
    """
    for f in fields(cfg):
        if f.type in _NUMBER_TYPES:
            value = getattr(cfg, f.name)
            check = require_int if f.type in ("int", int) or type(value) is int else require_number
            check(value, f.name)
            if finite and not -FLOAT_MAX <= value <= FLOAT_MAX:
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")


def read_fields(cls, obj, what: str) -> dict:
    """``obj`` as keyword arguments for the dataclass ``cls``, its values unchecked.

    ``obj`` must be a dict of field names of ``cls`` that holds every field
    without a default; otherwise a ValueError names ``what``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    required = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    unknown = obj.keys() - required.keys()
    if unknown:
        raise ValueError(f"{what}: unknown keys {sorted(unknown)}")
    missing = [name for name, needed in required.items() if needed and name not in obj]
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    return dict(obj)


def build_fields(cls, obj, what: str):
    """``cls`` built from ``obj`` as :func:`read_fields` reads it; any fault is a ValueError naming ``what``."""
    kwargs = read_fields(cls, obj, what)
    try:
        return cls(**kwargs)
    except (ValueError, PipelineError) as exc:
        raise ValueError(f"{what}: {exc}") from None


#: Landmark indices counted as "facial": nose, both eyes, both ears.
FACIAL_INDICES = (NOSE, R_EYE, L_EYE, R_EAR, L_EAR)

#: Both eye indices.
EYE_INDICES = (R_EYE, L_EYE)


#: The row of an absent point.
ABSENT = (math.nan, math.nan, math.nan)

#: A set's points as ``[x, y, conf]`` lists of Python floats, None where absent.
Rows = list[list[float] | None]


def check_point(x: float, y: float, conf: float) -> None:
    """A present landmark point's rule: finite, non-negative coordinates and a confidence in [0, 1]."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"landmark coordinates must be finite, got ({x}, {y})")
    if x < 0 or y < 0:
        raise ValueError(f"landmark coordinates must be non-negative, got ({x}, {y})")
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"landmark confidence must be in [0, 1], got {conf}")


def check_points(points: np.ndarray) -> None:
    """:class:`LandmarkSet`'s point rule over a whole (..., 3) array of rows: raises at the first present row it rejects."""
    x, y, conf = np.moveaxis(points, -1, 0)
    absent = np.isnan(x) & np.isnan(y) & np.isnan(conf)
    fine = absent | ((0 <= x) & (x <= FLOAT_MAX) & (0 <= y) & (y <= FLOAT_MAX) & (0 <= conf) & (conf <= 1))
    if not fine.all():
        check_point(*points[np.unravel_index(np.argmin(fine), fine.shape)].tolist())


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """The 18 body keypoints of one person as a read-only (18, 3) float64 array.

    Row ``i`` holds the x, y pixel position and the detector confidence of
    the point at index ``i`` (``NOSE`` is 0, ``NECK`` is 1, ... ``L_EAR`` is
    17); an all-NaN row (:data:`ABSENT`) marks an absent point. A present
    point has finite, non-negative coordinates and a confidence in [0, 1].
    """

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=np.float64)
        if arr.shape != (NUM_LANDMARKS, 3):
            raise ValueError(f"expected {NUM_LANDMARKS} landmark rows of [x, y, conf], got shape {arr.shape}")
        check_points(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LandmarkSet):
            return NotImplemented
        return bool(np.array_equal(self.points, other.points, equal_nan=True))

    def rows(self) -> Rows:
        """The points as ``[x, y, conf]`` lists of Python floats; None where absent."""
        return [None if p[0] != p[0] else p for p in self.points.tolist()]


def _checked_landmarks(points: np.ndarray) -> LandmarkSet:
    """A LandmarkSet over ``points`` itself, with no copy and no check.

    Only for a read-only (18, 3) float64 array whose present rows were
    already checked against :func:`check_point` (see
    ``frameio._landmarks_from_wire``).
    """
    lm = object.__new__(LandmarkSet)
    object.__setattr__(lm, "points", points)
    return lm


#: The detector confidence at and above which a landmark point counts as visible.
MIN_POINT_CONFIDENCE = 0.3


def confident_subset(lm: LandmarkSet | None) -> Rows | None:
    """The set's rows with points below :data:`MIN_POINT_CONFIDENCE` made None.

    None when nothing survives. This is the one "visible landmark" rule:
    the content filter and the controller both see a person exactly when
    it returns rows.
    """
    if lm is None:
        return None
    # An absent row's NaN confidence fails the comparison, so it stays None.
    pts = [p if p[2] >= MIN_POINT_CONFIDENCE else None for p in lm.points.tolist()]
    return None if pts.count(None) == NUM_LANDMARKS else pts


def confident_mask(points: np.ndarray) -> np.ndarray:
    """The whole-session form of :func:`confident_subset`: which points of an (n, 18, 3) array are visible."""
    return points[:, :, 2] >= MIN_POINT_CONFIDENCE


def visible_span(coords: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (n, 18) array, the least and the greatest value where ``seen``; NaN where none is."""
    masked = np.where(seen, coords, np.nan)
    return np.fmin.reduce(masked, axis=1), np.fmax.reduce(masked, axis=1)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Per-frame probabilities of 157 predefined indoor actions.

    Components are independent multi-label probabilities in [0, 1]; they need
    not sum to 1. Stored as a read-only float32 array so values round-trip
    exactly through the 32-bit on-disk format.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float32, copy=True)
        if arr.shape != (FEATURE_DIM,):
            raise ValueError(f"feature vector must have shape ({FEATURE_DIM},), got {arr.shape}")
        check_unit_range(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))


def check_unit_range(values: np.ndarray) -> None:
    """:class:`FeatureVector`'s range rule over any array of components: each lies in [0, 1]; NaN does not."""
    if not bool(np.all((values >= 0.0) & (values <= 1.0))):
        raise ValueError("feature components must lie in [0, 1]")


def _checked_feature_row(row: np.ndarray) -> FeatureVector:
    """A FeatureVector over ``row`` itself, with no copy and no check.

    Only for a row view of a read-only float32 matrix whose shape and range
    were already checked as a whole (see ``frameio.attach_features``).
    """
    vector = object.__new__(FeatureVector)
    object.__setattr__(vector, "values", row)
    return vector


@dataclass(frozen=True)
class FrameRecord:
    """Metadata for one captured frame.

    ``timestamp`` is seconds since session start. ``landmarks`` is absent
    when no person was detected; ``blur_variance`` and ``features`` are
    absent until computed upstream.
    """

    frame_id: int
    timestamp: float
    width: int
    height: int
    landmarks: LandmarkSet | None = None
    blur_variance: float | None = None
    features: FeatureVector | None = None

    def __post_init__(self):
        # Floats, as a file or the wire gives them, so every path compares the same value.
        object.__setattr__(self, "timestamp", require_number(self.timestamp, "timestamp"))
        if self.blur_variance is not None:
            object.__setattr__(self, "blur_variance", require_number(self.blur_variance, "blur_variance"))
        if not math.isfinite(self.timestamp):
            raise ValueError(f"frame {self.frame_id}: timestamp must be finite")
        if not (0 < self.width <= FLOAT_MAX and 0 < self.height <= FLOAT_MAX):
            raise ValueError(f"frame {self.frame_id}: dimensions must be positive and fit in a float")
        if self.blur_variance is not None and not (
            math.isfinite(self.blur_variance) and self.blur_variance >= 0
        ):
            raise ValueError(f"frame {self.frame_id}: blur variance must be a finite non-negative real")


#: Rows per block of a whole-session batch stage (see :meth:`FrameTable.blocks`): its temporaries are this
#: many rows long, not the session's length.
_BLOCK_ROWS = 2048


def _ints(values) -> np.ndarray:
    """Integers as int64, or as Python ints where one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def matrix_rows(present: np.ndarray, first: int = 0) -> np.ndarray:
    """Each frame's row in a matrix that stacks the present frames' rows in frame order from row ``first``.

    -1 where ``present`` is false.
    """
    return np.where(present, np.cumsum(present) + (first - 1), -1)


class FrameTable(Sequence):
    """A session's frames as read-only per-frame columns over two shared matrices, and a ``Sequence[FrameRecord]``.

    Per frame: ``frame_id``, ``w``, ``h``; ``t``; ``blur`` (NaN for no score); ``point_row``, the frame's row of
    ``points``, or -1 when it has no landmarks; ``feat_row``, its row in the feature file, or -1 for none.
    ``points`` is an (m, 18, 3) float64 matrix of the landmark sets that are present, :data:`ABSENT` rows for
    absent points; :meth:`frame_points` gives a table's frames their own. ``features`` is the checked read-only
    float32 matrix the feature rows index, or None until one is bound; a row's record has features only once it
    is. ``table[i]`` builds row ``i``'s record, iterating builds every row's; a slice or :meth:`take` gives a
    table over the same two matrices, and :meth:`blocks` gives the whole-session batch stages their tables of a
    fixed number of rows.
    """

    __slots__ = ("frame_id", "t", "w", "h", "blur", "point_row", "feat_row", "points", "features")

    def __init__(self, frame_id, t, w, h, blur, point_row, feat_row, points, features=None):
        for name, column in zip(self.__slots__, (frame_id, t, w, h, blur, point_row, feat_row, points, features)):
            if column is not None:
                column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def of(cls, frames: Iterable[FrameRecord]) -> FrameTable:
        """``frames`` itself if it is a table, else a table of its records, their sets and vectors stacked in order."""
        if isinstance(frames, FrameTable):
            return frames
        recs = list(frames)
        sets = [r.landmarks.points for r in recs if r.landmarks is not None]
        vectors = [r.features.values for r in recs if r.features is not None]
        return cls(
            _ints([r.frame_id for r in recs]),
            np.array([r.timestamp for r in recs], dtype=np.float64),
            _ints([r.width for r in recs]),
            _ints([r.height for r in recs]),
            np.array([r.blur_variance for r in recs], dtype=np.float64),  # None becomes NaN
            matrix_rows(np.array([r.landmarks is not None for r in recs], dtype=bool)),
            matrix_rows(np.array([r.features is not None for r in recs], dtype=bool)),
            np.array(sets, dtype=np.float64).reshape(-1, NUM_LANDMARKS, 3),
            np.array(vectors, dtype=np.float32) if vectors else None,
        )

    def take(self, rows) -> FrameTable:
        """The table of ``rows`` (indices, a slice or a boolean mask): its per-frame columns, over these two matrices."""
        return FrameTable(*(getattr(self, name)[rows] for name in self.__slots__[:7]), self.points, self.features)

    def blocks(self) -> Iterator[tuple[int, FrameTable]]:
        """The table in consecutive blocks of at most :data:`_BLOCK_ROWS` rows, each with the row it starts at.

        A block is a slice, so its columns are views of these; none for an empty table.
        """
        for start in range(0, len(self), _BLOCK_ROWS):
            yield start, self.take(slice(start, start + _BLOCK_ROWS))

    def frame_points(self) -> np.ndarray:
        """Each frame's (18, 3) points, all :data:`ABSENT` where it has no landmarks: a new (n, 18, 3) array.

        It is as long as the table, so the batch stages call it on one block at a time.
        """
        present = self.point_row >= 0
        points = np.full((len(self), NUM_LANDMARKS, 3), np.nan)
        points[present] = self.points[self.point_row[present]]
        return points

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        i = range(len(self))[i]
        return self._record(
            int(self.frame_id[i]), float(self.t[i]), int(self.w[i]), int(self.h[i]), float(self.blur[i]),
            int(self.point_row[i]), int(self.feat_row[i]),
        )

    def __iter__(self):
        # Each column is read once as Python values, which is about twice as fast as ``table[i]`` row by row.
        return map(self._record, *(getattr(self, name).tolist() for name in self.__slots__[:7]))

    def _record(self, frame_id, t, w, h, blur, point, row) -> FrameRecord:
        """One row's record from its column values."""
        lm = None if point < 0 else _checked_landmarks(self.points[point])
        features = None if row < 0 or self.features is None else _checked_feature_row(self.features[row])
        return FrameRecord(frame_id, t, w, h, lm, None if blur != blur else blur, features)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


class IllPosedReason(Enum):
    """Why a frame was rejected; exactly one reason per rejected frame."""

    BLURRED = "Blurred"
    EYES_INVISIBLE = "EyesInvisible"
    PEOPLE_ABSENT = "PeopleAbsent"
    FOREHEAD_CROPPED = "ForeheadCropped"
    AT_CORNER = "AtCorner"
    TOO_SMALL = "TooSmall"


@dataclass(frozen=True)
class Cluster:
    """A temporally contiguous run of well-posed frames."""

    index: int
    frame_ids: tuple[int, ...]
    start_time: float
    end_time: float

    def __post_init__(self):
        ids = tuple(self.frame_ids)
        if not ids:
            raise ValueError("cluster must contain at least one frame")
        if self.start_time > self.end_time:
            raise ValueError("cluster start_time must not exceed end_time")
        object.__setattr__(self, "frame_ids", ids)

    @property
    def size(self) -> int:
        return len(self.frame_ids)


@dataclass(frozen=True)
class SummaryEntry:
    """One selected keyframe with its cluster provenance."""

    cluster_index: int
    frame_id: int
    timestamp: float
    cluster_size: int


@dataclass(frozen=True)
class SummaryManifest:
    """Ordered keyframe selections plus the threshold that produced them.

    ``h_star`` is the final temporal gap threshold in seconds (``inf`` when a
    single all-spanning cluster was requested, 0.0 when no clustering ran);
    ``cluster_count`` is the total number of clusters the threshold induced,
    which may exceed ``len(entries)`` when small clusters were discarded.
    """

    k: int
    h_star: float
    cluster_count: int
    entries: tuple[SummaryEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if len(entries) > self.k:
            raise ValueError(f"manifest holds {len(entries)} entries but k={self.k}")
        times = [e.timestamp for e in entries]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("manifest entries must be sorted by timestamp")
        object.__setattr__(self, "entries", entries)

    @property
    def is_short_session(self) -> bool:
        """True when the session had fewer frames than requested keyframes."""
        return len(self.entries) < self.k
