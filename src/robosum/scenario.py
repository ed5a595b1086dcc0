"""Deterministic synthetic session generator with ground-truth labels.

Sessions are laid out on a fixed 1/fps grid. Frames inside an activity
segment show a well-posed person whose features are a noisy one-hot over
the segment's activity; frames outside every segment show nobody. Targeted
ill-posed injections override a time range so that exactly one rejection
rule (and no higher-precedence rule) fires there. The generator validates
this constructively with its own copy of the rule arithmetic, so the truth
labels are an independent oracle for the content filter. Each step works on
the whole session's columns at once.

All randomness comes from one seeded PCG64 generator consumed in a fixed
order, making output byte-identical for a given spec.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .content_filter import FilterConfig
from .errors import PipelineError
from .model import (
    FEATURE_DIM,
    L_ANKLE,
    L_EAR,
    L_ELBOW,
    L_EYE,
    L_HIP,
    L_KNEE,
    L_SHOULDER,
    L_WRIST,
    NECK,
    NOSE,
    NUM_LANDMARKS,
    R_ANKLE,
    R_EAR,
    R_ELBOW,
    R_EYE,
    R_HIP,
    R_KNEE,
    R_SHOULDER,
    R_WRIST,
    FrameRecord,
    FrameTable,
    IllPosedReason,
    build_fields,
    check_config_fields,
    check_points,
    matrix_rows,
    read_fields,
    unit_float32,
)

_POINT_CONFIDENCE = 0.9

#: Most frames a spec may ask for (``duration_s * fps``): 11.6 days at 1 fps.
MAX_FRAMES = 10**6

# Body proportions relative to the torso (neck-to-hip) pixel length. The hip
# lateral offset of 0.10 forces a vertical drop of sqrt(1 - 0.01) so the
# neck-to-hip distance equals the torso length exactly.
_HIP_DX = 0.10
_HIP_DY = math.sqrt(1.0 - _HIP_DX * _HIP_DX)
_HEAD_RISE = 0.40
_EYE_RISE = 0.44
_BODY_DROP = 2.0
_BBOX_FACTOR = _BODY_DROP + _EYE_RISE  # full-body bounding-box height / torso


def _check_numbers(part) -> None:
    """The model's number rule and finiteness for a spec part, raised as a PipelineError."""
    try:
        check_config_fields(part, finite=True)
    except ValueError as exc:
        raise PipelineError(str(exc)) from None


@dataclass(frozen=True)
class ActivitySegment:
    """A time range during which one indoor activity dominates."""

    start_s: float
    end_s: float
    activity_id: int
    feature_noise_sigma: float = 0.05

    def __post_init__(self):
        _check_numbers(self)
        if not self.start_s < self.end_s:
            raise PipelineError(f"segment [{self.start_s}, {self.end_s}) is empty or reversed")
        if not 0 <= self.activity_id < FEATURE_DIM:
            raise PipelineError(f"activity_id must be in [0, {FEATURE_DIM}), got {self.activity_id}")
        if self.feature_noise_sigma < 0:
            raise PipelineError("feature_noise_sigma must be non-negative")


@dataclass(frozen=True)
class Injection:
    """A time range whose frames violate exactly one rejection rule; ``reason`` may be its JSON value."""

    start_s: float
    end_s: float
    reason: IllPosedReason

    def __post_init__(self):
        _check_numbers(self)
        if not self.start_s < self.end_s:
            raise PipelineError(f"injection [{self.start_s}, {self.end_s}) is empty or reversed")
        try:
            object.__setattr__(self, "reason", IllPosedReason(self.reason))
        except ValueError:
            raise PipelineError(f"unknown ill-posed reason {self.reason!r}") from None


@dataclass(frozen=True)
class Waypoint:
    """Neck position and torso pixel length at time ``t`` (linear interp)."""

    t: float
    x: float
    y: float
    torso_px: float

    def __post_init__(self):
        _check_numbers(self)
        if self.x < 0 or self.y < 0 or self.torso_px <= 0:
            raise PipelineError("waypoint needs non-negative position and positive torso length")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate one labeled synthetic session."""

    duration_s: float
    fps: float
    activity_segments: tuple[ActivitySegment, ...] = ()
    ill_posed_injections: tuple[Injection, ...] = ()
    person_trajectory: tuple[Waypoint, ...] = ()
    rng_seed: int = 0
    frame_width: int = 640
    frame_height: int = 480

    def __post_init__(self):
        _check_numbers(self)
        if self.fps <= 0:
            raise PipelineError("fps must be positive")
        if self.duration_s < 0:
            raise PipelineError("duration_s must be non-negative")
        if not self.duration_s * self.fps <= MAX_FRAMES:
            raise PipelineError(f"duration_s * fps must be at most {MAX_FRAMES} frames, got {self.duration_s!r} * {self.fps!r}")
        if self.rng_seed < 0:
            raise PipelineError("rng_seed must be non-negative")
        if self.frame_width < 8 or self.frame_height < 8:
            raise PipelineError("frame dimensions are too small to place a person")
        segments = tuple(self.activity_segments)
        for a, b in zip(segments, segments[1:]):
            if b.start_s < a.end_s:
                raise PipelineError("activity segments must be sorted and non-overlapping")
        injections = tuple(sorted(self.ill_posed_injections, key=lambda i: i.start_s))
        for a, b in zip(injections, injections[1:]):
            if b.start_s < a.end_s:
                raise PipelineError("ill-posed injections must not overlap")
        waypoints = tuple(self.person_trajectory)
        for a, b in zip(waypoints, waypoints[1:]):
            if b.t < a.t:
                raise PipelineError("trajectory waypoints must be sorted by time")
        object.__setattr__(self, "activity_segments", segments)
        object.__setattr__(self, "ill_posed_injections", injections)
        object.__setattr__(self, "person_trajectory", waypoints)

    @property
    def frame_count(self) -> int:
        return int(round(self.duration_s * self.fps))


@dataclass(frozen=True)
class FrameTruth:
    """Ground-truth label for one generated frame."""

    frame_id: int
    reason: IllPosedReason | None = None
    segment_id: int | None = None

    @property
    def well_posed(self) -> bool:
        return self.reason is None


#: The labels in the oracle's check order, well-posed (None) last; a frame's label code is its index here.
_LABELS = (
    *map(IllPosedReason, ("PeopleAbsent", "Blurred", "TooSmall", "AtCorner", "ForeheadCropped", "EyesInvisible")), None
)
_CODE = {label: code for code, label in enumerate(_LABELS)}

#: The oracle's messages, one pair per ill-posed label in check order: for a frame with that label that
#: lacks the label's defect, and for a frame with a later label that shows it.
_FAULTS = (
    ("landmarks present", "no visible landmarks"),
    ("blur variance not below threshold", "frame unintentionally blurred"),
    ("person too large", "person unintentionally too small"),
    ("person not at a corner", "person unintentionally at a corner"),
    ("nose not above the forehead margin", "forehead unintentionally cropped"),
    ("an eye is still visible", "eyes unintentionally invisible"),
)


def _trajectory(spec: ScenarioSpec, times: np.ndarray) -> list[np.ndarray]:
    """Neck x, neck y and torso length at each time; centered defaults if the spec has no waypoints."""
    wps = spec.person_trajectory
    if not wps:
        at = (spec.frame_width / 2.0, 0.35 * spec.frame_height, 0.3125 * spec.frame_height)
        return [np.full(len(times), value) for value in at]
    ts = [w.t for w in wps]
    return [np.interp(times, ts, [getattr(w, name) for w in wps]) for name in ("x", "y", "torso_px")]


def _geometry(codes: np.ndarray, times: np.ndarray, spec: ScenarioSpec, cfg: FilterConfig) -> np.ndarray:
    """Every frame's 18 points, an (n, 18, 3) array with NaN rows for absent points, realizing its label.

    A frame takes the geometry of the first frame with its label and its trajectory point rounded to
    10**-4 px, by Python's ``round`` (numpy's rounds some values the other way).
    """
    w, h = spec.frame_width, spec.frame_height
    columns = _trajectory(spec, times)
    keys = list(zip(codes.tolist(), *(map(round, c.tolist(), itertools.repeat(4)) for c in columns)))
    first: dict[tuple, int] = {}
    source = np.array([first.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.intp)
    cx, neck_y, torso = (c[source] for c in columns)
    cx = np.where(codes == _CODE[IllPosedReason.AT_CORNER], cfg.corner_margin_fraction * w * 0.5, cx)
    neck_y = np.where(codes == _CODE[IllPosedReason.FOREHEAD_CROPPED], _EYE_RISE * torso + 0.5, neck_y)
    torso = np.where(codes == _CODE[IllPosedReason.TOO_SMALL], cfg.min_torso_fraction * h / _BBOX_FACTOR * 0.8, torso)

    nose_y = neck_y - _HEAD_RISE * torso
    spots = {NOSE: (cx, nose_y), NECK: (cx, neck_y)}
    # Each right point and its left mirror image about cx: their x offset and their y, in torso lengths.
    for (right, left), dx, y in (
        ((R_EYE, L_EYE), 0.06, nose_y - 0.04 * torso),
        ((R_EAR, L_EAR), 0.12, nose_y + 0.02 * torso),
        ((R_SHOULDER, L_SHOULDER), 0.22, neck_y + 0.05 * torso),
        ((R_ELBOW, L_ELBOW), 0.30, neck_y + 0.45 * torso),
        ((R_WRIST, L_WRIST), 0.32, neck_y + 0.85 * torso),
        ((R_HIP, L_HIP), _HIP_DX, neck_y + _HIP_DY * torso),
        ((R_KNEE, L_KNEE), 0.11, neck_y + 1.5 * torso),
        ((R_ANKLE, L_ANKLE), 0.12, neck_y + _BODY_DROP * torso),
    ):
        spots[right], spots[left] = (cx - dx * torso, y), (cx + dx * torso, y)
    points = np.full((len(codes), NUM_LANDMARKS, 3), _POINT_CONFIDENCE)
    for idx, (x, y) in spots.items():
        points[:, idx, 0], points[:, idx, 1] = x, y
    x, y = points[:, :, 0], points[:, :, 1]
    # Points outside the frame are absent, as are the eyes of EyesInvisible and everything of PeopleAbsent.
    shown = (0 <= x) & (x < w) & (0 <= y) & (y < h)
    shown[np.ix_(codes == _CODE[IllPosedReason.EYES_INVISIBLE], [R_EYE, L_EYE])] = False
    shown[codes == _CODE[IllPosedReason.PEOPLE_ABSENT]] = False
    points[~shown] = np.nan
    return points


def _check_intended(
    codes: np.ndarray, points: np.ndarray, blur: np.ndarray, spec: ScenarioSpec, cfg: FilterConfig
) -> None:
    """Constructive guarantee: every built frame must match its intended label.

    Each ill-posed label has a defect: no visible point for PeopleAbsent,
    then one rule's. Checked in :data:`_LABELS` order, a frame with that
    label must show the defect and a frame with a later label must not; the
    first frame that fails a check raises, naming its first failed check.
    Deliberately re-derives the rule arithmetic instead of calling the
    content filter, so generated labels stay an independent oracle.
    """
    w, h = spec.frame_width, spec.frame_height
    x, y = points[:, :, 0], points[:, :, 1]
    seen = ~np.isnan(x)
    lo_x, hi_x = np.fmin.reduce(x, axis=1), np.fmax.reduce(x, axis=1)  # NaN where no point is seen
    bbox_h = np.fmax.reduce(y, axis=1) - np.fmin.reduce(y, axis=1)
    margin = cfg.corner_margin_fraction * w
    center_x = np.where(seen[:, NECK], x[:, NECK], (lo_x + hi_x) / 2.0)
    # The fractions lie in (0, 0.5), so a fraction times w or h is a float and numpy compares it exactly.
    defects = (
        ~seen.any(axis=1),
        blur < cfg.blur_threshold,
        bbox_h < cfg.min_torso_fraction * h,
        ~((margin < center_x) & (center_x < w - margin)),
        seen[:, NOSE] & (y[:, NOSE] < cfg.forehead_margin_fraction * h),
        ~(seen[:, R_EYE] | seen[:, L_EYE]),
    )
    failed = np.array([np.where(codes == code, ~defect, (codes > code) & defect) for code, defect in enumerate(defects)])
    failing = np.flatnonzero(failed.any(axis=0))
    if failing.size:
        i = int(failing[0])
        check, code = int(np.argmax(failed[:, i])), int(codes[i])
        raise PipelineError(f"frame {i}: cannot realize label {_LABELS[code]}: {_FAULTS[check][code != check]}")


def generate_session(
    spec: ScenarioSpec, cfg: FilterConfig | None = None
) -> tuple[list[FrameRecord], list[FrameTruth]]:
    """Produce (frames, truth) on the spec's 1/fps grid.

    ``cfg`` is the filter configuration the labels must hold under
    (defaults match the filter's defaults). The session is built as one
    read-only :class:`~robosum.model.FrameTable`, and the records are its
    rows' views.
    """
    cfg = cfg or FilterConfig()
    n = spec.frame_count
    rng = np.random.default_rng(spec.rng_seed)

    times = np.arange(n, dtype=np.float64) / spec.fps

    segment_id = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    onehot_col = np.full(n, -1, dtype=np.int64)
    for si, seg in enumerate(spec.activity_segments):
        mask = (times >= seg.start_s) & (times < seg.end_s)
        segment_id[mask] = si
        sigma[mask] = seg.feature_noise_sigma
        onehot_col[mask] = seg.activity_id

    codes = np.where(segment_id >= 0, _CODE[None], _CODE[IllPosedReason.PEOPLE_ABSENT])
    for inj in spec.ill_posed_injections:
        codes[(times >= inj.start_s) & (times < inj.end_s)] = _CODE[inj.reason]

    # Fixed RNG consumption order keeps output byte-identical per seed.
    noise = rng.normal(0.0, 1.0, size=(n, FEATURE_DIM)) if n else np.zeros((0, FEATURE_DIM))
    sharp_blur = cfg.blur_threshold + 50.0 + 250.0 * rng.random(n)
    dull_blur = cfg.blur_threshold * (0.2 + 0.3 * rng.random(n))

    features = sigma[:, None] * noise
    rows = np.flatnonzero(onehot_col >= 0)
    features[rows, onehot_col[rows]] += 1.0
    np.clip(features, 0.0, 1.0, out=features)
    features = unit_float32(features)

    points = _geometry(codes, times, spec, cfg)
    check_points(points)
    blur = np.where(codes == _CODE[IllPosedReason.BLURRED], dull_blur, sharp_blur)
    _check_intended(codes, points, blur, spec, cfg)
    ids, person = np.arange(n), codes != _CODE[IllPosedReason.PEOPLE_ABSENT]
    # Every frame has features: its feature row is its own index.
    table = FrameTable(
        ids, times, np.full(n, spec.frame_width, dtype=np.int64), np.full(n, spec.frame_height, dtype=np.int64),
        blur, matrix_rows(person), ids, points[person], features,
    )
    truth = [
        FrameTruth(i, _LABELS[code], None if seg < 0 else seg)
        for i, (code, seg) in enumerate(zip(codes.tolist(), segment_id.tolist()))
    ]
    return list(table), truth


def frame_image(frame_id: int, blurred: bool, seed: int = 0) -> np.ndarray:
    """32x32 grayscale pixels for one frame: flat when blurred, seeded noise otherwise."""
    if blurred:
        return np.full((32, 32), 128, dtype=np.uint8)
    rng = np.random.default_rng((seed, frame_id))
    return rng.integers(0, 256, size=(32, 32), dtype=np.uint8)


#: The list fields of a spec and the part each item is read into.
_SPEC_PARTS = {"activity_segments": ActivitySegment, "ill_posed_injections": Injection, "person_trajectory": Waypoint}


def spec_from_dict(obj) -> ScenarioSpec:
    """Build a ScenarioSpec from its JSON form; unknown keys are errors."""
    try:
        kwargs = read_fields(ScenarioSpec, obj, "scenario spec")
        for key, cls in _SPEC_PARTS.items():
            items = kwargs.get(key, [])
            if not isinstance(items, (list, tuple)):
                raise ValueError(f"{key} must be a JSON array, got {type(items).__name__}")
            kwargs[key] = tuple(build_fields(cls, item, f"{key}[{i}]") for i, item in enumerate(items))
    except ValueError as exc:
        raise PipelineError(str(exc)) from exc
    return ScenarioSpec(**kwargs)


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """The JSON form of ``spec``, as :func:`spec_from_dict` reads it."""
    obj = asdict(spec)
    for inj in obj["ill_posed_injections"]:
        inj["reason"] = inj["reason"].value
    return obj
