"""Deterministic synthetic session generator with ground-truth labels.

Sessions are laid out on a fixed 1/fps grid. Frames inside an activity
segment show a well-posed person whose features are a noisy one-hot over
the segment's activity; frames outside every segment show nobody. Targeted
ill-posed injections override a time range so that exactly one rejection
rule (and no higher-precedence rule) fires there. The generator validates
this constructively with its own copy of the rule arithmetic, so the truth
labels are an independent oracle for the content filter.

All randomness comes from one seeded PCG64 generator consumed in a fixed
order, making output byte-identical for a given spec.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .content_filter import FilterConfig
from .errors import PipelineError
from .model import (
    ABSENT,
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
    FeatureVector,
    FrameRecord,
    IllPosedReason,
    LandmarkSet,
    build_fields,
    check_config_fields,
    read_fields,
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
    well_posed: bool
    reason: IllPosedReason | None = None
    segment_id: int | None = None


def _trajectory_at(spec: ScenarioSpec, t: float) -> tuple[float, float, float]:
    """Neck (x, y) and torso length at time t; centered defaults if unset."""
    wps = spec.person_trajectory
    if not wps:
        return spec.frame_width / 2.0, 0.35 * spec.frame_height, 0.3125 * spec.frame_height
    times = [w.t for w in wps]
    x = float(np.interp(t, times, [w.x for w in wps]))
    y = float(np.interp(t, times, [w.y for w in wps]))
    torso = float(np.interp(t, times, [w.torso_px for w in wps]))
    return x, y, torso


def _build_landmarks(
    cx: float, neck_y: float, torso: float, width: int, height: int, drop_eyes: bool = False
) -> LandmarkSet:
    """Synthesize an 18-point skeleton; points outside the frame are absent."""
    nose_y = neck_y - _HEAD_RISE * torso
    spots: dict[int, tuple[float, float]] = {
        NOSE: (cx, nose_y),
        NECK: (cx, neck_y),
        R_EYE: (cx - 0.06 * torso, nose_y - 0.04 * torso),
        L_EYE: (cx + 0.06 * torso, nose_y - 0.04 * torso),
        R_EAR: (cx - 0.12 * torso, nose_y + 0.02 * torso),
        L_EAR: (cx + 0.12 * torso, nose_y + 0.02 * torso),
        R_SHOULDER: (cx - 0.22 * torso, neck_y + 0.05 * torso),
        L_SHOULDER: (cx + 0.22 * torso, neck_y + 0.05 * torso),
        R_ELBOW: (cx - 0.30 * torso, neck_y + 0.45 * torso),
        L_ELBOW: (cx + 0.30 * torso, neck_y + 0.45 * torso),
        R_WRIST: (cx - 0.32 * torso, neck_y + 0.85 * torso),
        L_WRIST: (cx + 0.32 * torso, neck_y + 0.85 * torso),
        R_HIP: (cx - _HIP_DX * torso, neck_y + _HIP_DY * torso),
        L_HIP: (cx + _HIP_DX * torso, neck_y + _HIP_DY * torso),
        R_KNEE: (cx - 0.11 * torso, neck_y + 1.5 * torso),
        L_KNEE: (cx + 0.11 * torso, neck_y + 1.5 * torso),
        R_ANKLE: (cx - 0.12 * torso, neck_y + _BODY_DROP * torso),
        L_ANKLE: (cx + 0.12 * torso, neck_y + _BODY_DROP * torso),
    }
    points = [ABSENT] * NUM_LANDMARKS
    for idx, (x, y) in spots.items():
        if drop_eyes and idx in (R_EYE, L_EYE):
            continue
        if 0 <= x < width and 0 <= y < height:
            points[idx] = (x, y, _POINT_CONFIDENCE)
    return LandmarkSet(points=points)


def _geometry_for(
    reason: IllPosedReason | None,
    cx: float,
    neck_y: float,
    torso: float,
    spec: ScenarioSpec,
    cfg: FilterConfig,
) -> LandmarkSet | None:
    """Landmarks realizing the intended label at the trajectory point."""
    w, h = spec.frame_width, spec.frame_height
    if reason is IllPosedReason.PEOPLE_ABSENT:
        return None
    if reason is IllPosedReason.AT_CORNER:
        cx = cfg.corner_margin_fraction * w * 0.5
    elif reason is IllPosedReason.FOREHEAD_CROPPED:
        neck_y = _EYE_RISE * torso + 0.5
    elif reason is IllPosedReason.TOO_SMALL:
        torso = cfg.min_torso_fraction * h / _BBOX_FACTOR * 0.8
    return _build_landmarks(
        cx, neck_y, torso, w, h, drop_eyes=reason is IllPosedReason.EYES_INVISIBLE
    )


def _check_intended(
    frame_id: int,
    reason: IllPosedReason | None,
    lm: LandmarkSet | None,
    blur: float,
    spec: ScenarioSpec,
    cfg: FilterConfig,
) -> None:
    """Constructive guarantee: the built frame must match its intended label.

    Deliberately re-derives the rule arithmetic instead of calling the
    content filter, so generated labels stay an independent oracle.
    """
    w, h = spec.frame_width, spec.frame_height

    def fail(msg: str) -> None:
        raise PipelineError(f"frame {frame_id}: cannot realize label {reason}: {msg}")

    if reason is IllPosedReason.PEOPLE_ABSENT:
        if lm is not None:
            fail("landmarks present")
        return
    pts = [] if lm is None else lm.rows()
    if all(p is None for p in pts):
        fail("no visible landmarks")
    ys = [p[1] for p in pts if p is not None]
    xs = [p[0] for p in pts if p is not None]
    bbox_h = max(ys) - min(ys)
    margin = cfg.corner_margin_fraction * w
    neck = pts[NECK]
    center_x = neck[0] if neck is not None else (min(xs) + max(xs)) / 2.0
    nose = pts[NOSE]
    eyes_visible = pts[R_EYE] is not None or pts[L_EYE] is not None

    if reason is IllPosedReason.BLURRED:
        if blur >= cfg.blur_threshold:
            fail("blur variance not below threshold")
        return
    if blur < cfg.blur_threshold:
        fail("frame unintentionally blurred")
    if reason is IllPosedReason.TOO_SMALL:
        if bbox_h >= cfg.min_torso_fraction * h:
            fail("person too large")
        return
    if bbox_h < cfg.min_torso_fraction * h:
        fail("person unintentionally too small")
    if reason is IllPosedReason.AT_CORNER:
        if margin < center_x < w - margin:
            fail("person not at a corner")
        return
    if not margin < center_x < w - margin:
        fail("person unintentionally at a corner")
    if reason is IllPosedReason.FOREHEAD_CROPPED:
        if nose is None or nose[1] >= cfg.forehead_margin_fraction * h:
            fail("nose not above the forehead margin")
        return
    if nose is not None and nose[1] < cfg.forehead_margin_fraction * h:
        fail("forehead unintentionally cropped")
    if reason is IllPosedReason.EYES_INVISIBLE:
        if eyes_visible:
            fail("an eye is still visible")
        return
    if not eyes_visible:
        fail("eyes unintentionally invisible")


def generate_session(
    spec: ScenarioSpec, cfg: FilterConfig | None = None
) -> tuple[list[FrameRecord], list[FrameTruth]]:
    """Produce (frames, truth) on the spec's 1/fps grid.

    ``cfg`` is the filter configuration the labels must hold under
    (defaults match the filter's defaults).
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

    reasons: list[IllPosedReason | None] = [
        None if segment_id[i] >= 0 else IllPosedReason.PEOPLE_ABSENT for i in range(n)
    ]
    for inj in spec.ill_posed_injections:
        for i in np.flatnonzero((times >= inj.start_s) & (times < inj.end_s)):
            reasons[int(i)] = inj.reason

    # Fixed RNG consumption order keeps output byte-identical per seed.
    noise = rng.normal(0.0, 1.0, size=(n, FEATURE_DIM)) if n else np.zeros((0, FEATURE_DIM))
    sharp_blur = cfg.blur_threshold + 50.0 + 250.0 * rng.random(n)
    dull_blur = cfg.blur_threshold * (0.2 + 0.3 * rng.random(n))

    features = sigma[:, None] * noise
    rows = np.flatnonzero(onehot_col >= 0)
    features[rows, onehot_col[rows]] += 1.0
    np.clip(features, 0.0, 1.0, out=features)
    features = features.astype(np.float32)

    landmark_cache: dict[tuple, LandmarkSet | None] = {}
    frames: list[FrameRecord] = []
    truth: list[FrameTruth] = []
    for i in range(n):
        t = float(times[i])
        reason = reasons[i]
        cx, neck_y, torso = _trajectory_at(spec, t)
        key = (reason, round(cx, 4), round(neck_y, 4), round(torso, 4))
        if key in landmark_cache:
            lm = landmark_cache[key]
        else:
            lm = _geometry_for(reason, cx, neck_y, torso, spec, cfg)
            landmark_cache[key] = lm
        blur = float(dull_blur[i] if reason is IllPosedReason.BLURRED else sharp_blur[i])
        _check_intended(i, reason, lm, blur, spec, cfg)
        frames.append(
            FrameRecord(
                frame_id=i,
                timestamp=t,
                width=spec.frame_width,
                height=spec.frame_height,
                landmarks=lm,
                blur_variance=blur,
                features=FeatureVector(values=features[i]),
            )
        )
        truth.append(
            FrameTruth(
                frame_id=i,
                well_posed=reason is None,
                reason=reason,
                segment_id=int(segment_id[i]) if segment_id[i] >= 0 else None,
            )
        )
    return frames, truth


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
