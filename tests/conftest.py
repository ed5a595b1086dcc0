"""Shared test helpers: compact landmark builders and session factories."""

from __future__ import annotations

import numpy as np
import pytest

from robosum.model import (
    ABSENT,
    FEATURE_DIM,
    NUM_LANDMARKS,
    FeatureVector,
    FrameRecord,
    LandmarkSet,
)

#: Lines that ``json`` fails to decode with an error other than JSONDecodeError, by that error.
#: 100,000 brackets exceed the nesting ``json`` decodes on every supported Python, not only 3.11's ~1,000.
UNDECODABLE_JSON = {
    "int-too-long": b'{"frame_id": ' + b"1" * 5000 + b"}",
    "invalid-utf-8": b'{"frame_id": 0}\xff',
    "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
}

_NAME_TO_INDEX = {
    "nose": 0,
    "neck": 1,
    "r_shoulder": 2,
    "r_elbow": 3,
    "r_wrist": 4,
    "l_shoulder": 5,
    "l_elbow": 6,
    "l_wrist": 7,
    "r_hip": 8,
    "r_knee": 9,
    "r_ankle": 10,
    "l_hip": 11,
    "l_knee": 12,
    "l_ankle": 13,
    "r_eye": 14,
    "l_eye": 15,
    "r_ear": 16,
    "l_ear": 17,
}


def landmarks(**named) -> LandmarkSet:
    """Build a LandmarkSet from name=(x, y) or name=(x, y, conf) pairs."""
    points = [ABSENT] * NUM_LANDMARKS
    for name, value in named.items():
        x, y, *rest = value
        conf = rest[0] if rest else 0.9
        points[_NAME_TO_INDEX[name]] = (x, y, conf)
    return LandmarkSet(points=points)


def centered_person(
    width: int = 640,
    height: int = 480,
    conf: float = 0.9,
    drop: tuple[str, ...] = (),
) -> LandmarkSet:
    """A sharp, full-size, centered person; drop named points to break rules."""
    cx = width / 2
    spots = {
        "nose": (cx, 110),
        "r_eye": (cx - 10, 104),
        "l_eye": (cx + 10, 104),
        "r_ear": (cx - 18, 112),
        "l_ear": (cx + 18, 112),
        "neck": (cx, 170),
        "r_shoulder": (cx - 35, 178),
        "l_shoulder": (cx + 35, 178),
        "r_elbow": (cx - 45, 240),
        "l_elbow": (cx + 45, 240),
        "r_wrist": (cx - 48, 300),
        "l_wrist": (cx + 48, 300),
        "r_hip": (cx - 15, 320),
        "l_hip": (cx + 15, 320),
        "r_knee": (cx - 16, 390),
        "l_knee": (cx + 16, 390),
        "r_ankle": (cx - 17, 460),
        "l_ankle": (cx + 17, 460),
    }
    for name in drop:
        spots.pop(name)
    return landmarks(**{name: (x, y, conf) for name, (x, y) in spots.items()})


def features(fill: float = 0.5, **overrides) -> FeatureVector:
    """A constant feature vector with optional index=value overrides."""
    values = np.full(FEATURE_DIM, fill, dtype=np.float64)
    for idx, value in overrides.items():
        values[int(idx)] = value
    return FeatureVector(values=values)


def feature_from_pattern(prefix: tuple[float, ...], scale: float = 0.25) -> FeatureVector:
    """Embed a short pattern into the first components, scaled into [0, 1]."""
    values = np.zeros(FEATURE_DIM, dtype=np.float64)
    for i, v in enumerate(prefix):
        values[i] = v * scale
    return FeatureVector(values=values)


def frame(
    frame_id: int,
    timestamp: float,
    lm: LandmarkSet | None = None,
    blur: float | None = 300.0,
    feats: FeatureVector | None = None,
    width: int = 640,
    height: int = 480,
) -> FrameRecord:
    return FrameRecord(
        frame_id=frame_id,
        timestamp=timestamp,
        width=width,
        height=height,
        landmarks=lm,
        blur_variance=blur,
        features=feats,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
