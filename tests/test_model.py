"""Domain type invariants and landmark index semantics."""

import math
import re

import numpy as np
import pytest

from robosum.model import (
    ABSENT,
    FEATURE_DIM,
    Cluster,
    FeatureVector,
    MIN_POINT_CONFIDENCE,
    FrameRecord,
    FrameTable,
    LandmarkSet,
    SummaryEntry,
    SummaryManifest,
    confident_subset,
)
import robosum
from conftest import centered_person
from robosum import model
from robosum.content_filter import classify_frame, filter_frames


def test_index_constants_are_the_documented_convention():
    assert (model.NOSE, model.NECK) == (0, 1)
    assert (model.R_SHOULDER, model.R_ELBOW, model.R_WRIST) == (2, 3, 4)
    assert (model.L_SHOULDER, model.L_ELBOW, model.L_WRIST) == (5, 6, 7)
    assert (model.R_HIP, model.R_KNEE, model.R_ANKLE) == (8, 9, 10)
    assert (model.L_HIP, model.L_KNEE, model.L_ANKLE) == (11, 12, 13)
    assert (model.R_EYE, model.L_EYE, model.R_EAR, model.L_EAR) == (14, 15, 16, 17)


def test_landmark_set_requires_exactly_18_slots():
    with pytest.raises(ValueError):
        LandmarkSet(points=[ABSENT] * 17)
    with pytest.raises(ValueError):
        LandmarkSet(points=[ABSENT] * 19)
    with pytest.raises(ValueError):
        LandmarkSet(points=np.zeros((18, 2)))


def point_set(*row):
    """A set whose nose is ``row`` and whose other points are absent."""
    return LandmarkSet(points=[row] + [ABSENT] * 17)


def test_landmark_point_validation():
    with pytest.raises(ValueError, match="non-negative"):
        point_set(-1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        point_set(0.0, 0.0, 1.5)
    with pytest.raises(ValueError, match="finite"):
        point_set(float("nan"), 0.0, 0.5)
    with pytest.raises(ValueError, match="finite"):
        point_set(0.0, float("inf"), 0.5)
    with pytest.raises(ValueError, match=r"got nan"):
        point_set(3.0, 4.0, float("nan"))
    assert point_set(*ABSENT).rows() == [None] * 18
    assert point_set(0.0, 0.0, 0.0).rows()[0] == [0.0, 0.0, 0.0]


def test_landmark_set_is_read_only_copy_with_nan_aware_equality():
    src = np.array([(1.0, 2.0, 0.5)] + [ABSENT] * 17)
    lm = LandmarkSet(points=src)
    src[0, 0] = 9.0
    assert lm.points[0, 0] == 1.0
    assert lm.points.dtype == np.float64
    with pytest.raises(ValueError):
        lm.points[0, 0] = 3.0
    assert lm == point_set(1.0, 2.0, 0.5)
    assert lm != point_set(1.0, 2.0, 0.25)


def test_confident_subset_keeps_points_at_or_above_the_floor():
    assert MIN_POINT_CONFIDENCE == 0.3
    below = math.nextafter(MIN_POINT_CONFIDENCE, 0.0)
    lm = LandmarkSet(points=[(1.0, 2.0, MIN_POINT_CONFIDENCE), (3.0, 4.0, below), (5.0, 6.0, 1.0)] + [ABSENT] * 15)
    assert confident_subset(lm) == [[1.0, 2.0, 0.3], None, [5.0, 6.0, 1.0]] + [None] * 15
    assert confident_subset(LandmarkSet(points=[(3.0, 4.0, below)] + [ABSENT] * 17)) is None
    assert confident_subset(None) is None


def test_feature_vector_validation():
    with pytest.raises(ValueError):
        FeatureVector(values=np.zeros(FEATURE_DIM - 1))
    with pytest.raises(ValueError):
        FeatureVector(values=np.full(FEATURE_DIM, 1.5))
    with pytest.raises(ValueError):
        FeatureVector(values=np.full(FEATURE_DIM, -0.1))
    bad = np.zeros(FEATURE_DIM)
    bad[3] = float("nan")
    with pytest.raises(ValueError):
        FeatureVector(values=bad)


def test_feature_vector_is_read_only_and_copies_input():
    src = np.full(FEATURE_DIM, 0.25, dtype=np.float32)
    fv = FeatureVector(values=src)
    src[0] = 0.75
    assert fv.values[0] == np.float32(0.25)
    with pytest.raises(ValueError):
        fv.values[0] = 0.5


def test_feature_vector_equality():
    a = FeatureVector(values=np.full(FEATURE_DIM, 0.5))
    b = FeatureVector(values=np.full(FEATURE_DIM, 0.5))
    c = FeatureVector(values=np.full(FEATURE_DIM, 0.25))
    assert a == b
    assert a != c


def test_frame_record_validation():
    with pytest.raises(ValueError):
        FrameRecord(frame_id=0, timestamp=0.0, width=0, height=480)
    with pytest.raises(ValueError):
        FrameRecord(frame_id=0, timestamp=0.0, width=640, height=-1)
    with pytest.raises(ValueError):
        FrameRecord(frame_id=0, timestamp=float("inf"), width=640, height=480)
    with pytest.raises(ValueError):
        FrameRecord(frame_id=0, timestamp=0.0, width=640, height=480, blur_variance=-4.0)


#: The integer rule's edge: the largest magnitude an integer field takes, then the least it does not, and one past int64.
INT_EDGE = 2**53 - 1
PAST_THE_EDGE = (2**53, -(2**53), 2**70)
RANGE_FAULT = re.escape("must lie in [-(2**53 - 1), 2**53 - 1]") + "$"


def test_a_frame_takes_only_integers_for_its_id_and_size():
    # The neck sits at x = 80.03: inside the corner margin of a frame 640.5 wide (80.0625), outside that of one 640
    # wide (80). A table used to truncate the width to 640, so the filter accepted a frame classify_frame put AtCorner.
    base = dict(frame_id=1, timestamp=0.0, width=640, height=480, landmarks=centered_person(width=160.06), blur_variance=300.0)
    for name, value in (("width", 640.5), ("width", True), ("frame_id", 1.5), ("frame_id", True), ("height", "480")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            FrameRecord(**dict(base, **{name: value}))
    with pytest.raises(ValueError, match=f"^frame_id {RANGE_FAULT}"):
        FrameRecord(**dict(base, frame_id=2**70))
    rec = FrameRecord(**base)
    accepted, _ = filter_frames([rec])
    assert classify_frame(rec) is None and list(accepted) == [rec]


@pytest.mark.parametrize("name, column", [("frame_id", "frame_id"), ("width", "w"), ("height", "h")])
def test_a_frames_integers_lie_in_the_i_json_range(name, column):
    base = dict(frame_id=0, timestamp=0.0, width=640, height=480)
    edge = FrameRecord(**dict(base, **{name: INT_EDGE}))
    table = FrameTable.of([edge])
    assert getattr(table, column).dtype == np.int64 and getattr(table, column).tolist() == [INT_EDGE]
    for value in PAST_THE_EDGE:
        with pytest.raises(ValueError, match=f"^{name} {RANGE_FAULT}"):
            FrameRecord(**dict(base, **{name: value}))
    assert model.require_int(-INT_EDGE, name) == -INT_EDGE


def test_cluster_validation():
    with pytest.raises(ValueError):
        Cluster(index=1, frame_ids=(), start_time=0.0, end_time=1.0)
    with pytest.raises(ValueError):
        Cluster(index=1, frame_ids=(1,), start_time=2.0, end_time=1.0)
    c = Cluster(index=1, frame_ids=(3, 4, 5), start_time=0.0, end_time=2.0)
    assert c.size == 3


def test_manifest_invariants():
    entries = (
        SummaryEntry(cluster_index=1, frame_id=1, timestamp=5.0, cluster_size=3),
        SummaryEntry(cluster_index=2, frame_id=9, timestamp=2.0, cluster_size=1),
    )
    with pytest.raises(ValueError):
        SummaryManifest(k=2, h_star=10.0, cluster_count=2, entries=entries)
    with pytest.raises(ValueError):
        SummaryManifest(k=1, h_star=10.0, cluster_count=2, entries=entries[:2][::-1])
    ok = SummaryManifest(k=3, h_star=10.0, cluster_count=2, entries=entries[::-1])
    assert ok.is_short_session


def test_every_exported_name_resolves():
    for name in robosum.__all__:
        assert hasattr(robosum, name), name
