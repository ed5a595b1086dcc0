"""Round-trip exactness and strict rejection of malformed input."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robosum import frameio
from robosum.errors import (
    FeatureFileError,
    OrderError,
    ParseError,
    RangeViolation,
)
from robosum.model import (
    FEATURE_DIM,
    FeatureVector,
    FrameRecord,
    LandmarkPoint,
    LandmarkSet,
    SummaryEntry,
    SummaryManifest,
)

point_strategy = st.one_of(
    st.none(),
    st.builds(
        LandmarkPoint,
        x=st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
        y=st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
        confidence=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
)

record_strategy = st.builds(
    FrameRecord,
    frame_id=st.integers(min_value=0, max_value=10**9),
    timestamp=st.floats(min_value=0.0, max_value=10**6, allow_nan=False),
    width=st.integers(min_value=1, max_value=4096),
    height=st.integers(min_value=1, max_value=4096),
    landmarks=st.one_of(st.none(), st.builds(lambda pts: LandmarkSet(points=tuple(pts)), st.lists(point_strategy, min_size=18, max_size=18))),
    blur_variance=st.one_of(st.none(), st.floats(min_value=0.0, max_value=10**6, allow_nan=False)),
    features=st.one_of(
        st.none(),
        st.builds(
            lambda seed: FeatureVector(values=np.random.default_rng(seed).random(FEATURE_DIM)),
            st.integers(min_value=0, max_value=2**31),
        ),
    ),
)


def roundtrip(frames):
    buf = io.StringIO()
    matrix = frameio.write_frames_jsonl(frames, buf)
    buf.seek(0)
    parsed = frameio.parse_frames_jsonl(buf)
    if matrix is None:
        return list(parsed.frames), parsed
    return frameio.attach_features(parsed, matrix), parsed


class TestFramesJsonl:
    def test_empty_stream(self):
        parsed = frameio.parse_frames_jsonl(io.StringIO(""))
        assert parsed.frames == ()
        assert parsed.duplicates_dropped == 0

    @given(st.lists(record_strategy, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_lossless(self, records):
        # Keep ids unique and timestamps strictly increasing.
        frames = []
        for i, rec in enumerate(records):
            frames.append(
                FrameRecord(
                    frame_id=i,
                    timestamp=float(i) + rec.timestamp / 2**30,
                    width=rec.width,
                    height=rec.height,
                    landmarks=rec.landmarks,
                    blur_variance=rec.blur_variance,
                    features=rec.features,
                )
            )
        back, _ = roundtrip(frames)
        assert back == frames

    def test_wrong_landmark_arity_names_line(self):
        good = frameio.frame_to_wire(FrameRecord(frame_id=0, timestamp=0.0, width=10, height=10))
        bad = dict(good, frame_id=1, t=1.0, landmarks=[None] * 17)
        text = json.dumps(good) + "\n" + json.dumps(bad) + "\n"
        with pytest.raises(ParseError) as excinfo:
            frameio.parse_frames_jsonl(io.StringIO(text))
        assert excinfo.value.line == 2

    def test_equal_timestamps_drop_second_and_count(self):
        lines = [
            frameio.frame_to_wire(FrameRecord(frame_id=i, timestamp=t, width=10, height=10))
            for i, t in ((0, 1.0), (1, 1.0), (2, 2.0))
        ]
        text = "".join(json.dumps(obj) + "\n" for obj in lines)
        parsed = frameio.parse_frames_jsonl(io.StringIO(text))
        assert [r.frame_id for r in parsed.frames] == [0, 2]
        assert parsed.duplicates_dropped == 1

    def test_decreasing_timestamp_is_order_error(self):
        lines = [
            frameio.frame_to_wire(FrameRecord(frame_id=i, timestamp=t, width=10, height=10))
            for i, t in ((0, 5.0), (1, 4.0))
        ]
        text = "".join(json.dumps(obj) + "\n" for obj in lines)
        with pytest.raises(OrderError) as excinfo:
            frameio.parse_frames_jsonl(io.StringIO(text))
        assert excinfo.value.frame_id == 1

    def test_duplicate_frame_id_rejected(self):
        obj = frameio.frame_to_wire(FrameRecord(frame_id=7, timestamp=0.0, width=10, height=10))
        other = dict(obj, t=1.0)
        text = json.dumps(obj) + "\n" + json.dumps(other) + "\n"
        with pytest.raises(ParseError):
            frameio.parse_frames_jsonl(io.StringIO(text))

    def test_unknown_and_missing_keys_rejected(self):
        obj = frameio.frame_to_wire(FrameRecord(frame_id=0, timestamp=0.0, width=10, height=10))
        with_extra = dict(obj, shiny=1)
        with pytest.raises(ParseError):
            frameio.parse_frames_jsonl(io.StringIO(json.dumps(with_extra) + "\n"))
        missing = {k: v for k, v in obj.items() if k != "w"}
        with pytest.raises(ParseError):
            frameio.parse_frames_jsonl(io.StringIO(json.dumps(missing) + "\n"))

    def test_invalid_json_and_blank_lines(self):
        with pytest.raises(ParseError):
            frameio.parse_frames_jsonl(io.StringIO("{not json}\n"))
        with pytest.raises(ParseError):
            frameio.parse_frames_jsonl(io.StringIO("\n"))

    def test_type_confusion_rejected(self):
        obj = frameio.frame_to_wire(FrameRecord(frame_id=0, timestamp=0.0, width=10, height=10))
        for key, value in (("frame_id", 1.5), ("w", "10"), ("t", None), ("frame_id", True)):
            broken = dict(obj, **{key: value})
            with pytest.raises(ParseError):
                frameio.parse_frames_jsonl(io.StringIO(json.dumps(broken) + "\n"))

    def test_attach_features_range_check(self):
        rec = FrameRecord(frame_id=0, timestamp=0.0, width=10, height=10)
        parsed = frameio.ParseResult(frames=(rec,), feat_rows=(3,), duplicates_dropped=0)
        with pytest.raises(ParseError):
            frameio.attach_features(parsed, np.zeros((2, FEATURE_DIM), dtype=np.float32))


class TestFeatureFile:
    def test_round_trip(self, tmp_path, rng):
        matrix = rng.random((5, FEATURE_DIM)).astype(np.float32)
        path = tmp_path / "feat.bin"
        frameio.save_features(matrix, path)
        assert np.array_equal(frameio.load_features(path), matrix)

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "feat.bin"
        frameio.save_features(np.zeros((0, FEATURE_DIM), dtype=np.float32), path)
        loaded = frameio.load_features(path)
        assert loaded.shape == (0, FEATURE_DIM)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "feat.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FeatureFileError, match="expected magic b'FEAT', got b'NOPE'"):
            frameio.load_features(path)

    def test_dim_mismatch(self, tmp_path):
        import struct

        path = tmp_path / "feat.bin"
        path.write_bytes(struct.pack("<4sII", b"FEAT", 1, 100) + b"\x00" * 400)
        with pytest.raises(FeatureFileError, match="expected dimension 157, got 100"):
            frameio.load_features(path)

    def test_range_violation_names_cell(self, tmp_path):
        matrix = np.zeros((5, FEATURE_DIM), dtype=np.float32)
        matrix[3, 7] = 1.5
        path = tmp_path / "feat.bin"
        # save_features validates nothing; write raw to simulate a bad producer.
        import struct

        path.write_bytes(struct.pack("<4sII", b"FEAT", 5, FEATURE_DIM) + matrix.astype("<f4").tobytes())
        with pytest.raises(RangeViolation) as excinfo:
            frameio.load_features(path)
        assert (excinfo.value.row, excinfo.value.col) == (3, 7)

    def test_truncated_payload(self, tmp_path):
        import struct

        path = tmp_path / "feat.bin"
        path.write_bytes(struct.pack("<4sII", b"FEAT", 2, FEATURE_DIM) + b"\x00" * 100)
        with pytest.raises(FeatureFileError):
            frameio.load_features(path)


class TestManifest:
    def manifest(self, h_star=62.5):
        return SummaryManifest(
            k=3,
            h_star=h_star,
            cluster_count=5,
            entries=(
                SummaryEntry(cluster_index=1, frame_id=4, timestamp=1.25, cluster_size=9),
                SummaryEntry(cluster_index=3, frame_id=77, timestamp=900.125, cluster_size=2),
            ),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "summary.json"
        manifest = self.manifest()
        frameio.write_summary_manifest(manifest, path)
        assert frameio.read_summary_manifest(path) == manifest

    def test_h_star_full_precision(self, tmp_path):
        path = tmp_path / "summary.json"
        odd = self.manifest(h_star=60.0 / 7.0)
        frameio.write_summary_manifest(odd, path)
        assert frameio.read_summary_manifest(path).h_star == odd.h_star

    def test_infinite_h_star_round_trips(self, tmp_path):
        path = tmp_path / "summary.json"
        spanning = SummaryManifest(
            k=1,
            h_star=math.inf,
            cluster_count=1,
            entries=(SummaryEntry(cluster_index=1, frame_id=0, timestamp=0.0, cluster_size=4),),
        )
        frameio.write_summary_manifest(spanning, path)
        assert math.isinf(frameio.read_summary_manifest(path).h_star)

    def test_empty_entries(self, tmp_path):
        path = tmp_path / "summary.json"
        empty = SummaryManifest(k=8, h_star=0.0, cluster_count=0, entries=())
        frameio.write_summary_manifest(empty, path)
        obj = json.loads(path.read_text())
        assert obj["entries"] == []
        assert frameio.read_summary_manifest(path) == empty

    def test_stable_key_order(self, tmp_path):
        path = tmp_path / "summary.json"
        frameio.write_summary_manifest(self.manifest(), path)
        text = path.read_text()
        assert text.index('"k"') < text.index('"h_star"') < text.index('"m"') < text.index('"entries"')

    def test_unknown_keys_rejected(self):
        obj = frameio.manifest_to_dict(self.manifest())
        obj["bonus"] = 1
        with pytest.raises(ParseError):
            frameio.manifest_from_dict(obj)


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
        path = tmp_path / "frame.pgm"
        frameio.save_pgm(img, path)
        assert np.array_equal(frameio.load_pgm(path), img)

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "frame.pgm"
        path.write_bytes(b"JFIF....")
        with pytest.raises(ParseError):
            frameio.load_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "frame.pgm"
        path.write_bytes(b"P5\n10 10\n255\n" + b"\x00" * 5)
        with pytest.raises(ParseError):
            frameio.load_pgm(path)
