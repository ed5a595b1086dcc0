"""Round-trip exactness and strict rejection of malformed input."""

import io
import itertools
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import UNDECODABLE_JSON
from robosum import frameio
from robosum.errors import (
    FeatureFileError,
    OrderError,
    ParseError,
    RangeViolation,
)
from robosum.model import (
    ABSENT,
    FEATURE_DIM,
    NUM_LANDMARKS,
    FeatureVector,
    FrameRecord,
    LandmarkSet,
    SummaryEntry,
    SummaryManifest,
)

#: The smallest integer above the float limit, and the largest one float() still rounds to it.
TOO_LARGE = int(sys.float_info.max) + 1
ROUNDS_TO_MAX = 2**1024 - 2**970 - 1

point_strategy = st.one_of(
    st.just(ABSENT),
    st.tuples(
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
)

record_strategy = st.builds(
    FrameRecord,
    frame_id=st.integers(min_value=0, max_value=10**9),
    timestamp=st.floats(min_value=0.0, max_value=10**6, allow_nan=False),
    width=st.integers(min_value=1, max_value=4096),
    height=st.integers(min_value=1, max_value=4096),
    landmarks=st.one_of(st.none(), st.builds(lambda pts: LandmarkSet(points=pts), st.lists(point_strategy, min_size=18, max_size=18))),
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


def parsed_with_rows(rows):
    """Frames 0, 1, ... one second apart, whose lines hold the feature-file ``rows``, parsed."""
    lines = [
        json.dumps(frameio.frame_to_wire(FrameRecord(frame_id=i, timestamp=float(i), width=10, height=10), row)) + "\n"
        for i, row in enumerate(rows)
    ]
    return frameio.parse_frames_jsonl(lines)


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

    @pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
    def test_undecodable_json_is_parse_error(self, tmp_path, text):
        good = json.dumps(frameio.frame_to_wire(FrameRecord(frame_id=0, timestamp=0.0, width=10, height=10)))
        path = tmp_path / "frames.jsonl"
        path.write_bytes(good.encode() + b"\n" + text + b"\n")
        with open(path, "r", encoding="utf-8") as fh, pytest.raises(ParseError) as excinfo:
            frameio.parse_frames_jsonl(fh)
        # A text file decodes ahead of the line being parsed, so invalid UTF-8 has no line number.
        line = None if b"\xff" in text else 2
        assert excinfo.value.line == line
        assert "invalid JSON: " in str(excinfo.value)

    def test_json_fault_texts_name_no_decoder_internals(self, tmp_path):
        lines = [json.dumps(frameio.frame_to_wire(FrameRecord(frame_id=i, timestamp=float(i), width=10, height=10)))
                 for i in range(400)]
        path = tmp_path / "frames.jsonl"
        # Line 301 starts with a byte that is not UTF-8.
        path.write_bytes("".join(line + "\n" for line in lines[:300]).encode() + b"\xff" + lines[300].encode() + b"\n")
        with open(path, "r", encoding="utf-8") as fh, pytest.raises(ParseError) as excinfo:
            frameio.parse_frames_jsonl(fh)
        # The reader decodes ahead in chunks, so the last line that decoded may lie before line 300.
        after = int(re.fullmatch(r"invalid JSON: not UTF-8 \(byte 0xff\) after line (\d+)", str(excinfo.value))[1])
        assert 0 < after <= 300
        with pytest.raises(ParseError) as excinfo:
            frameio.parse_frames_jsonl(io.StringIO('{"frame_id": ' + "1" * 5000 + "}\n"))
        assert str(excinfo.value).startswith("line 1: invalid JSON: ") and "sys." not in str(excinfo.value)

    def test_type_confusion_rejected(self):
        obj = frameio.frame_to_wire(FrameRecord(frame_id=0, timestamp=0.0, width=10, height=10))
        for key, value in (("frame_id", 1.5), ("w", "10"), ("t", None), ("frame_id", True)):
            broken = dict(obj, **{key: value})
            with pytest.raises(ParseError):
                frameio.parse_frames_jsonl(io.StringIO(json.dumps(broken) + "\n"))

    def test_integer_too_large_for_a_float_rejected(self):
        # float() rounds the integers from TOO_LARGE to ROUNDS_TO_MAX down to
        # the float limit instead of raising; they are still too large.
        assert float(ROUNDS_TO_MAX) == sys.float_info.max
        obj = frameio.frame_to_wire(FrameRecord(frame_id=0, timestamp=0.0, width=10, height=10))
        for huge in (10**400, TOO_LARGE, ROUNDS_TO_MAX, -TOO_LARGE):
            huge_x = [[10.0, 20.0, 0.9], [huge, 20.0, 0.9]] + [None] * 16
            cases = (
                ("t", huge, "t is too large for a float"),
                ("blur_var", huge, "blur_var is too large for a float"),
                ("landmarks", huge_x, "landmark 1 x is too large for a float"),
                # w and h are integer fields, so they lie within 2**53 - 1 of 0, far inside a float.
                ("w", huge, re.escape("w must lie in [-(2**53 - 1), 2**53 - 1]")),
                ("h", huge, re.escape("h must lie in [-(2**53 - 1), 2**53 - 1]")),
            )
            for key, value, msg in cases:
                line = json.dumps(dict(obj, **{key: value})) + "\n"
                with pytest.raises(ParseError, match=f"^line 1: {msg}$"):
                    frameio.parse_frames_jsonl(io.StringIO(line))

    def test_attach_features_range_check(self):
        parsed = parsed_with_rows([3])
        with pytest.raises(ParseError, match="^frame 0: feat_row 3 beyond matrix of 2 rows$"):
            frameio.attach_features(parsed, np.zeros((2, FEATURE_DIM), dtype=np.float32))

        parsed = parsed_with_rows([0])
        # A read-only float32 matrix is bound without a copy, and is checked all the same.
        for value, writeable in itertools.product((1.5, -0.25, math.nan), (True, False)):
            bad = np.zeros((4, FEATURE_DIM), dtype=np.float32)
            bad[2, 9] = value
            bad.flags.writeable = writeable
            with pytest.raises(RangeViolation) as excinfo:
                frameio.attach_features(parsed, bad)
            assert (excinfo.value.row, excinfo.value.col) == (2, 9)
        for shape in ((2, FEATURE_DIM - 1), (FEATURE_DIM,), (1, 1, FEATURE_DIM)):
            with pytest.raises(FeatureFileError, match="n x 157 matrix"):
                frameio.attach_features(parsed, np.zeros(shape, dtype=np.float32))
        with pytest.raises(FeatureFileError, match="must hold numbers"):
            frameio.attach_features(parsed, np.full((1, FEATURE_DIM), "0.5"))

        rows = (2, None, 0, 2)
        parsed = parsed_with_rows(rows)
        frames = [FrameRecord(frame_id=i, timestamp=float(i), width=10, height=10) for i in range(4)]
        # Parsed, a frame has its file's row and no features until a matrix is bound.
        assert parsed.frames.feat_row.tolist() == [2, -1, 0, 2] and list(parsed.frames) == frames
        for dtype in (np.float32, np.float64):
            matrix = np.random.default_rng(3).random((3, FEATURE_DIM)).astype(dtype)
            expected = matrix.astype(np.float32)
            attached = frameio.attach_features(parsed, matrix)
            matrix[:] = 0.0
            # A frame without a feature row is the record it was; the table holds columns, not records.
            assert attached[1] == frames[1] and attached[1].features is None
            for rec, row in zip(attached, rows):
                if row is None:
                    continue
                values = rec.features.values
                assert values.dtype == np.float32 and not values.flags.writeable
                assert np.array_equal(values, expected[row])
                with pytest.raises(ValueError):
                    values[0] = 0.5
            assert attached[0].features == attached[3].features


def old_point_rules(raw) -> str | None:
    """Reference: the former per-point checks, entry by entry.

    Returns the message of the first fault, or None when the landmarks are valid.
    """
    for i, entry in enumerate(raw):
        if entry is None:
            continue
        if not isinstance(entry, list) or len(entry) != 3:
            return f"landmark {i} must be null or [x, y, conf]"
        for value, name in zip(entry, ("x", "y", "conf")):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return f"landmark {i} {name} must be a number, got {value!r}"
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                return f"landmark {i} {name} is too large for a float"
        x, y, conf = (float(v) for v in entry)
        if not (math.isfinite(x) and math.isfinite(y)):
            return f"landmark coordinates must be finite, got ({x}, {y})"
        if x < 0 or y < 0:
            return f"landmark coordinates must be non-negative, got ({x}, {y})"
        if not 0.0 <= conf <= 1.0:
            return f"landmark confidence must be in [0, 1], got {conf}"
    return None


# Integers past 2**53 are not all floats; the decoder must round them as float() does.
good_xy = st.floats(0.0, 4096.0) | st.integers(0, 4096) | st.integers(2**53, int(sys.float_info.max))
good_conf = st.floats(0.0, 1.0) | st.sampled_from([0, 1])
too_large = st.integers(TOO_LARGE, 2**1030) | st.sampled_from([TOO_LARGE, ROUNDS_TO_MAX, 10**400])
bad_value = st.floats() | too_large | too_large.map(lambda v: -v) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -1, -0.0, math.nextafter(1.0, 2.0), 2, -1e-300, True, False, "1.0", None, [1.0]]
)
faulty_entry = st.one_of(
    st.tuples(bad_value, good_xy, good_conf).map(list),
    st.tuples(good_xy, bad_value, good_conf).map(list),
    st.tuples(good_xy, good_xy, bad_value).map(list),
    st.just([math.nan, math.nan, math.nan]),
    st.lists(good_conf, max_size=5).filter(lambda e: len(e) != 3),
    st.sampled_from(["x", 1.0, True, {}]),
)
wire_entry = st.none() | st.tuples(good_xy, good_xy, good_conf).map(list) | faulty_entry
# Faults that pass the entry shape check and are caught only by the value types
# or the range checks (NaN, and integers above the float limit).
typed_fault = st.just([math.nan, math.nan, math.nan]) | (st.sampled_from([True, False, "1.0"]) | too_large | too_large.map(lambda v: -v)).flatmap(
    lambda v: st.sampled_from([[v, 1.0, 0.5], [1.0, v, 0.5], [1.0, 2.0, v]])
)


@given(
    st.lists(wire_entry, min_size=NUM_LANDMARKS, max_size=NUM_LANDMARKS),
    st.integers(0, NUM_LANDMARKS - 1),
    faulty_entry,
    typed_fault,
    st.sampled_from(["as drawn", "one entry", "one typed entry", "all valid"]),
)
@settings(max_examples=800, deadline=None)
def test_landmark_decoder_matches_the_per_point_rules(raw, slot, fault, typed, shape):
    if shape != "as drawn":
        raw = [e if old_point_rules([e]) is None else None for e in raw]
    if shape == "one entry":
        raw[slot] = fault
    if shape == "one typed entry":
        raw[slot] = typed
    obj = {"frame_id": 0, "t": 0.0, "w": 640, "h": 480, "landmarks": raw, "blur_var": None, "feat_row": None}
    # NaN and Infinity travel as JSON literals.
    text = json.dumps(obj)
    expected = old_point_rules(raw)
    try:
        rec, _ = frameio.frame_from_wire(json.loads(text))
    except ParseError as exc:
        assert expected is not None, str(exc)
        if sum(old_point_rules([e]) is not None for e in raw) == 1:
            assert str(exc) == expected
        return
    assert expected is None
    wire = json.dumps(frameio.frame_to_wire(rec)["landmarks"])
    assert wire == json.dumps([None if e is None else [float(v) for v in e] for e in raw])
    assert frameio.frame_from_wire(json.loads(json.dumps(frameio.frame_to_wire(rec))))[0] == rec


def wire_frame(landmarks) -> dict:
    return {"frame_id": 0, "t": 0.0, "w": 640, "h": 480, "landmarks": landmarks, "blur_var": None, "feat_row": None}


@pytest.mark.parametrize(
    "first, fifth, msg",
    [
        ([-1.0, 2.0, 0.5], ["1.0", 2.0, 0.5], r"landmark coordinates must be non-negative, got \(-1.0, 2.0\)"),
        ([1.0, 2.0, True], [-1.0, 2.0, 0.5], "landmark 0 conf must be a number, got True"),
        ([math.nan] * 3, [1.0], r"landmark coordinates must be finite, got \(nan, nan\)"),
    ],
)
def test_the_first_faulty_landmark_entry_is_named(first, fifth, msg):
    raw = [first] + [None] * 4 + [fifth] + [None] * 12
    with pytest.raises(ParseError, match=f"^{msg}$"):
        frameio.frame_from_wire(wire_frame(raw))


def test_float_subclass_landmarks_decode_like_floats():
    rows = [[10.0, 20.5, 0.9], None, [0, 3.5, 1], [4096.0, 0.0, 0.0]] + [None] * 14
    subclassed = [None if r is None else [np.float64(v) for v in r] for r in rows]
    rec, _ = frameio.frame_from_wire(wire_frame(subclassed))
    assert rec == frameio.frame_from_wire(wire_frame(rows))[0]
    assert json.dumps(frameio.frame_to_wire(rec)["landmarks"]) == json.dumps(
        [None if r is None else [float(v) for v in r] for r in rows]
    )
    subclassed[3][2] = np.float64(1.5)
    with pytest.raises(ParseError, match=r"^landmark confidence must be in \[0, 1\], got 1.5$"):
        frameio.frame_from_wire(wire_frame(subclassed))


@given(st.lists(record_strategy, max_size=12))
@settings(max_examples=60, deadline=None)
def test_records_are_written_with_the_featured_frames_numbered_in_order(frames):
    buf = io.StringIO()
    matrix = frameio.write_frames_jsonl(frames, buf)
    rows = [json.loads(line)["feat_row"] for line in buf.getvalue().splitlines()]
    featured = [rec.features.values for rec in frames if rec.features is not None]
    assert [row for row in rows if row is not None] == list(range(len(featured)))
    assert [row is None for row in rows] == [rec.features is None for rec in frames]
    if featured:
        assert matrix.dtype == np.float32 and np.array_equal(matrix, np.stack(featured))
    else:
        assert matrix is None


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

    def test_loaded_matrix_is_read_only_and_bound_without_a_copy(self, tmp_path, rng):
        matrix = rng.random((4, FEATURE_DIM)).astype(np.float32)
        path = tmp_path / "feat.bin"
        frameio.save_features(matrix, path)
        loaded = frameio.load_features(path)
        assert loaded.dtype == np.float32 and not loaded.flags.writeable
        with pytest.raises(ValueError):
            loaded[0, 0] = 0.5
        # No holder can make the matrix writable again, so a write cannot reach a frame bound to it.
        with pytest.raises(ValueError):
            loaded.flags.writeable = True
        attached = frameio.attach_features(parsed_with_rows([3, None, 0]), loaded)
        assert np.shares_memory(attached.features, loaded)
        assert np.shares_memory(attached[0].features.values, loaded)
        assert np.array_equal(attached[2].features.values, matrix[0])

    def test_any_other_matrix_is_copied_and_left_as_it_was(self, rng):
        parsed = parsed_with_rows([0, 1])
        writable = rng.random((2, FEATURE_DIM)).astype(np.float32)
        read_only_f64 = writable.astype(np.float64)
        read_only_view = writable[:]
        big_endian = writable.astype(">f4")
        # Each of these two can be made writable again: the owner by its holder, the view through its bytearray.
        read_only_owner = writable.copy()
        over_bytearray = np.frombuffer(bytearray(writable.tobytes()), dtype=np.float32).reshape(writable.shape)
        for read_only in (read_only_f64, read_only_view, big_endian, read_only_owner, over_bytearray):
            read_only.flags.writeable = False
        for matrix in (writable, read_only_f64, read_only_view, big_endian, read_only_owner, over_bytearray):
            writeable = matrix.flags.writeable
            attached = frameio.attach_features(parsed, matrix)
            assert not np.shares_memory(attached.features, matrix)
            assert attached.features.dtype == np.float32 and not attached.features.flags.writeable
            assert np.array_equal(attached.features, writable)
            assert matrix.flags.writeable == writeable


def mask_rule(matrix: np.ndarray):
    """Reference: the former range check, a mask over every cell; the first bad cell's (row, col, value) or None."""
    bad = ~((matrix >= 0.0) & (matrix <= 1.0))
    if bool(bad.any()):
        row, col = (int(v) for v in np.argwhere(bad)[0])
        return row, col, float(matrix[row, col])
    return None


in_range_float32 = st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), st.floats(0.0, 1.0, width=32))
any_float32 = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1e-45, 1.0000001, 2.0]),
    st.floats(width=32, allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(
    matrix=hnp.arrays(np.float32, st.tuples(st.integers(0, 6), st.just(FEATURE_DIM)), elements=in_range_float32),
    injected=st.lists(st.tuples(st.integers(0, 5), st.integers(0, FEATURE_DIM - 1), any_float32), max_size=4),
)
def test_range_check_names_the_cell_the_mask_rule_names(matrix, injected):
    for row, col, value in injected:
        if row < len(matrix):
            matrix[row, col] = value
    want = mask_rule(matrix)
    if want is None:
        frameio._check_feature_matrix(matrix)
        return
    with pytest.raises(RangeViolation) as excinfo:
        frameio._check_feature_matrix(matrix)
    got = excinfo.value
    assert (got.row, got.col) == want[:2]
    assert np.float64(got.value).tobytes() == np.float64(want[2]).tobytes()


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

    @pytest.mark.parametrize(
        "change, msg",
        [
            (lambda obj: [obj], "manifest must be a JSON object"),
            (lambda obj: dict(obj, entries=[dict(obj["entries"][0], rank=1)]), r"unknown entry keys \['rank'\]"),
            (lambda obj: {k: v for k, v in obj.items() if k != "m"}, r"malformed manifest: KeyError\('m'\)"),
            (lambda obj: dict(obj, entries=5), r"malformed manifest: TypeError\("),
            (lambda obj: dict(obj, k="3"), "k must be an integer, got '3'"),
            (lambda obj: dict(obj, k=1), "manifest holds 2 entries but k=1"),
        ],
        ids=["not an object", "unknown entry key", "missing key", "entries not a list", "string k", "too many entries"],
    )
    def test_malformed_manifest_is_parse_error(self, tmp_path, change, msg):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(change(frameio.manifest_to_dict(self.manifest()))))
        with pytest.raises(ParseError, match=f"^{msg}"):
            frameio.read_summary_manifest(path)

    @pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
    def test_undecodable_json_is_parse_error(self, tmp_path, text):
        path = tmp_path / "summary.json"
        path.write_bytes(text)
        with pytest.raises(ParseError, match="^invalid JSON: "):
            frameio.read_summary_manifest(path)


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
        path = tmp_path / "frame.pgm"
        frameio.save_pgm(img, path)
        assert np.array_equal(frameio.load_pgm(path), img)

    @pytest.mark.parametrize(
        "image",
        [np.full((4, 4), 300), np.full((4, 4), 0.9), np.zeros((4, 4, 3), dtype=np.uint8)],
        ids=["int64", "float64", "three-channel"],
    )
    def test_writer_rejects_what_a_pgm_cannot_hold(self, tmp_path, image):
        path = tmp_path / "frame.pgm"
        with pytest.raises(ValueError, match=f"dtype {image.dtype}"):
            frameio.save_pgm(image, path)
        assert not path.exists()
        # Small images are valid PGMs.
        tiny = np.array([[0, 255], [7, 9]], dtype=np.uint8)
        frameio.save_pgm(tiny, path)
        assert np.array_equal(frameio.load_pgm(path), tiny)

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "frame.pgm"
        path.write_bytes(b"JFIF....")
        with pytest.raises(ParseError):
            frameio.load_pgm(path)

    @pytest.mark.parametrize(
        "data",
        [b"P5\nab 3\n255\n", b"P5\n# comment without newline", b"P5\n-3 3\n255\n", b"P5\n3 -3\n255\n"],
    )
    def test_malformed_header_is_parse_error(self, tmp_path, data):
        path = tmp_path / "frame.pgm"
        path.write_bytes(data + b"\x00" * 16)
        with pytest.raises(ParseError):
            frameio.load_pgm(path)

    @pytest.mark.parametrize(
        "header, field",
        [(b"P5\n1_0 3\n255\n", "width"), (b"P5 +4 3 255\n", "width"), (b"P5 4 -0 255\n", "height"), (b"P5\n4 3\n25_5\n", "maxval")],
    )
    def test_header_fields_must_be_decimal_digits(self, tmp_path, header, field):
        # int() takes a sign and underscores; the header takes only digits.
        path = tmp_path / "frame.pgm"
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(ParseError, match=f"PGM header {field} must be decimal digits"):
            frameio.load_pgm(path)

    @pytest.mark.parametrize(
        "header", [b"P5\n" + b"9" * 5000 + b" 3\n255\n", b"P5\n0 " + b"9" * 20 + b"\n255\n"], ids=["digits", "empty"]
    )
    def test_header_numbers_past_what_python_or_numpy_hold_are_parse_errors(self, tmp_path, header):
        # int() takes at most 4,300 digits; a zero-width image passes the payload check at any height.
        path = tmp_path / "frame.pgm"
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(ParseError, match="PGM header numbers too large"):
            frameio.load_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "frame.pgm"
        path.write_bytes(b"P5\n10 10\n255\n" + b"\x00" * 5)
        with pytest.raises(ParseError):
            frameio.load_pgm(path)
