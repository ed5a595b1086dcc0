"""The whole-session (table) path against the per-record path, over generated sessions.

Each reference below is the per-record code the table path replaced: the
per-line parser, the per-frame filter loop over ``classify_frame``, the
summarizer over stacked records and the server's ``Session`` run frame by
frame. The sessions are drawn to sit on the rules' edges.
"""

import contextlib
import gc
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import centered_person
from robosum import frameio, model, scenario, service
from robosum.content_filter import FilterConfig, FilterReport, classify_frame, filter_frames
from robosum.controller import ControllerConfig
from robosum.errors import InvalidImage, OrderError, ParseError, PipelineError, TimestampsNotIncreasing
from robosum.model import (
    ABSENT,
    FEATURE_DIM,
    FLOAT_MAX,
    L_HIP,
    MIN_POINT_CONFIDENCE,
    NECK,
    NOSE,
    NUM_LANDMARKS,
    R_HIP,
    FeatureVector,
    FrameRecord,
    FrameTable,
    IllPosedReason,
    LandmarkSet,
    SummaryEntry,
    SummaryManifest,
)
from robosum.scenario import ActivitySegment, Injection, ScenarioSpec, generate_session
from robosum.service import ServiceConfig, Session, dumps_wire, simulate_actions
from robosum.summarizer import SummarizerConfig, adapt_threshold, select_top_k_clusters, summarize

W, H = 640, 480
CFG = FilterConfig()
# Values on the rules' edges at 640x480: the corner margin (80 and 560), the torso
# fraction (a visible span of exactly 72 from 100 to 172), the forehead line (38.4)
# and the visibility floor.
XS = st.sampled_from([CFG.corner_margin_fraction * W, W - CFG.corner_margin_fraction * W, 320.0, 0.0]) | st.floats(0, W)
YS = st.sampled_from([100.0, 100.0 + CFG.min_torso_fraction * H, CFG.forehead_margin_fraction * H, 0.0]) | st.floats(0, H)
CONFS = st.sampled_from([MIN_POINT_CONFIDENCE, math.nextafter(MIN_POINT_CONFIDENCE, 0.0), 0.9, 0.0, 1.0]) | st.floats(0, 1)


@st.composite
def landmark_sets(draw):
    rows = [draw(st.none() | st.tuples(XS, YS, CONFS)) for _ in range(NUM_LANDMARKS)]
    shape = draw(st.sampled_from(["as drawn", "no nose", "one hip", "neck on a hip"]))
    if shape == "no nose":
        rows[NOSE] = None
    elif shape == "one hip":
        rows[draw(st.sampled_from([R_HIP, L_HIP]))] = None
    elif shape == "neck on a hip" and rows[NECK] is not None:
        rows[R_HIP] = rows[NECK]
    return LandmarkSet(points=[ABSENT if r is None else r for r in rows])


@st.composite
def sessions(draw, max_size=30, scoreless=True, increasing=False):
    """Records with unique ids and non-decreasing timestamps (strictly increasing if asked); some lack a blur score."""
    recs, t = [], 0.0
    for i in range(draw(st.integers(0, max_size))):
        t += draw(st.sampled_from([1.0, 0.5, 40.0]) if increasing else st.sampled_from([0.0, 1.0, 0.5, 40.0]))
        features = None
        if draw(st.booleans()):
            features = FeatureVector(values=np.random.default_rng(draw(st.integers(0, 2**16))).random(FEATURE_DIM))
        recs.append(FrameRecord(
            frame_id=3 * i + draw(st.integers(0, 2)),
            timestamp=t,
            width=draw(st.sampled_from([W, W, 64])),
            height=draw(st.sampled_from([H, H, 48])),
            landmarks=draw(st.none() | landmark_sets()),
            blur_variance=draw(st.sampled_from([CFG.blur_threshold, 99.5, 300.0, float(2**53)]) | (st.none() if scoreless else st.nothing())),
            features=features,
        ))
    return recs


def parse_by_line(lines):
    """Reference: the per-line parser, with its rules for ids and timestamps."""
    frames, rows, seen, dropped, last_t = [], [], set(), 0, None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            raise ParseError("blank line", line_no)
        try:
            obj = json.loads(line)
        except frameio.JSON_FAULTS as exc:
            raise ParseError(f"invalid JSON: {frameio._json_fault(exc)}", line_no) from exc
        rec, row = frameio.frame_from_wire(obj, line=line_no)
        if rec.frame_id in seen:
            raise ParseError(f"duplicate frame_id {rec.frame_id}", line_no)
        seen.add(rec.frame_id)
        if last_t is not None and rec.timestamp < last_t:
            raise OrderError(rec.frame_id)
        if last_t is not None and rec.timestamp == last_t:
            dropped += 1
            continue
        frames.append(rec)
        rows.append(-1 if row is None else row)
        last_t = rec.timestamp
    return frames, rows, dropped


#: Changes to one line's object: faults for the per-line rules, and values on the edge of what they accept.
FAULTS = {
    "blank": lambda obj: "",
    "not json": lambda obj: "{oops",
    "not an object": lambda obj: "[1, 2]",
    "missing key": lambda obj: {k: v for k, v in obj.items() if k != "h"},
    "extra key": lambda obj: dict(obj, shiny=1),
    "string t": lambda obj: dict(obj, t="1.0"),
    "bool w": lambda obj: dict(obj, w=True),
    "zero h": lambda obj: dict(obj, h=0),
    "negative blur": lambda obj: dict(obj, blur_var=-1.0),
    "NaN blur": lambda obj: dict(obj, blur_var=math.nan),
    "negative feat_row": lambda obj: dict(obj, feat_row=-1),
    "17 landmarks": lambda obj: dict(obj, landmarks=[None] * 17),
    "short entry": lambda obj: dict(obj, landmarks=[[1.0, 2.0]] + [None] * 17),
    "string entry": lambda obj: dict(obj, landmarks=["abc"] + [None] * 17),
    "NaN point": lambda obj: dict(obj, landmarks=[[math.nan] * 3] + [None] * 17),
    "confidence over 1": lambda obj: dict(obj, landmarks=[[1.0, 2.0, 1.5]] + [None] * 17),
    "negative x": lambda obj: dict(obj, landmarks=[[-1.0, 2.0, 0.5]] + [None] * 17),
    "huge x": lambda obj: dict(obj, landmarks=[[10**400, 2.0, 0.5]] + [None] * 17),
    "repeated id": lambda obj: dict(obj, frame_id=0),
    "earlier t": lambda obj: dict(obj, t=-1.0),
    # Integer fields lie within 2**53 - 1 of 0, so an int past int64 is a fault.
    "huge id": lambda obj: dict(obj, frame_id=obj["frame_id"] + 2**70),
    "huge feat_row": lambda obj: dict(obj, feat_row=2**70),
    # Accepted by the per-line rules, so the column checks must take them too:
    "integer t": lambda obj: dict(obj, t=int(obj["t"]) + 10**6),
    "integer point": lambda obj: dict(obj, landmarks=[[1, 2, 1]] + [None] * 17),
    # The largest int a float holds is kept; one more is too large, where numpy would round it down to a float.
    "largest int t": lambda obj: dict(obj, t=int(FLOAT_MAX)),
    "largest int blur": lambda obj: dict(obj, blur_var=int(FLOAT_MAX)),
    "largest int x": lambda obj: dict(obj, landmarks=[[int(FLOAT_MAX), 2.0, 0.5]] + [None] * 17),
    "int t past a float": lambda obj: dict(obj, t=int(FLOAT_MAX) + 1),
    "int blur past a float": lambda obj: dict(obj, blur_var=int(FLOAT_MAX) + 1),
    "int x past a float": lambda obj: dict(obj, landmarks=[[int(FLOAT_MAX) + 1, 2.0, 0.5]] + [None] * 17),
    # Python's strip() takes a form feed, JSON does not: the file reads a line as the wire does.
    "led by a form feed": lambda obj: "\x0c" + json.dumps(obj),
}


def outcome(parse, lines):
    try:
        return parse(lines)
    except (ParseError, OrderError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def check_parse(lines, chunk):
    expected = outcome(parse_by_line, lines)
    with mock.patch.object(frameio, "_CHUNK_LINES", chunk):
        got = outcome(frameio.parse_frames_jsonl, lines)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
    else:
        assert isinstance(got, frameio.ParseResult)
        assert (list(got.frames), got.frames.feat_row.tolist(), got.duplicates_dropped) == expected
        assert_sets_held_once(got.frames)


def assert_sets_held_once(table):
    """``table.points`` holds one landmark set per frame that has one, in frame order, and nothing else."""
    rows = table.point_row[table.point_row >= 0]
    assert rows.tolist() == list(range(len(rows)))
    assert table.points.shape == (len(rows), NUM_LANDMARKS, 3)


def wire_lines(records):
    buf = io.StringIO()
    frameio.write_frames_jsonl(records, buf)
    return buf.getvalue().splitlines(keepends=True)


#: An equal-``t`` frame with landmarks, dropped inside a chunk of 3 or as a whole chunk of 1; a file with nobody in it.
EQUAL_T = [FrameRecord(i, t, W, H, None if i == 2 else centered_person()) for i, t in enumerate([0.0, 0.0, 1.0, 2.0])]
NOBODY = [FrameRecord(i, float(i), W, H) for i in range(4)]


@settings(max_examples=40, deadline=None)
@given(sessions(), st.sampled_from([1, 3, 1024]))
@example(EQUAL_T, 1)
@example(EQUAL_T, 3)
@example(NOBODY, 3)
def test_parse_matches_the_per_line_parser(records, chunk):
    check_parse(wire_lines(records), chunk)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@settings(max_examples=8, deadline=None)
@given(records=sessions(max_size=8), chunk=st.sampled_from([1, 3, 1024]), where=st.integers(0, 7))
def test_a_faulty_line_is_named_as_the_per_line_parser_names_it(fault, records, chunk, where):
    lines = wire_lines(records) or [json.dumps(frameio.frame_to_wire(FrameRecord(0, 0.0, W, H))) + "\n"]
    i = where % len(lines)
    changed = FAULTS[fault](json.loads(lines[i]))
    lines[i] = (changed if isinstance(changed, str) else json.dumps(changed)) + "\n"
    check_parse(lines, chunk)


@pytest.mark.parametrize("chunk", [1, 2, 1024])
def test_the_cross_line_rules_compare_the_floats_the_frames_hold(chunk):
    # An int t of 2**53 + 1 holds the float 2**53, so the float 2**53 after it is an equal timestamp, not an earlier one.
    ts = [2**53 + 1, float(2**53), float(2**53 + 2)]
    lines = [json.dumps(dict(frameio.frame_to_wire(FrameRecord(i, 0.0, W, H)), t=t)) + "\n" for i, t in enumerate(ts)]
    check_parse(lines, chunk)
    with mock.patch.object(frameio, "_CHUNK_LINES", chunk):
        parsed = frameio.parse_frames_jsonl(lines)
    assert (parsed.frames.frame_id.tolist(), parsed.duplicates_dropped) == ([0, 2], 1)


@pytest.mark.parametrize("key", ["frame_id", "w", "h", "feat_row"])
@pytest.mark.parametrize("value", [2**53 - 1, 2**53, -(2**53), 2**70])
def test_an_integer_field_lies_in_the_i_json_range_on_both_paths(key, value):
    # Six lines in chunks of three; the value goes on the last line of a chunk, the first chunk's or the file's.
    records = [FrameRecord(i, float(i), W, H, centered_person() if i % 2 else None, 300.0) for i in range(6)]
    for line_no in (3, 6):
        lines = wire_lines(records)
        lines[line_no - 1] = json.dumps(dict(json.loads(lines[line_no - 1]), **{key: value})) + "\n"
        check_parse(lines, 3)
        with mock.patch.object(frameio, "_CHUNK_LINES", 3):
            if value == 2**53 - 1:  # kept as a column, with no walk
                with mock.patch.object(frameio._Parse, "walk", side_effect=AssertionError("a chunk was walked")):
                    column = getattr(frameio.parse_frames_jsonl(lines).frames, key)
                assert column.dtype == np.int64 and column[line_no - 1] == value
            else:
                fault = f"line {line_no}: {key} must lie in [-(2**53 - 1), 2**53 - 1]"
                assert outcome(frameio.parse_frames_jsonl, lines) == (ParseError, fault, line_no)


def as_ints(value):
    """A line's value with every integral float in it an int, as a hand-written file may spell it."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return [as_ints(v) for v in value] if isinstance(value, list) else value


@settings(max_examples=40, deadline=None)
@given(sessions(), st.sampled_from([1, 3, 1024]))
def test_integer_values_are_kept_as_columns(records, chunk):
    floats = wire_lines(records)
    ints = []
    for line in floats:
        obj = json.loads(line)
        ints.append(json.dumps(dict(obj, **{key: as_ints(obj[key]) for key in ("t", "blur_var", "landmarks")})) + "\n")
    with mock.patch.object(frameio, "_CHUNK_LINES", chunk):
        expected = frameio.parse_frames_jsonl(floats)
        with mock.patch.object(frameio._Parse, "walk", side_effect=AssertionError("a chunk was walked")):
            got = frameio.parse_frames_jsonl(ints)
    assert (list(got.frames), got.frames.feat_row.tolist(), got.duplicates_dropped) == (
        list(expected.frames), expected.frames.feat_row.tolist(), expected.duplicates_dropped
    )


def images_for(log, missing_every=0):
    """A provider that records the ids it is asked for; one id in ``missing_every`` has no image."""

    def provider(rec):
        log.append(rec.frame_id)
        if missing_every and rec.frame_id % missing_every == 0:
            return None
        rng = np.random.default_rng(rec.frame_id)
        return np.full((8, 8), 7, dtype=np.uint8) if rec.frame_id % 2 else rng.integers(0, 256, (8, 8), dtype=np.uint8)

    return provider


def filter_by_record(frames, cfg, images):
    """Reference: the per-frame loop over classify_frame."""
    accepted, counts = [], {reason: 0 for reason in IllPosedReason}
    for rec in frames:
        image = images(rec) if rec.blur_variance is None else None
        try:
            reason = classify_frame(rec, cfg, image=image)
        except InvalidImage as exc:
            raise type(exc)(f"frame {rec.frame_id}: {exc}") from exc
        if reason is None:
            accepted.append(rec)
        else:
            counts[reason] += 1
    return [r.frame_id for r in accepted], FilterReport(len(frames), len(accepted), counts)


# The largest int threshold, which a float holds exactly: a score of 2**53 - 2 is blurred, one of 2**53 is not.
FILTER_CONFIGS = st.sampled_from([CFG, FilterConfig(blur_threshold=100), FilterConfig(blur_threshold=2**53 - 1)])


@settings(max_examples=60, deadline=None)
@given(sessions(), FILTER_CONFIGS, st.sampled_from([0, 5]))
@example([FrameRecord(0, 0.0, W, H, centered_person(), float(2**53 - 2))], FilterConfig(blur_threshold=2**53 - 1), 0)
# An int score a float cannot hold: a record holds it as a float, as a file would, so both paths see 2**53.
@example([FrameRecord(0, 0.0, W, H, centered_person(), 2**53 + 1)], FilterConfig(blur_threshold=2**53 - 1), 0)
def test_filter_matches_the_per_frame_rules(records, cfg, missing_every):
    calls, expected_calls = [], []
    try:
        expected = filter_by_record(records, cfg, images_for(expected_calls, missing_every))
    except PipelineError as exc:  # the same fault must stop both paths at the same frame
        expected = (type(exc), str(exc))
    try:
        accepted, report = filter_frames(FrameTable.of(records), cfg, images=images_for(calls, missing_every))
        got = ([r.frame_id for r in accepted], report)
    except PipelineError as exc:
        got = (type(exc), str(exc))
    assert got == expected
    assert calls == expected_calls


def summarize_by_record(frames, cfg):
    """Reference: clusters of records, each keyframe from its stacked feature vectors."""
    if len(frames) < cfg.k:
        entries = [SummaryEntry(i + 1, f.frame_id, f.timestamp, 1) for i, f in enumerate(frames)]
        return SummaryManifest(cfg.k, 0.0, len(frames), tuple(entries))
    h_star, clusters = adapt_threshold([f.timestamp for f in frames], cfg.k, cfg.h0)
    entries = []
    for cluster in select_top_k_clusters(clusters, cfg.k):
        members = [frames[i] for i in cluster.frame_ids]
        matrix = np.stack([f.features.values for f in members]).astype(np.float64)
        dists = np.linalg.norm(matrix - matrix.mean(axis=0), axis=1)
        best = min((d, f.timestamp, f) for d, f in zip(dists.tolist(), members) if d == dists.min())[2]
        entries.append(SummaryEntry(cluster.index, best.frame_id, best.timestamp, cluster.size))
    return SummaryManifest(cfg.k, h_star, len(clusters), tuple(sorted(entries, key=lambda e: e.timestamp)))


@settings(max_examples=40, deadline=None)
@given(sessions(max_size=40, scoreless=False, increasing=True), st.integers(1, 6))
def test_summarize_matches_the_per_record_summary(records, k):
    featured = [r for r in records if r.features is not None]
    cfg = SummarizerConfig(k=k, h0=7.0)
    expected = summarize_by_record(featured, cfg)
    assert summarize(featured, cfg) == expected
    # The same frames parsed and attached, as the batch path reads them.
    buf = io.StringIO()
    matrix = frameio.write_frames_jsonl(featured, buf)
    buf.seek(0)
    if matrix is not None:
        assert summarize(frameio.attach_features(frameio.parse_frames_jsonl(buf), matrix), cfg) == expected


def frame_line(rec: FrameRecord) -> bytes:
    """A record as the ``frame`` message a client sends, its features inline."""
    features = None if rec.features is None else rec.features.values.tolist()
    return dumps_wire({"type": "frame", **frameio.frame_to_wire(rec), "features": features}).encode("utf-8")


def summary_or_fault(summary):
    try:
        return summary()
    except PipelineError as exc:
        return type(exc), str(exc)


HALF = FeatureVector(values=np.full(FEATURE_DIM, 0.5))
#: A session whose frames all lack features; one with the largest and the least ids; one whose third featured frame
#: has no blur score, so its classification raises.
UNFEATURED = [FrameRecord(i, float(i), W, H, centered_person(), 300.0) for i in range(3)]
EDGE_IDS = [FrameRecord(i, float(n), W, H, centered_person(), 300.0, HALF) for n, i in enumerate([1, 2**53 - 1, -(2**53 - 1), 3])]
UNSCORED_MIDWAY = [
    FrameRecord(i, 40.0 * i, W, H, centered_person(), None if i == 2 else 300.0, FeatureVector(values=np.full(FEATURE_DIM, i / 8)))
    for i in range(5)
]


@settings(max_examples=60, deadline=None)
@given(sessions(), st.integers(1, 6))
@example([], 2)
@example(UNFEATURED, 1)
@example(EDGE_IDS, 2)
@example(EDGE_IDS, 5)
@example(UNSCORED_MIDWAY, 2)
def test_a_server_session_summarizes_its_kept_frames_as_summarize_does(records, k):
    cfg = SummarizerConfig(k=k, h0=7.0)
    session = Session(ServiceConfig())
    kept = []
    for line_no, rec in enumerate(records, start=1):
        try:
            keep = rec.features is not None and classify_frame(rec) is None
        except PipelineError:  # a featured frame without a blur score
            before = summary_or_fault(lambda: session.end(cfg))
            reply, done = service._answer(session, frame_line(rec), line_no)
            assert done and json.loads(reply)["code"] == "data_error"
            assert summary_or_fault(lambda: session.end(cfg)) == before
            continue
        assert service._answer(session, frame_line(rec), line_no)[1] is False
        if keep:
            kept.append(rec)
    assert len(session.t) == len(kept)
    assert summary_or_fault(lambda: session.end(cfg)) == summary_or_fault(lambda: summarize(kept, cfg))
    session.close()


def test_a_session_takes_frames_and_ends_again_while_its_failed_end_is_held():
    # The first two kept frames share a time, so end raises; the exception pytest holds keeps end's frames alive.
    records = [FrameRecord(i, float(max(i, 1)), W, H, centered_person(), 300.0, HALF) for i in range(5002)]
    cfg = SummarizerConfig(k=2, h0=7.0)
    with contextlib.closing(Session(ServiceConfig())) as session:
        for line_no, rec in enumerate(records[:2], start=1):
            assert service._answer(session, frame_line(rec), line_no)[1] is False
        with pytest.raises(TimestampsNotIncreasing) as excinfo:
            session.end(cfg)
        for line_no, rec in enumerate(records[2:], start=3):
            assert service._answer(session, frame_line(rec), line_no)[1] is False
        assert len(session.t) == len(records)
        fault = (TimestampsNotIncreasing, str(excinfo.value))
        assert summary_or_fault(lambda: session.end(cfg)) == summary_or_fault(lambda: summarize(records, cfg)) == fault


# Integer settings stay integers in the action lines ("forward_m":1, not 1.0).
CONTROLLER_CONFIGS = st.sampled_from([ControllerConfig(), ControllerConfig(forward_step_m=1, stop_distance_m=1, fov_h_deg=62)])


#: Int timestamps past 2**53: 24 search turns, then idle from 2**53 + 4 until 2**53 + 904. The last
#: frame's time is just before that as an int, and rounds to it as a float.
IDLE_EDGE = [FrameRecord(k, 2**53 + 4 * k - 92, W, H) for k in range(25)] + [FrameRecord(25, 2**53 + 903, W, H)]


@settings(max_examples=40, deadline=None)
@given(sessions(max_size=40), CONTROLLER_CONFIGS)
@example(IDLE_EDGE, ControllerConfig())
def test_simulate_matches_the_server_session_frame_by_frame(records, cfg):
    buf = io.StringIO()
    frameio.write_frames_jsonl(records, buf)
    buf.seek(0)
    parsed = frameio.parse_frames_jsonl(buf)
    for frames in (records, parsed.frames):
        session = Session(ServiceConfig(controller_config=cfg))
        assert simulate_actions(frames, cfg) == [session.frame(rec) for rec in list(frames)]


#: Feature-file rows a frames file may hold: none, small ones, and ones past any matrix.
FEAT_ROWS = st.none() | st.integers(0, 3) | st.sampled_from([10**9, 2**53 - 1])


@settings(max_examples=40, deadline=None)
@given(sessions(scoreless=False), st.lists(FEAT_ROWS, min_size=30, max_size=30), FILTER_CONFIGS)
def test_filter_writes_each_kept_frame_as_the_line_it_was_read_from(records, rows, cfg):
    # What ``robosum filter`` does: the filter never reads features, so no matrix is bound.
    lines = [json.dumps(frameio.frame_to_wire(rec, row)) + "\n" for rec, row in zip(records, rows)]
    accepted, _ = filter_frames(frameio.parse_frames_jsonl(lines).frames, cfg)
    buf = io.StringIO()
    assert frameio.write_frames_jsonl(accepted, buf) is None
    line_of = {rec.frame_id: line for rec, line in zip(records, lines)}
    assert buf.getvalue().splitlines(keepends=True) == [line_of[i] for i in accepted.frame_id.tolist()]


# --- Blocks: a whole-session stage works a fixed number of rows at a time ------------------------------------------


@settings(max_examples=40, deadline=None)
@given(sessions(max_size=40, increasing=True), CONTROLLER_CONFIGS, st.integers(1, 6))
def test_blocked_stages_equal_their_one_block_results(records, cfg, k):
    table = FrameTable.of(records)
    featured = table.take(table.feat_row >= 0)

    def stages():
        calls = []
        accepted, report = filter_frames(table, images=images_for(calls))
        return simulate_actions(table, cfg), list(accepted), report, calls, summarize(featured, SummarizerConfig(k=k, h0=7.0))

    one_block = stages()  # no drawn session reaches the default block size
    for rows in (1, 2, 3, 7):
        with mock.patch.object(model, "_BLOCK_ROWS", rows):
            assert stages() == one_block


# --- Shared matrices: a part of a table copies its per-frame columns, never its points or features ---------------------


def same_matrix(part, whole):
    """Whether ``part`` is ``whole`` or a view of its memory; an empty matrix or None only by identity."""
    return part is whole or (part is not None and whole is not None and np.shares_memory(part, whole))


@settings(max_examples=40, deadline=None)
@given(sessions(max_size=12), st.data())
def test_a_tables_parts_share_its_matrices_and_give_each_frame_its_points(records, data):
    table, n = FrameTable.of(records), len(records)
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
    start, stop = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    accepted, _ = filter_frames(table, images=images_for([]))
    kept = set(accepted.frame_id.tolist())
    parts = [
        (table, records),
        (table.take(np.array(mask, dtype=bool)), [r for r, m in zip(records, mask) if m]),
        (table.take(indices), [records[i] for i in indices]),
        (table.take(slice(start, stop)), records[start:stop]),
        (accepted, [r for r in records if r.frame_id in kept]),
    ]
    with mock.patch.object(model, "_BLOCK_ROWS", 3):
        parts += [(block, records[at : at + 3]) for at, block in table.blocks()]
    for part, _ in parts:
        assert same_matrix(part.points, table.points) and same_matrix(part.features, table.features)
    for part, expected in parts:
        assert list(part) == expected
        points = part.frame_points()
        assert points.shape == (len(expected), NUM_LANDMARKS, 3)
        for got, rec in zip(points, expected):
            assert np.array_equal(got, [ABSENT] * NUM_LANDMARKS if rec.landmarks is None else rec.landmarks.points, equal_nan=True)


@pytest.mark.parametrize("segments", [(ActivitySegment(5.0, 20.0, activity_id=3),), ()], ids=["a person at times", "nobody"])
def test_a_generated_table_holds_the_landmark_sets_of_its_frames_only(segments):
    made = []

    def table(*columns):
        made.append(FrameTable(*columns))
        return made[-1]

    spec = ScenarioSpec(duration_s=30.0, fps=1.0, activity_segments=segments, rng_seed=3)
    with mock.patch.object(scenario, "FrameTable", side_effect=table):
        frames, truth = generate_session(spec)
    (generated,) = made
    assert_sets_held_once(generated)
    assert (generated.point_row < 0).tolist() == [t.reason is IllPosedReason.PEOPLE_ABSENT for t in truth]
    assert list(generated) == frames


#: 6,000 frames with two 600 s activity segments: most frames show nobody, so the filter keeps few, and each of
#: the two clusters the summary finds is many blocks long.
LONG_SPEC = ScenarioSpec(
    duration_s=6000.0,
    fps=1.0,
    activity_segments=(ActivitySegment(500.0, 1100.0, activity_id=3), ActivitySegment(4000.0, 4600.0, activity_id=9)),
    ill_posed_injections=(Injection(600.0, 620.0, IllPosedReason.BLURRED),),
    rng_seed=5,
)


def held_beyond_output(call):
    """``call()``, and the most bytes it held at once beyond those it left allocated (its output), by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = call()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - left


def test_batch_stages_hold_a_few_blocks_beyond_their_outputs():
    rows = 48
    table = FrameTable.of(generate_session(LONG_SPEC)[0])
    block = rows * (sum(getattr(table, name)[:1].nbytes for name in FrameTable.__slots__[:8]) + table.features[:1].nbytes)
    cfg = SummarizerConfig(k=2, h0=60.0)
    with mock.patch.object(model, "_BLOCK_ROWS", rows):
        # One block's columns: a session-sized temporary of 8 bytes a frame (48 KB here) would not fit beside a block's.
        (accepted, _), held = held_beyond_output(lambda: filter_frames(table))
        assert held <= block
        _, held = held_beyond_output(lambda: simulate_actions(table))
        assert held <= block
        # The four blocks also hold the clusters' tuples of frame positions, about 33 bytes an accepted frame.
        _, held = held_beyond_output(lambda: summarize(accepted, cfg))
        assert held <= 4 * block


def test_blur_scoring_holds_two_int16_interiors_an_image_and_a_block():
    rows, shape = 48, (480, 640)
    table = FrameTable.of(
        [FrameRecord(i, float(i), W, H, centered_person(), None, FeatureVector(values=np.full(FEATURE_DIM, i % 7 / 8))) for i in range(3 * rows)]
    )
    block = rows * (sum(getattr(table, name)[:1].nbytes for name in FrameTable.__slots__[:8]) + table.features[:1].nbytes)
    pool = [np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8) for seed in range(4)]
    interior = (shape[0] - 2) * (shape[1] - 2) * np.dtype(np.int16).itemsize
    with mock.patch.object(model, "_BLOCK_ROWS", rows):
        # Each call makes a fresh image, as loading a PGM does; an int32 array of squares would not fit.
        (_, report), held = held_beyond_output(lambda: filter_frames(table, images=lambda rec: pool[rec.frame_id % 4].copy()))
    assert report.total == 3 * rows
    # Beside those, the iterator that casts the responses to int32 for their row sums buffers 8,192 of each operand.
    assert held <= 2 * interior + pool[0].nbytes + block + 2 * 8192 * 4


def test_a_server_session_holds_16_bytes_a_kept_frame_and_a_few_blocks():
    rows, n = 48, 3000
    lines = [
        frame_line(FrameRecord(i, float(i), W, H, centered_person(), 300.0, FeatureVector(values=np.full(FEATURE_DIM, i % 7 / 8))))
        for i in range(n)
    ]
    block = rows * FEATURE_DIM * 8  # a block of float64 feature rows
    with mock.patch.object(model, "_BLOCK_ROWS", rows):
        gc.collect()
        tracemalloc.start()
        try:
            session = Session(ServiceConfig())
            for line_no, line in enumerate(lines, start=1):
                assert service._answer(session, line, line_no)[1] is False
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The id and time arrays, with a sixteenth of slack; the features file's buffer and the session's state fit in a block.
        assert held <= 16 * n * 17 // 16 + block
        with contextlib.closing(session):
            # k = 1 makes one cluster of every frame. Beside the blocks, the summary holds the cluster's tuple of frame
            # positions (36 B a frame), the threshold search's arrays (9 B a frame) and the copy of the times (8 B a frame).
            manifest, held_at_end = held_beyond_output(lambda: session.end(SummarizerConfig(k=1)))
    assert len(session.t) == n and len(manifest.entries) == 1
    assert held_at_end <= 48 * n + 4 * block
