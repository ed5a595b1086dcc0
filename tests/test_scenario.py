"""Generator determinism, label soundness, and spec validation."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robosum.content_filter import FilterConfig, classify_frame, filter_frames, variance_of_laplacian
from robosum.errors import PipelineError
from robosum.frameio import write_frames_jsonl
from robosum.model import (
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
)
from robosum.scenario import (
    _BBOX_FACTOR,
    _BODY_DROP,
    _EYE_RISE,
    _HEAD_RISE,
    _HIP_DX,
    _HIP_DY,
    _POINT_CONFIDENCE,
    ActivitySegment,
    FrameTruth,
    Injection,
    ScenarioSpec,
    Waypoint,
    frame_image,
    generate_session,
    spec_from_dict,
    spec_to_dict,
)
from robosum.summarizer import SummarizerConfig, summarize

ALL_REASONS = list(IllPosedReason)


def spec_with_all_reasons(seconds_per_reason=60.0, fps=1.0, seed=5):
    segments = (ActivitySegment(start_s=0.0, end_s=1200.0, activity_id=17, feature_noise_sigma=0.02),)
    injections = tuple(
        Injection(
            start_s=100.0 + i * 100.0,
            end_s=100.0 + i * 100.0 + seconds_per_reason,
            reason=reason,
        )
        for i, reason in enumerate(ALL_REASONS)
    )
    return ScenarioSpec(
        duration_s=1200.0,
        fps=fps,
        activity_segments=segments,
        ill_posed_injections=injections,
        rng_seed=seed,
    )


class TestGeneration:
    def test_no_injections_means_all_well_posed(self):
        spec = ScenarioSpec(
            duration_s=30.0,
            fps=1.0,
            activity_segments=(ActivitySegment(0.0, 30.0, activity_id=3),),
        )
        frames, truth = generate_session(spec)
        assert len(frames) == 30
        assert all(t.well_posed for t in truth)
        assert all(t.segment_id == 0 for t in truth)

    def test_frames_outside_segments_have_no_person(self):
        spec = ScenarioSpec(
            duration_s=20.0,
            fps=1.0,
            activity_segments=(ActivitySegment(5.0, 10.0, activity_id=3),),
        )
        frames, truth = generate_session(spec)
        for rec, t in zip(frames, truth):
            if 5.0 <= rec.timestamp < 10.0:
                assert t.well_posed and rec.landmarks is not None
            else:
                assert t.reason is IllPosedReason.PEOPLE_ABSENT and rec.landmarks is None

    def test_same_seed_is_byte_identical(self):
        spec = spec_with_all_reasons(seed=9)
        a_frames, a_truth = generate_session(spec)
        b_frames, b_truth = generate_session(spec)
        assert a_truth == b_truth
        assert a_frames == b_frames

    def test_different_seeds_differ(self):
        a, _ = generate_session(spec_with_all_reasons(seed=1))
        b, _ = generate_session(spec_with_all_reasons(seed=2))
        assert any(x.blur_variance != y.blur_variance for x, y in zip(a, b))

    def test_features_stay_in_unit_interval(self):
        spec = ScenarioSpec(
            duration_s=50.0,
            fps=2.0,
            activity_segments=(ActivitySegment(0.0, 50.0, activity_id=0, feature_noise_sigma=0.8),),
        )
        frames, _ = generate_session(spec)
        for rec in frames:
            values = rec.features.values
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_timestamps_on_fps_grid(self):
        spec = ScenarioSpec(duration_s=3.0, fps=4.0)
        frames, _ = generate_session(spec)
        assert [f.timestamp for f in frames] == [i / 4.0 for i in range(12)]


class TestLabelSoundness:
    def test_filter_reproduces_truth_exactly(self):
        spec = spec_with_all_reasons()
        frames, truth = generate_session(spec)
        for rec, t in zip(frames, truth):
            got = classify_frame(rec, FilterConfig())
            assert got is t.reason, f"frame {rec.frame_id}: {got} != {t.reason}"

    def test_every_reason_appears(self):
        spec = spec_with_all_reasons()
        _, truth = generate_session(spec)
        by_reason = {r: 0 for r in ALL_REASONS}
        for t in truth:
            if t.reason is not None:
                by_reason[t.reason] += 1
        assert all(count >= 50 for count in by_reason.values())

    def test_ten_frames_four_injected(self):
        spec = ScenarioSpec(
            duration_s=10.0,
            fps=1.0,
            activity_segments=(ActivitySegment(0.0, 10.0, activity_id=8),),
            ill_posed_injections=(
                Injection(2.0, 4.0, IllPosedReason.BLURRED),
                Injection(6.0, 8.0, IllPosedReason.TOO_SMALL),
            ),
        )
        frames, truth = generate_session(spec)
        accepted, report = filter_frames(frames)
        assert report.total == 10
        assert report.accepted == 6
        assert len(accepted) == 6
        assert report.rejected_by_reason[IllPosedReason.BLURRED] == 2
        assert report.rejected_by_reason[IllPosedReason.TOO_SMALL] == 2
        assert {r.frame_id for r in accepted} == {t.frame_id for t in truth if t.well_posed}

    def test_report_total_bookkeeping_at_table_scale(self):
        # 50634 frames at 30 fps, matching the largest per-session frame
        # count exercised in practice.
        spec = ScenarioSpec(
            duration_s=50634 / 30.0,
            fps=30.0,
            activity_segments=(ActivitySegment(0.0, 800.0, activity_id=9),),
        )
        frames, _ = generate_session(spec)
        _, report = filter_frames(frames)
        assert report.total == 50634
        assert report.accepted + sum(report.rejected_by_reason.values()) == 50634

    def test_moving_person_stays_sound(self):
        spec = ScenarioSpec(
            duration_s=60.0,
            fps=1.0,
            activity_segments=(ActivitySegment(0.0, 60.0, activity_id=2),),
            person_trajectory=(
                Waypoint(t=0.0, x=200.0, y=170.0, torso_px=150.0),
                Waypoint(t=60.0, x=440.0, y=190.0, torso_px=110.0),
            ),
        )
        frames, truth = generate_session(spec)
        for rec, t in zip(frames, truth):
            assert classify_frame(rec, FilterConfig()) is t.reason


class TestSegmentsDriveSummaries:
    def test_eight_segments_one_keyframe_each(self):
        segments = []
        t = 0.0
        for i in range(8):
            segments.append(ActivitySegment(t, t + 40.0, activity_id=i * 10))
            t += 40.0 + 600.0
        spec = ScenarioSpec(duration_s=t, fps=1.0, activity_segments=tuple(segments))
        frames, truth = generate_session(spec)
        well_posed = [f for f, tr in zip(frames, truth) if tr.well_posed]
        manifest = summarize(well_posed, SummarizerConfig(k=8, h0=60.0))
        assert len(manifest.entries) == 8
        segment_of = {tr.frame_id: tr.segment_id for tr in truth}
        assert sorted(segment_of[e.frame_id] for e in manifest.entries) == list(range(8))


class TestSpecValidation:
    def test_overlapping_segments_rejected(self):
        with pytest.raises(PipelineError, match="activity segments must be sorted and non-overlapping"):
            ScenarioSpec(
                duration_s=10.0,
                fps=1.0,
                activity_segments=(
                    ActivitySegment(0.0, 5.0, activity_id=0),
                    ActivitySegment(4.0, 8.0, activity_id=1),
                ),
            )

    def test_bad_activity_id_rejected(self):
        with pytest.raises(PipelineError, match=r"activity_id must be in \[0, 157\), got 157"):
            ActivitySegment(0.0, 5.0, activity_id=157)

    def test_overlapping_injections_rejected(self):
        with pytest.raises(PipelineError, match="ill-posed injections must not overlap"):
            ScenarioSpec(
                duration_s=10.0,
                fps=1.0,
                ill_posed_injections=(
                    Injection(0.0, 5.0, IllPosedReason.BLURRED),
                    Injection(4.0, 9.0, IllPosedReason.TOO_SMALL),
                ),
            )

    @pytest.mark.parametrize(
        "build, msg",
        [
            (lambda: ActivitySegment(5.0, 5.0, activity_id=0), r"segment \[5.0, 5.0\) is empty or reversed"),
            (lambda: ActivitySegment(0.0, 5.0, activity_id=0, feature_noise_sigma=-0.1), "feature_noise_sigma must be non-negative"),
            (lambda: Injection(5.0, 1.0, IllPosedReason.BLURRED), r"injection \[5.0, 1.0\) is empty or reversed"),
            (lambda: ScenarioSpec(duration_s=-1.0, fps=1.0), "duration_s must be non-negative"),
            (lambda: ScenarioSpec(duration_s=5.0, fps=1.0, frame_height=7), "frame dimensions are too small to place a person"),
            (
                lambda: ScenarioSpec(duration_s=5.0, fps=1.0, person_trajectory=(Waypoint(2.0, 1.0, 1.0, 1.0), Waypoint(1.0, 1.0, 1.0, 1.0))),
                "trajectory waypoints must be sorted by time",
            ),
        ],
        ids=["empty segment", "negative noise", "reversed injection", "negative duration", "tiny frame", "unsorted waypoints"],
    )
    def test_spec_part_rules(self, build, msg):
        with pytest.raises(PipelineError, match=f"^{msg}$"):
            build()

    def test_trajectory_breaking_intended_label_is_loud(self):
        # A person walked into the corner cannot be labeled well-posed.
        spec = ScenarioSpec(
            duration_s=10.0,
            fps=1.0,
            activity_segments=(ActivitySegment(0.0, 10.0, activity_id=0),),
            person_trajectory=(Waypoint(t=0.0, x=10.0, y=170.0, torso_px=150.0),),
        )
        with pytest.raises(PipelineError, match="cannot realize label"):
            generate_session(spec)


class TestSpecSerialization:
    def test_round_trip(self):
        spec = replace(spec_with_all_reasons(), person_trajectory=(Waypoint(0.0, 320.0, 170.0, 150.0),))
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_unknown_keys_rejected(self):
        obj = spec_to_dict(ScenarioSpec(duration_s=5.0, fps=1.0))
        obj["typo"] = 1
        with pytest.raises(PipelineError, match=r"unknown keys \['typo'\]"):
            spec_from_dict(obj)

    def test_missing_keys_rejected(self):
        obj = spec_to_dict(ScenarioSpec(duration_s=5.0, fps=1.0))
        del obj["fps"]
        with pytest.raises(PipelineError, match=r"^scenario spec: missing keys \['fps'\]$"):
            spec_from_dict(obj)
        obj["fps"] = 1.0
        obj["ill_posed_injections"] = [{"start_s": 0.0, "end_s": 1.0}]
        with pytest.raises(PipelineError, match=r"^ill_posed_injections\[0\]: missing keys \['reason'\]$"):
            spec_from_dict(obj)

    def test_unknown_reason_rejected(self):
        obj = spec_to_dict(ScenarioSpec(duration_s=5.0, fps=1.0))
        obj["ill_posed_injections"] = [{"start_s": 0.0, "end_s": 1.0, "reason": "Sideways"}]
        with pytest.raises(PipelineError, match="unknown ill-posed reason 'Sideways'"):
            spec_from_dict(obj)


class TestFrameImages:
    def test_blurred_image_scores_zero(self):
        img = frame_image(3, blurred=True)
        assert variance_of_laplacian(img) == 0.0

    def test_noise_image_scores_sharp(self):
        img = frame_image(3, blurred=False, seed=1)
        assert variance_of_laplacian(img) > FilterConfig().blur_threshold

    def test_images_deterministic_per_seed_and_frame(self):
        assert np.array_equal(frame_image(5, False, seed=2), frame_image(5, False, seed=2))
        assert not np.array_equal(frame_image(5, False, seed=2), frame_image(6, False, seed=2))


# --- The per-frame reference generator -----------------------------------------------------------------------
# generate_session builds a session as columns. This is the same generator written frame by frame, with scalar
# Python arithmetic: one trajectory point, one skeleton, one LandmarkSet, one FeatureVector and one oracle call per
# frame, and a dict of skeletons keyed by the label and the trajectory point rounded to 4 decimals.


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


def _build_landmarks(cx, neck_y, torso, width, height, drop_eyes=False) -> LandmarkSet:
    """An 18-point skeleton; points outside the frame are absent."""
    nose_y = neck_y - _HEAD_RISE * torso
    spots = {
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


def _geometry_for(reason, cx, neck_y, torso, spec, cfg) -> LandmarkSet | None:
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
    return _build_landmarks(cx, neck_y, torso, w, h, drop_eyes=reason is IllPosedReason.EYES_INVISIBLE)


def _check_intended(frame_id, reason, lm, blur, spec, cfg) -> None:
    """The built frame must match its intended label, by the rule arithmetic written out again."""
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


def reference_session(spec: ScenarioSpec, cfg: FilterConfig | None = None):
    """(frames, truth) as generate_session gives them, built one frame at a time."""
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
    reasons = [None if segment_id[i] >= 0 else IllPosedReason.PEOPLE_ABSENT for i in range(n)]
    for inj in spec.ill_posed_injections:
        for i in np.flatnonzero((times >= inj.start_s) & (times < inj.end_s)):
            reasons[int(i)] = inj.reason
    noise = rng.normal(0.0, 1.0, size=(n, FEATURE_DIM)) if n else np.zeros((0, FEATURE_DIM))
    sharp_blur = cfg.blur_threshold + 50.0 + 250.0 * rng.random(n)
    dull_blur = cfg.blur_threshold * (0.2 + 0.3 * rng.random(n))
    features = sigma[:, None] * noise
    rows = np.flatnonzero(onehot_col >= 0)
    features[rows, onehot_col[rows]] += 1.0
    np.clip(features, 0.0, 1.0, out=features)
    features = features.astype(np.float32)

    landmark_cache = {}
    frames, truth = [], []
    for i in range(n):
        t = float(times[i])
        reason = reasons[i]
        cx, neck_y, torso = _trajectory_at(spec, t)
        key = (reason, round(cx, 4), round(neck_y, 4), round(torso, 4))
        if key in landmark_cache:
            lm = landmark_cache[key]
        else:
            lm = landmark_cache[key] = _geometry_for(reason, cx, neck_y, torso, spec, cfg)
        blur = float(dull_blur[i] if reason is IllPosedReason.BLURRED else sharp_blur[i])
        _check_intended(i, reason, lm, blur, spec, cfg)
        frames.append(FrameRecord(i, t, spec.frame_width, spec.frame_height, lm, blur, FeatureVector(values=features[i])))
        segment = int(segment_id[i]) if segment_id[i] >= 0 else None
        truth.append(FrameTruth(frame_id=i, reason=reason, segment_id=segment))
    return frames, truth


def outcome(generate, spec, cfg):
    """What ``generate`` makes of the spec: the written frames, feature matrix, records and truth, or its error."""
    try:
        frames, truth = generate(spec, cfg)
    except Exception as exc:  # the error itself is the outcome, whatever its type
        return type(exc), str(exc)
    out = io.StringIO()
    matrix = write_frames_jsonl(frames, out)
    return out.getvalue(), None if matrix is None else matrix.tobytes(), frames, truth


#: Sizes past where a float holds every int (2**53) and past int64 (2**63), as the spec allows them.
BIG = (2**53, 2**53 + 1, 2**64, 2**64 + 1, 2**70 + 3)
FRACTIONS = st.sampled_from([0.15, 0.125, 0.08, 0.001, 0.499]) | st.floats(0.001, 0.499)


@st.composite
def generator_cases(draw):
    """A small spec (at most 24 frames) and the filter config its labels must hold under."""
    fps = draw(st.sampled_from([1.0, 2.0, 0.5, 3]) | st.floats(0.2, 5.0))
    n = draw(st.integers(0, 24))
    width = draw(st.sampled_from([640, 64, 8, *BIG]) | st.integers(8, 2000))
    height = draw(st.sampled_from([480, 48, 8, *BIG]) | st.integers(8, 2000))
    # Segment and injection edges on frame times, or between them.
    edges = st.lists(st.integers(0, 2 * n), max_size=6, unique=True).map(lambda e: [v / (2 * fps) for v in sorted(e)])
    bounds = draw(edges)
    segments = tuple(
        ActivitySegment(a, b, activity_id=draw(st.integers(0, FEATURE_DIM - 1)),
                        feature_noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.8])))
        for a, b in zip(bounds[::2], bounds[1::2])
    )
    bounds = draw(edges)
    injections = tuple(Injection(a, b, draw(st.sampled_from(list(IllPosedReason)))) for a, b in zip(bounds[::2], bounds[1::2]))
    # Positions and sizes relative to the frame, some of which break labels: at an edge, past it, tiny or huge.
    xs = st.sampled_from([0.5, 0.3, 0.7, 0.02, 0.99, 1.0, 1.5]).map(lambda f: f * width) | st.just(float(width))
    ys = st.sampled_from([0.35, 0.2, 0.1, 0.02, 0.9, 1.0]).map(lambda f: f * height) | st.just(float(height))
    torsos = st.sampled_from([0.3125, 0.25, 0.02, 0.5, 2.0]).map(lambda f: f * height) | st.floats(0.001, 3000.0)
    times = sorted(draw(st.lists(st.floats(0.0, max(n / fps, 1.0)), max_size=3)))
    trajectory = tuple(Waypoint(t, draw(xs), draw(ys), draw(torsos)) for t in times)
    spec = ScenarioSpec(
        duration_s=n / fps, fps=fps, activity_segments=segments, ill_posed_injections=injections,
        person_trajectory=trajectory, rng_seed=draw(st.integers(0, 2**32)), frame_width=width, frame_height=height,
    )
    thresholds = st.sampled_from([100.0, 0, 0.0, 2**53 + 1, 2**60 + 1, 1e300]) | st.floats(0.0, 1e4) | st.integers(0, 2**70)
    cfg = FilterConfig(
        blur_threshold=draw(thresholds),
        min_torso_fraction=draw(FRACTIONS),
        corner_margin_fraction=draw(FRACTIONS),
        forehead_margin_fraction=draw(FRACTIONS),
    )
    return spec, cfg


def one_segment(n, *waypoints, injections=(), seed=0, width=640, height=480):
    """An ``n``-frame 1 fps spec whose frames are all in one segment."""
    return ScenarioSpec(
        duration_s=float(n), fps=1.0, activity_segments=(ActivitySegment(0.0, float(n), activity_id=4),),
        ill_posed_injections=injections, person_trajectory=waypoints, rng_seed=seed, frame_width=width, frame_height=height,
    )


DEFAULT_CFG = FilterConfig()


@settings(max_examples=150, deadline=None)
@given(generator_cases())
# Frames 0 and 1 differ by 4e-5 px but share the key 533.1033, so frame 1 takes frame 0's skeleton; numpy's
# rounding would give frame 0 the key 533.1034 and frame 1 its own skeleton.
@example((one_segment(2, Waypoint(0, 533.10331, 170.0, 150.0), Waypoint(1, 533.10335, 170.0, 150.0)), DEFAULT_CFG))
# The neck lies at y = 2**53 in a frame 2**53 + 1 high (and at 2**64 in one 2**64 + 1 high): inside it, as
# Python compares the float with the int; numpy rounds the height to the float 2**53 (2**64) first.
@example((one_segment(1, Waypoint(0, 2.0**54, 2.0**53, 1e16), width=2**55, height=2**53 + 1), DEFAULT_CFG))
@example((one_segment(1, Waypoint(0, 2.0**63, 2.0**64, 1e19), width=2**64 + 1, height=2**64 + 1), DEFAULT_CFG))
# Each of the oracle's messages that a spec can reach ("landmarks present", "person too large" and "an eye is
# still visible" cannot be: the generator builds those labels so that they hold), each at frame 0.
@example((one_segment(1, Waypoint(0, 960.0, 170.0, 150.0)), DEFAULT_CFG))  # no visible landmarks
@example((one_segment(1, injections=(Injection(0, 1, IllPosedReason.BLURRED),)), FilterConfig(blur_threshold=0)))
# The threshold 2**60 + 1 plus 50.0 is the float 2**60, below it: frame unintentionally blurred.
@example((one_segment(1), FilterConfig(blur_threshold=2**60 + 1)))
@example((one_segment(1, Waypoint(0, 320.0, 170.0, 10.0)), DEFAULT_CFG))  # person unintentionally too small
# The neck is below the frame and the right-hand points past its left edge, so the centre of what is seen
# is right of the margin: person not at a corner.
@example((
    one_segment(1, Waypoint(0, 320.0, 480.0, 700.0), injections=(Injection(0, 1, IllPosedReason.AT_CORNER),)),
    FilterConfig(min_torso_fraction=0.001),
))
@example((one_segment(1, Waypoint(0, 10.0, 170.0, 150.0)), DEFAULT_CFG))  # person unintentionally at a corner
@example((  # nose not above the forehead margin
    one_segment(1, Waypoint(0, 320.0, 170.0, 1000.0), injections=(Injection(0, 1, IllPosedReason.FOREHEAD_CROPPED),)),
    DEFAULT_CFG,
))
@example((one_segment(1, Waypoint(0, 320.0, 80.0, 150.0)), DEFAULT_CFG))  # forehead unintentionally cropped
@example((one_segment(1, Waypoint(0, 320.0, 50.0, 150.0)), DEFAULT_CFG))  # eyes unintentionally invisible
# Frame 2 is both too small and at a corner: the first check in order names it.
@example((one_segment(3, Waypoint(0, 320.0, 170.0, 150.0), Waypoint(2, 10.0, 170.0, 10.0)), DEFAULT_CFG))
def test_generator_matches_the_per_frame_reference(case):
    spec, cfg = case
    assert outcome(generate_session, spec, cfg) == outcome(reference_session, spec, cfg)


def test_records_view_one_read_only_table():
    frames, _ = generate_session(spec_with_all_reasons())
    person = next(f for f in frames if f.landmarks is not None)
    assert not person.landmarks.points.flags.writeable and not person.features.values.flags.writeable
    assert frames[1].features.values.base is frames[0].features.values.base
