"""Generator determinism, label soundness, and spec validation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from robosum.content_filter import FilterConfig, classify_frame, filter_frames, variance_of_laplacian
from robosum.errors import PipelineError
from robosum.model import IllPosedReason
from robosum.scenario import (
    ActivitySegment,
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
