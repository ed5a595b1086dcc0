"""Blur scoring against a naive oracle and rejection-rule precedence."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centered_person, frame, landmarks
from robosum.content_filter import (
    FilterConfig,
    FilterReport,
    classify_frame,
    filter_frames,
    variance_of_laplacian,
)
from robosum.errors import ImageTooSmall, InvalidImage, MissingBlurScore, PipelineError
from robosum import model
from robosum.model import IllPosedReason


def laplacian_variance_oracle(image) -> float:
    """Naive nested-loop convolution + two-pass population variance."""
    img = [[float(v) for v in row] for row in image]
    rows, cols = len(img), len(img[0])
    responses = []
    for r in range(1, rows - 1):
        for c in range(1, cols - 1):
            responses.append(
                img[r - 1][c] + img[r + 1][c] + img[r][c - 1] + img[r][c + 1] - 4.0 * img[r][c]
            )
    mean = sum(responses) / len(responses)
    return sum((v - mean) ** 2 for v in responses) / len(responses)


def laplacian_variance_exact(image) -> float:
    """Integer Laplacian sums and one correctly rounded division, in pure Python."""
    img = [[int(v) for v in row] for row in image]
    rows, cols = len(img), len(img[0])
    n = s1 = s2 = 0
    for r in range(1, rows - 1):
        above, row, below = img[r - 1], img[r], img[r + 1]
        for c in range(1, cols - 1):
            v = above[c] + below[c] + row[c - 1] + row[c + 1] - 4 * row[c]
            n += 1
            s1 += v
            s2 += v * v
    return float(Fraction(n * s2 - s1 * s1, n * n))


class TestVarianceOfLaplacian:
    def test_constant_image_is_exactly_zero(self):
        for size in ((3, 3), (5, 8), (64, 64)):
            assert variance_of_laplacian(np.full(size, 128, dtype=np.uint8)) == 0.0

    def test_single_bright_pixel_4x4(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        img[1, 1] = 255
        # Interior responses are {-1020, 255, 255, 0}; population variance
        # of those four values is 276356.25.
        assert variance_of_laplacian(img) == pytest.approx(276356.25, abs=0.0)

    def test_matches_oracle_on_random_images(self, rng):
        for _ in range(40):
            rows = int(rng.integers(3, 65))
            cols = int(rng.integers(3, 65))
            img = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
            got = variance_of_laplacian(img)
            want = laplacian_variance_oracle(img)
            assert got == pytest.approx(want, rel=1e-9)

    def test_uint8_is_exact_and_correctly_rounded(self, rng):
        images = [
            rng.integers(0, 256, size=(int(rng.integers(3, 81)), int(rng.integers(3, 81))), dtype=np.uint8)
            for _ in range(60)
        ]
        checkerboard = ((np.indices((480, 640)).sum(axis=0) % 2) * 255).astype(np.uint8)
        images += [
            np.full((480, 640), 200, dtype=np.uint8),
            rng.integers(0, 256, size=(480, 640), dtype=np.uint8),
            checkerboard,
        ]
        for img in images:
            assert variance_of_laplacian(img) == laplacian_variance_exact(img)
        # Every response is +-1020, the extreme the int16 kernel must hold.
        assert variance_of_laplacian(checkerboard) == 1040400.0

    def test_exact_past_the_widest_int32_row_sum(self, rng):
        # Up to 2,064 squares of 1,020 fit an int32 row sum; wider rows are summed in column pieces.
        for shape in ((3, 2066), (3, 2067), (3, 4200)):
            checkerboard = ((np.indices(shape).sum(axis=0) % 2) * 255).astype(np.uint8)
            assert variance_of_laplacian(checkerboard) == laplacian_variance_exact(checkerboard)
        # Every response is +-1020 and they balance; without the pieces the row sums wrap and this reads about 17,301.5.
        assert variance_of_laplacian(checkerboard) == 1040400.0
        # With three rows or three columns, the rim strips that give the response sum overlap.
        for n in (3, 4, 5, 17, 2066, 4200):
            for shape in ((3, n), (n, 3)):
                img = rng.integers(0, 256, size=shape, dtype=np.uint8)
                assert variance_of_laplacian(img) == laplacian_variance_exact(img)

    def test_rejects_tiny_images(self):
        with pytest.raises(ImageTooSmall):
            variance_of_laplacian(np.zeros((2, 5)))
        with pytest.raises(ImageTooSmall):
            variance_of_laplacian(np.zeros((5, 2)))

    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.uint16])
    def test_image_of_another_dtype_is_rejected_naming_it(self, dtype):
        image = np.full((8, 8), 7, dtype=dtype)
        named = f"got dtype {np.dtype(dtype).name}$"
        with pytest.raises(ValueError, match=named):
            variance_of_laplacian(image)
        for lm in (None, centered_person()):
            with pytest.raises(ValueError, match=named):
                classify_frame(frame(0, 0.0, lm=lm, blur=None), image=image)
        # The size check comes first.
        with pytest.raises(ImageTooSmall):
            variance_of_laplacian(np.zeros((2, 5), dtype=dtype))


class TestClassifyFrame:
    def test_no_landmarks_is_people_absent(self):
        rec = frame(0, 0.0, lm=None, blur=500.0)
        assert classify_frame(rec) is IllPosedReason.PEOPLE_ABSENT

    def test_all_points_below_confidence_is_people_absent(self):
        rec = frame(0, 0.0, lm=centered_person(conf=0.1), blur=500.0)
        assert classify_frame(rec) is IllPosedReason.PEOPLE_ABSENT

    def test_blur_below_threshold(self):
        rec = frame(0, 0.0, lm=centered_person(), blur=50.0)
        assert classify_frame(rec, FilterConfig(blur_threshold=100.0)) is IllPosedReason.BLURRED

    def test_eyes_invisible_fires_after_all_other_rules_pass(self):
        rec = frame(0, 0.0, lm=centered_person(drop=("r_eye", "l_eye")), blur=500.0)
        assert classify_frame(rec) is IllPosedReason.EYES_INVISIBLE

    def test_one_visible_eye_is_enough(self):
        rec = frame(0, 0.0, lm=centered_person(drop=("r_eye",)), blur=500.0)
        assert classify_frame(rec) is None

    def test_too_small(self):
        lm = landmarks(
            nose=(320, 200),
            r_eye=(318, 198),
            l_eye=(322, 198),
            neck=(320, 215),
            r_hip=(318, 240),
            l_hip=(322, 240),
        )
        rec = frame(0, 0.0, lm=lm, blur=500.0)
        assert classify_frame(rec) is IllPosedReason.TOO_SMALL

    def test_at_corner_by_neck(self):
        lm = centered_person()
        shifted = landmarks(
            **{
                name: (x - 280, y)
                for name, (x, y, _) in {
                    "nose": lm.points[model.NOSE],
                    "r_eye": lm.points[model.R_EYE],
                    "l_eye": lm.points[model.L_EYE],
                    "neck": lm.points[model.NECK],
                    "r_hip": lm.points[model.R_HIP],
                    "l_hip": lm.points[model.L_HIP],
                    "r_ankle": lm.points[model.R_ANKLE],
                    "l_ankle": lm.points[model.L_ANKLE],
                }.items()
            }
        )
        rec = frame(0, 0.0, lm=shifted, blur=500.0)
        assert classify_frame(rec) is IllPosedReason.AT_CORNER

    def test_at_corner_falls_back_to_bbox_center_without_neck(self):
        lm = landmarks(
            nose=(20, 110),
            r_eye=(16, 104),
            l_eye=(24, 104),
            r_hip=(15, 320),
            l_hip=(25, 320),
            r_ankle=(14, 460),
        )
        rec = frame(0, 0.0, lm=lm, blur=500.0)
        assert classify_frame(rec) is IllPosedReason.AT_CORNER

    def test_forehead_cropped(self):
        lm = landmarks(
            nose=(320, 10),
            r_eye=(310, 4),
            l_eye=(330, 4),
            neck=(320, 60),
            r_hip=(305, 200),
            l_hip=(335, 200),
            r_ankle=(300, 430),
            l_ankle=(340, 430),
        )
        rec = frame(0, 0.0, lm=lm, blur=500.0)
        assert classify_frame(rec) is IllPosedReason.FOREHEAD_CROPPED

    def test_well_posed(self):
        rec = frame(0, 0.0, lm=centered_person(), blur=500.0)
        assert classify_frame(rec) is None

    def test_precedence_people_absent_beats_blur(self):
        rec = frame(0, 0.0, lm=None, blur=0.0)
        assert classify_frame(rec) is IllPosedReason.PEOPLE_ABSENT

    def test_precedence_blur_beats_too_small(self):
        lm = landmarks(nose=(320, 200), r_eye=(318, 198), l_eye=(322, 198), neck=(320, 215))
        rec = frame(0, 0.0, lm=lm, blur=10.0)
        assert classify_frame(rec) is IllPosedReason.BLURRED

    def test_missing_blur_score_raises_with_frame_id(self):
        rec = frame(7, 0.0, lm=centered_person(), blur=None)
        with pytest.raises(MissingBlurScore) as excinfo:
            classify_frame(rec)
        assert excinfo.value.frame_id == 7

    def test_blur_computed_from_supplied_image(self, rng):
        rec = frame(0, 0.0, lm=centered_person(), blur=None)
        flat = np.full((32, 32), 77, dtype=np.uint8)
        assert classify_frame(rec, image=flat) is IllPosedReason.BLURRED
        noisy = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        assert classify_frame(rec, image=noisy) is None

    def test_people_absent_without_score_still_checks_the_image(self):
        rec = frame(3, 0.0, lm=None, blur=None)
        with pytest.raises(MissingBlurScore):
            classify_frame(rec, image=None)
        with pytest.raises(ImageTooSmall):
            classify_frame(rec, image=np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            classify_frame(rec, image=np.zeros((8, 8, 3), dtype=np.uint8))
        assert classify_frame(rec, image=np.zeros((8, 8), dtype=np.uint8)) is IllPosedReason.PEOPLE_ABSENT


class TestFilterFrames:
    def test_empty_input(self):
        accepted, report = filter_frames([])
        assert accepted == []
        assert report.total == 0 and report.accepted == 0
        assert all(count == 0 for count in report.rejected_by_reason.values())

    def test_mixed_batch_counts_and_order(self):
        frames = [
            frame(0, 0.0, lm=centered_person(), blur=500.0),
            frame(1, 1.0, lm=None, blur=500.0),
            frame(2, 2.0, lm=centered_person(), blur=10.0),
            frame(3, 3.0, lm=centered_person(), blur=500.0),
            frame(4, 4.0, lm=centered_person(drop=("r_eye", "l_eye")), blur=500.0),
            frame(5, 5.0, lm=None, blur=500.0),
        ]
        accepted, report = filter_frames(frames)
        assert [r.frame_id for r in accepted] == [0, 3]
        assert report.total == 6
        assert report.accepted == 2
        assert report.rejected_by_reason[IllPosedReason.PEOPLE_ABSENT] == 2
        assert report.rejected_by_reason[IllPosedReason.BLURRED] == 1
        assert report.rejected_by_reason[IllPosedReason.EYES_INVISIBLE] == 1

    def test_image_provider_called_only_for_frames_without_a_score(self, rng):
        frames = [
            frame(0, 0.0, lm=centered_person(), blur=500.0),
            frame(1, 1.0, lm=centered_person(), blur=None),
            frame(2, 2.0, lm=None, blur=500.0),
            frame(3, 3.0, lm=None, blur=None),
            frame(4, 4.0, lm=centered_person(), blur=10.0),
            frame(5, 5.0, lm=centered_person(), blur=None),
        ]
        requested = []

        def provider(rec):
            requested.append(rec.frame_id)
            return rng.integers(0, 256, size=(16, 16), dtype=np.uint8)

        _, report = filter_frames(frames, images=provider)
        assert requested == [1, 3, 5]
        assert report.total == 6

    def test_images_changing_shape_midway_are_scored_as_variance_of_laplacian_scores_them(self, rng):
        shapes = [(480, 640), (3, 3), (7, 9), (480, 640), (5, 2100), (480, 640)]
        images = {i: rng.integers(0, 256, size=shape, dtype=np.uint8) for i, shape in enumerate(shapes)}
        images[6] = rng.integers(0, 256, size=(11, 13), dtype=np.uint8)
        frames = [frame(i, float(i), lm=None if i == 2 else centered_person(), blur=None) for i in range(6)]
        frames.insert(3, frame(6, 2.5, lm=centered_person(), blur=500.0))
        want = {i: variance_of_laplacian(images[i]) for i in (0, 1, 3, 4, 5)}
        want[6] = 500.0
        # A frame is accepted exactly when its blur reaches the threshold, so each threshold at a frame's
        # score, and the float just above it, shows the score every frame was given.
        for threshold in {t for v in want.values() for t in (v, math.nextafter(v, math.inf))}:
            requested = []

            def provider(rec):
                requested.append(rec.frame_id)
                return images[rec.frame_id]

            accepted, _ = filter_frames(frames, FilterConfig(blur_threshold=threshold), images=provider)
            assert requested == [0, 1, 2, 3, 4, 5]
            assert [r.frame_id for r in accepted] == [f.frame_id for f in frames if f.frame_id in want and want[f.frame_id] >= threshold]

    def test_config_values_must_be_finite(self):
        # A NaN threshold would turn the Blurred rule off: ``blur < nan`` is always false.
        for value in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(ValueError, match="blur_threshold must be a finite non-negative number"):
                FilterConfig(blur_threshold=value)
        # An int threshold is an integer field's value: no further from 0 than 2**53 - 1.
        for value in (2**53, 10**400):
            with pytest.raises(ValueError, match=re.escape("blur_threshold must lie in [-(2**53 - 1), 2**53 - 1]")):
                FilterConfig(blur_threshold=value)
        assert FilterConfig(blur_threshold=2**53 - 1).blur_threshold == 2**53 - 1
        for name in ("min_torso_fraction", "corner_margin_fraction", "forehead_margin_fraction"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    FilterConfig(**{name: value})
        assert FilterConfig(blur_threshold=0).blur_threshold == 0

    def test_report_must_balance(self):
        with pytest.raises(ValueError):
            FilterReport(total=5, accepted=3, rejected_by_reason={IllPosedReason.BLURRED: 1})

    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=400.0)),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_accounting_balances_on_random_sessions(self, spec):
        frames = [
            frame(i, float(i), lm=centered_person() if has_person else None, blur=blur)
            for i, (has_person, blur) in enumerate(spec)
        ]
        accepted, report = filter_frames(frames)
        assert report.accepted + sum(report.rejected_by_reason.values()) == report.total
        assert report.total == len(frames)
        assert report.accepted == len(accepted)
        assert [r.frame_id for r in accepted] == sorted(r.frame_id for r in accepted)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=60),
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_blur_threshold_never_accepts_more(self, blurs, t1, t2):
        lo, hi = sorted((t1, t2))
        frames = [frame(i, float(i), lm=centered_person(), blur=b) for i, b in enumerate(blurs)]
        _, low_report = filter_frames(frames, FilterConfig(blur_threshold=lo))
        _, high_report = filter_frames(frames, FilterConfig(blur_threshold=hi))
        assert high_report.accepted <= low_report.accepted

    def test_determinism(self):
        frames = [
            frame(i, float(i), lm=centered_person() if i % 3 else None, blur=float(40 * i))
            for i in range(30)
        ]
        first = filter_frames(frames)
        second = filter_frames(frames)
        assert [r.frame_id for r in first[0]] == [r.frame_id for r in second[0]]
        assert first[1] == second[1]

    def test_classify_errors_carry_the_offending_frame_id(self):
        frames = [
            frame(0, 0.0, lm=centered_person(), blur=500.0),
            frame(9, 1.0, lm=centered_person(), blur=None),
        ]
        with pytest.raises(MissingBlurScore, match="frame 9"):
            filter_frames(frames)
        with pytest.raises(ImageTooSmall, match="frame 9"):
            filter_frames(frames, images=lambda rec: np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "image, fault",
        [(np.zeros((8, 8)), "got dtype float64"), (np.zeros((8, 8, 3), dtype=np.uint8), "got ndim=3")],
        ids=["float64", "three-channel"],
    )
    def test_every_provider_image_fault_is_typed_and_names_the_frame(self, image, fault):
        frames = [frame(9, 1.0, lm=centered_person(), blur=None)]
        with pytest.raises(InvalidImage, match=f"^frame 9: .*{fault}$") as excinfo:
            filter_frames(frames, images=lambda rec: image)
        assert isinstance(excinfo.value, PipelineError) and isinstance(excinfo.value, ValueError)
