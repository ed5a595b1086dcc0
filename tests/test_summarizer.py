"""Clustering, threshold adaptation, and keyframe selection vs brute force."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import feature_from_pattern, features, frame
from robosum import summarizer
from robosum.errors import (
    InfeasibleK,
    MissingFeatures,
    NonTermination,
    PipelineError,
    TimestampsNotIncreasing,
)
from robosum.model import Cluster, FEATURE_DIM, FeatureVector, FrameTable
from robosum.summarizer import (
    MAX_THRESHOLD_STEPS,
    SummarizerConfig,
    adapt_threshold,
    assign_clusters,
    kmeans_keyframes,
    select_keyframe,
    select_top_k_clusters,
    summarize,
    uniform_keyframes,
)


def cluster_oracle(timestamps, h):
    """Single-pass reference partition: new group wherever gap >= h."""
    groups = [[0]]
    for i in range(1, len(timestamps)):
        if timestamps[i] - timestamps[i - 1] < h:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def keyframe_oracle(frame_ids, timestamps, matrix):
    """Frame-by-frame scan: min distance to mean, ties to earliest timestamp."""
    dim = len(matrix[0])
    mean = [sum(row[d] for row in matrix) / len(matrix) for d in range(dim)]
    best = None
    for fid, t, row in zip(frame_ids, timestamps, matrix):
        dist = math.dist(row, mean)
        if best is None or dist < best[0] or (dist == best[0] and t < best[1]):
            best = (dist, t, fid)
    return best[2]


def search_threshold(ts, k, h0, max_iters):
    """Reference threshold search: double or halve h from h0 until m(h) >= k > m(2h)."""
    gaps = np.diff(ts)
    h = float(h0)
    for _ in range(max_iters):
        m = 1 + int(np.count_nonzero(gaps >= h))
        if m >= k and 1 + int(np.count_nonzero(gaps >= 2.0 * h)) < k:
            return h
        h = 2.0 * h if m >= k else h / 2.0
    raise NonTermination(f"threshold search did not settle within {max_iters} iterations")


increasing_times = st.lists(
    st.floats(min_value=0.001, max_value=500.0), min_size=1, max_size=80
).map(lambda gaps: list(np.cumsum(gaps)))


class TestAssignClusters:
    def test_single_frame(self):
        clusters = assign_clusters([5.0], 60.0)
        assert len(clusters) == 1
        assert clusters[0].frame_ids == (0,)
        assert clusters[0].start_time == clusters[0].end_time == 5.0

    def test_hand_traced_split(self):
        clusters = assign_clusters([0.0, 10.0, 20.0, 100.0, 110.0], 60.0)
        assert [c.frame_ids for c in clusters] == [(0, 1, 2), (3, 4)]
        assert [c.index for c in clusters] == [1, 2]
        assert clusters[0].end_time == 20.0
        assert clusters[1].start_time == 100.0

    def test_threshold_above_max_gap_gives_one_cluster(self):
        ts = [0.0, 3.0, 9.0, 10.0]
        clusters = assign_clusters(ts, 6.0 + 1e-9)
        assert len(clusters) == 1
        assert clusters[0].frame_ids == (0, 1, 2, 3)

    def test_empty_input(self):
        with pytest.raises(PipelineError, match="no timestamps supplied"):
            assign_clusters([], 10.0)

    def test_frame_ids_are_positions(self):
        clusters = assign_clusters([1000.0, 1100.0, 1110.0], 50.0)
        assert [c.frame_ids for c in clusters] == [(0,), (1, 2)]

    def test_rejects_unsorted_timestamps(self):
        with pytest.raises(ValueError):
            assign_clusters([1.0, 1.0], 10.0)
        with pytest.raises(ValueError):
            assign_clusters([2.0, 1.0], 10.0)

    @given(increasing_times, st.floats(min_value=0.01, max_value=600.0))
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle_and_contiguity(self, ts, h):
        clusters = assign_clusters(ts, h)
        assert [list(c.frame_ids) for c in clusters] == cluster_oracle(ts, h)
        flat = [i for c in clusters for i in c.frame_ids]
        assert flat == list(range(len(ts)))
        for c in clusters:
            for a, b in zip(c.frame_ids, c.frame_ids[1:]):
                assert ts[b] - ts[a] < h
        for before, after in zip(clusters, clusters[1:]):
            assert ts[after.frame_ids[0]] - ts[before.frame_ids[-1]] >= h


class TestAdaptThreshold:
    def test_predicate_holds_immediately(self):
        h_star, clusters = adapt_threshold([0.0, 100.0, 200.0, 300.0], k=2, h0=60.0)
        assert h_star == 60.0
        assert [c.frame_ids for c in clusters] == [(0,), (1,), (2,), (3,)]

    def test_halving_trace_from_oversized_h0(self):
        # h: 500 -> 250 -> 125 -> 62.5; m(500)=m(250)=m(125)=1 < 2,
        # then m(62.5)=4 >= 2 with m(125)=1 < 2.
        h_star, clusters = adapt_threshold([0.0, 100.0, 200.0, 300.0], k=2, h0=500.0)
        assert h_star == 62.5
        assert len(clusters) == 4

    def test_n_equals_k_needs_all_singletons(self):
        ts = [0.0, 1.0, 5.0, 6.5, 9.0]
        h_star, clusters = adapt_threshold(ts, k=5, h0=60.0)
        assert len(clusters) == 5
        assert all(c.size == 1 for c in clusters)
        assert h_star <= min(b - a for a, b in zip(ts, ts[1:]))

    def test_k1_spans_everything(self):
        h_star, clusters = adapt_threshold([0.0, 1000.0, 5000.0], k=1, h0=60.0)
        assert math.isinf(h_star)
        assert len(clusters) == 1
        assert clusters[0].frame_ids == (0, 1, 2)

    def test_infeasible_k(self):
        with pytest.raises(InfeasibleK):
            adapt_threshold([0.0, 1.0], k=3, h0=60.0)

    @given(increasing_times, st.integers(min_value=2, max_value=12), st.floats(min_value=0.5, max_value=400.0))
    @settings(max_examples=120, deadline=None)
    def test_termination_predicate_recheck(self, ts, k, h0):
        if len(ts) < k:
            with pytest.raises(InfeasibleK):
                adapt_threshold(ts, k=k, h0=h0)
            return
        h_star, clusters = adapt_threshold(ts, k=k, h0=h0)
        # Re-verify with the independent partitioner.
        assert len(assign_clusters(ts, h_star)) >= k
        assert len(assign_clusters(ts, 2 * h_star)) < k
        assert len(clusters) == len(assign_clusters(ts, h_star))

    def test_iteration_budget_exhaustion_is_loud(self):
        ts = [0.0, 100.0, 200.0, 300.0]
        # Halving 1e30 down to a gap of 100 takes about 94 steps.
        with pytest.raises(NonTermination, match=f"within {MAX_THRESHOLD_STEPS} iterations"):
            adapt_threshold(ts, k=2, h0=1e30)
        # The budget is 64 steps: 63 halvings settle in the 64th, 64 would need a 65th.
        assert adapt_threshold(ts, k=2, h0=100.0 * 2.0**63)[0] == 100.0
        with pytest.raises(NonTermination):
            adapt_threshold(ts, k=2, h0=100.0 * 2.0**64)

    def test_h0_must_be_positive_and_finite(self):
        for h0 in (0.0, -1.0, math.nan, math.inf, 10**400):
            with pytest.raises(ValueError, match="h0 must be positive and finite"):
                adapt_threshold([0.0, 100.0, 200.0], k=2, h0=h0)

    @given(
        st.lists(
            st.sampled_from([1e-9, 0.5, 1.0, 60.0, 3600.0]) | st.floats(1e-9, 1e9),
            min_size=1,
            max_size=60,
        ),
        st.data(),
        st.floats(min_value=1e-12, max_value=1e12),
    )
    @settings(max_examples=400, deadline=None)
    def test_closed_form_equals_doubling_halving_search(self, gaps, data, h0):
        ts = np.unique(np.concatenate(([0.0], np.cumsum(gaps))))  # large sums absorb tiny gaps
        assume(ts.size >= 2)
        k = data.draw(st.integers(min_value=2, max_value=ts.size), label="k")
        try:
            expected = search_threshold(ts, k, h0, MAX_THRESHOLD_STEPS)
        except NonTermination as exc:
            with pytest.raises(NonTermination, match=str(exc)):
                adapt_threshold(ts, k=k, h0=h0)
            return
        h_star, clusters = adapt_threshold(ts, k=k, h0=h0)
        assert h_star.hex() == expected.hex()
        assert clusters == assign_clusters(ts, expected)

    def test_infinite_gap_never_settles(self):
        ts = [0.0, 1.0, math.inf]
        with pytest.raises(NonTermination):
            search_threshold(ts, 2, 60.0, 64)
        with pytest.raises(NonTermination):
            adapt_threshold(ts, k=2, h0=60.0)

    @given(increasing_times)
    @settings(max_examples=60, deadline=None)
    def test_cluster_count_non_increasing_in_h(self, ts):
        grid = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 300.0, 700.0]
        counts = [len(cluster_oracle(ts, h)) for h in grid]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        for h in grid:
            assert len(assign_clusters(ts, h)) == len(cluster_oracle(ts, h))


class TestSelectTopK:
    @staticmethod
    def _clusters(sizes, starts=None):
        starts = starts or list(range(len(sizes)))
        out = []
        fid = 0
        for i, (size, start) in enumerate(zip(sizes, starts)):
            ids = tuple(range(fid, fid + size))
            fid += size
            out.append(Cluster(index=i + 1, frame_ids=ids, start_time=float(start), end_time=float(start)))
        return out

    def test_identity_when_m_equals_k(self):
        clusters = self._clusters([2, 3, 1])
        assert select_top_k_clusters(clusters, 3) == clusters

    def test_keeps_largest_in_temporal_order(self):
        clusters = self._clusters([5, 1, 3, 3, 2])
        kept = select_top_k_clusters(clusters, 3)
        assert [c.size for c in kept] == [5, 3, 3]
        assert [c.index for c in kept] == [1, 3, 4]

    def test_tie_at_cut_prefers_earlier_start(self):
        clusters = self._clusters([2, 2, 2], starts=[10.0, 20.0, 30.0])
        kept = select_top_k_clusters(clusters, 2)
        assert [c.index for c in kept] == [1, 2]

    def test_too_few(self):
        with pytest.raises(PipelineError, match="have 2 clusters, need 3"):
            select_top_k_clusters(self._clusters([1, 1]), 3)


class TestSelectKeyframe:
    def test_single_frame(self):
        f = frame(11, 4.0, feats=features(0.5))
        assert select_keyframe([f]) == 11

    def test_nearest_to_mean_on_embedded_pattern(self):
        # Pattern (0,0), (1,1), (2,2) scaled into [0,1]; the middle point
        # coincides with the mean.
        cluster = [
            frame(0, 0.0, feats=feature_from_pattern((0.0, 0.0))),
            frame(1, 1.0, feats=feature_from_pattern((1.0, 1.0))),
            frame(2, 2.0, feats=feature_from_pattern((2.0, 2.0))),
        ]
        assert select_keyframe(cluster) == 1

    def test_distance_tie_prefers_earliest_timestamp(self):
        cluster = [
            frame(5, 10.0, feats=feature_from_pattern((0.0, 0.0))),
            frame(6, 20.0, feats=feature_from_pattern((2.0, 2.0))),
        ]
        assert select_keyframe(cluster) == 5

    def test_missing_features_names_frame(self):
        cluster = [frame(1, 0.0, feats=features(0.1)), frame(2, 1.0, feats=None)]
        with pytest.raises(MissingFeatures) as excinfo:
            select_keyframe(cluster)
        assert excinfo.value.frame_id == 2

    def test_matches_brute_force_on_random_clusters(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 40))
            matrix = rng.random((n, FEATURE_DIM))
            # Duplicate some rows to force exact distance ties.
            if n >= 4:
                matrix[n - 1] = matrix[0]
                matrix[n - 2] = matrix[1]
            ts = np.sort(rng.random(n) * 1000)
            ts = np.unique(ts)
            matrix = matrix[: len(ts)]
            cluster = [
                frame(100 + i, float(t), feats=FeatureVector(values=row))
                for i, (t, row) in enumerate(zip(ts, matrix))
            ]
            got = select_keyframe(cluster)
            want = keyframe_oracle(
                [f.frame_id for f in cluster],
                [f.timestamp for f in cluster],
                [f.features.values.astype(np.float64).tolist() for f in cluster],
            )
            assert got == want


def _session(timestamps, feature_rows, first_id=0):
    return [
        frame(first_id + i, float(t), feats=FeatureVector(values=row))
        for i, (t, row) in enumerate(zip(timestamps, feature_rows))
    ]


class TestSummarize:
    def test_short_session_falls_back_to_all_frames(self):
        frames = _session([0.0, 5.0, 9.0], np.full((3, FEATURE_DIM), 0.5))
        manifest = summarize(frames, SummarizerConfig(k=8))
        assert len(manifest.entries) == 3
        assert manifest.is_short_session
        assert manifest.h_star == 0.0
        assert [e.frame_id for e in manifest.entries] == [0, 1, 2]

    def test_empty_session(self):
        manifest = summarize([], SummarizerConfig(k=4))
        assert manifest.entries == ()
        assert manifest.cluster_count == 0

    def test_k1_selects_global_mean_argmin(self, rng):
        rows = rng.random((20, FEATURE_DIM))
        frames = _session(np.arange(20.0), rows)
        manifest = summarize(frames, SummarizerConfig(k=1))
        assert len(manifest.entries) == 1
        want = keyframe_oracle(range(20), np.arange(20.0), rows.astype(np.float32).astype(np.float64).tolist())
        assert manifest.entries[0].frame_id == want
        assert math.isinf(manifest.h_star)

    def test_eight_separated_segments_give_one_keyframe_each(self, rng):
        timestamps = []
        segment_of_frame = []
        t = 0.0
        for seg in range(8):
            for _ in range(30):
                timestamps.append(t)
                segment_of_frame.append(seg)
                t += 1.0
            t += 600.0
        rows = rng.random((len(timestamps), FEATURE_DIM))
        frames = _session(timestamps, rows)
        manifest = summarize(frames, SummarizerConfig(k=8, h0=60.0))
        assert len(manifest.entries) == 8
        assert manifest.cluster_count == 8
        chosen_segments = sorted(segment_of_frame[e.frame_id] for e in manifest.entries)
        assert chosen_segments == list(range(8))

    def test_entries_in_temporal_order_and_diverse(self, rng):
        gaps = rng.random(60) * 30 + 0.1
        ts = np.cumsum(gaps)
        frames = _session(ts, rng.random((60, FEATURE_DIM)))
        manifest = summarize(frames, SummarizerConfig(k=5, h0=7.0))
        times = [e.timestamp for e in manifest.entries]
        assert times == sorted(times)
        for a, b in zip(times, times[1:]):
            assert b - a >= manifest.h_star

    def test_each_keyframe_belongs_to_its_cluster(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            n = int(local.integers(6, 80))
            ts = np.cumsum(local.random(n) * 40 + 0.1)
            # Frame ids differ from positions, so a mix-up of the two shows.
            frames = _session(ts, local.random((n, FEATURE_DIM)), first_id=1000)
            k = int(local.integers(2, 6))
            manifest = summarize(frames, SummarizerConfig(k=min(k, n), h0=20.0))
            by_index = {c.index: c for c in assign_clusters(ts, manifest.h_star)}
            assert manifest.cluster_count == len(by_index)
            for entry in manifest.entries:
                cluster = by_index[entry.cluster_index]
                assert entry.frame_id in [frames[i].frame_id for i in cluster.frame_ids]
                assert entry.cluster_size == cluster.size

    def test_missing_features_rejected(self):
        frames = [frame(0, 0.0, feats=features(0.1)), frame(1, 1.0, feats=None)]
        with pytest.raises(MissingFeatures):
            summarize(frames, SummarizerConfig(k=1))

    def test_missing_features_checked_first_even_on_short_sessions(self):
        frames = [frame(0, 0.0, feats=features(0.1)), frame(1, 0.0), frame(2, 0.0)]
        with pytest.raises(MissingFeatures) as excinfo:
            summarize(frames, SummarizerConfig(k=8))
        assert excinfo.value.frame_id == 1

    def test_repeated_timestamp_is_a_pipeline_error(self):
        frames = _session([0.0, 1.0, 1.0, 2.0], np.full((4, FEATURE_DIM), 0.5))
        with pytest.raises(TimestampsNotIncreasing) as excinfo:
            summarize(frames, SummarizerConfig(k=2))
        assert isinstance(excinfo.value, PipelineError)
        assert isinstance(excinfo.value, ValueError)

    def test_deterministic(self, rng):
        ts = np.cumsum(rng.random(50) * 100)
        rows = rng.random((50, FEATURE_DIM))
        frames = _session(ts, rows)
        a = summarize(frames, SummarizerConfig(k=4))
        b = summarize(frames, SummarizerConfig(k=4))
        assert a == b


class TestUniformBaseline:
    def test_formula_indices(self):
        frames = _session(np.arange(9.0), np.full((9, FEATURE_DIM), 0.5))
        manifest = uniform_keyframes(frames, 3)
        assert [e.frame_id for e in manifest.entries] == [0, 4, 8]

    def test_k1_takes_middle(self):
        frames = _session(np.arange(7.0), np.full((7, FEATURE_DIM), 0.5))
        manifest = uniform_keyframes(frames, 1)
        assert [e.frame_id for e in manifest.entries] == [3]

    def test_k_at_least_n_takes_all(self):
        frames = _session(np.arange(4.0), np.full((4, FEATURE_DIM), 0.5))
        manifest = uniform_keyframes(frames, 9)
        assert [e.frame_id for e in manifest.entries] == [0, 1, 2, 3]

    def test_empty(self):
        with pytest.raises(PipelineError, match="cannot summarize an empty session"):
            uniform_keyframes([], 3)

    def test_a_table_is_read_row_by_row_not_listed(self):
        frames = _session(np.arange(40.0), np.full((40, FEATURE_DIM), 0.5))
        table = FrameTable.of(frames)
        with mock.patch.object(FrameTable, "__iter__", side_effect=AssertionError("the table was listed")):
            assert uniform_keyframes(table, 5) == uniform_keyframes(frames, 5)


class TestKMeansBaseline:
    def test_separated_blobs_get_one_keyframe_each(self, rng):
        blob_centers = np.zeros((3, FEATURE_DIM))
        blob_centers[0, 0] = 0.9
        blob_centers[1, 50] = 0.9
        blob_centers[2, 120] = 0.9
        rows, blob_of = [], []
        for i in range(30):
            blob = i % 3
            noisy = np.clip(blob_centers[blob] + rng.normal(0, 0.01, FEATURE_DIM), 0, 1)
            rows.append(noisy)
            blob_of.append(blob)
        frames = _session(np.arange(30.0), np.asarray(rows))
        manifest = kmeans_keyframes(frames, 3, seed=11)
        assert len(manifest.entries) == 3
        assert sorted(blob_of[e.frame_id] for e in manifest.entries) == [0, 1, 2]
        # Brute-force check at convergence: every member is nearest to the
        # centroid implied by the final grouping.
        matrix = np.stack([f.features.values for f in frames]).astype(np.float64)
        picks = {e.frame_id for e in manifest.entries}
        centroids = []
        for b in range(3):
            members = [i for i in range(30) if blob_of[i] == b]
            centroids.append(matrix[members].mean(axis=0))
        for i in range(30):
            dists = [float(np.linalg.norm(matrix[i] - c)) for c in centroids]
            assert int(np.argmin(dists)) == blob_of[i]
        assert picks <= set(range(30))

    def test_k_equals_n(self, rng):
        rows = rng.random((6, FEATURE_DIM))
        frames = _session(np.arange(6.0), rows)
        manifest = kmeans_keyframes(frames, 6, seed=3)
        assert sorted(e.frame_id for e in manifest.entries) == list(range(6))

    def test_identical_features_deterministic(self):
        frames = _session(np.arange(10.0), np.full((10, FEATURE_DIM), 0.4))
        a = kmeans_keyframes(frames, 4, seed=7)
        b = kmeans_keyframes(frames, 4, seed=7)
        assert a == b
        assert len(a.entries) == 4

    def test_insufficient_frames(self):
        frames = _session([0.0], np.full((1, FEATURE_DIM), 0.5))
        with pytest.raises(PipelineError, match="k-means needs at least k=2 frames, got 1"):
            kmeans_keyframes(frames, 2)


def norm_distances(matrix, center):
    """Reference: the former distances, ``np.linalg.norm`` of a fresh difference."""
    return np.linalg.norm(matrix - center, axis=1)


#: Sessions of 1-30 float32 feature rows drawn from at most 6 distinct rows of quarter steps and free values,
#: so that equal rows, and rows equally far from the mean, tie exactly.
feature_rows = st.tuples(
    hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 6), st.just(FEATURE_DIM)),
        elements=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0, width=32)),
    ),
    st.lists(st.integers(0, 5), min_size=1, max_size=30),
).map(lambda drawn: drawn[0][[i % len(drawn[0]) for i in drawn[1]]])
#: Gaps below, near and far above the default h0 of 60 s, so sessions split into clusters of several sizes.
session_gaps = st.lists(st.sampled_from([0.5, 1.0, 59.0, 60.0, 700.0]), min_size=30, max_size=30)


@settings(max_examples=200, deadline=None)
@given(rows=feature_rows, center_row=st.integers(0, 29), at_mean=st.booleans())
def test_in_place_distances_are_the_linalg_norm_distances_bit_for_bit(rows, center_row, at_mean):
    matrix = rows.astype(np.float64)
    center = matrix.mean(axis=0) if at_mean else matrix[center_row % len(matrix)].copy()
    want = norm_distances(matrix, center)
    assert summarizer._distances(matrix.copy(), center).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(rows=feature_rows, gaps=session_gaps, k=st.integers(1, 4))
def test_keyframes_are_the_ones_linalg_norm_picks(rows, gaps, k):
    frames = _session(np.cumsum(gaps[: len(rows)]), rows)
    table = FrameTable.of(frames)
    before = table.features.tobytes()

    def picks():
        kmeans = kmeans_keyframes(table, min(k, len(table)), seed=1)
        return select_keyframe(frames), summarize(frames, SummarizerConfig(k=k)), kmeans

    got = picks()
    with mock.patch.object(summarizer, "_distances", norm_distances):
        assert got == picks()
    # The k-means baseline and the summarizer leave the caller's matrix and records as they were.
    assert table.features.tobytes() == before
    assert np.stack([f.features.values for f in frames]).tobytes() == before
