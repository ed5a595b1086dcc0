"""Keyframe selection by temporal gap clustering.

Well-posed frames are partitioned into clusters wherever the gap between
consecutive timestamps reaches a threshold ``h``. The threshold is the
initial value ``h0`` doubled or halved until the partition yields at least
``k`` clusters while ``2h`` would yield fewer than ``k``, computed in closed
form from the (k-1)-th largest gap; the ``k`` largest clusters then each
contribute the frame nearest (in feature space) to the cluster's mean.
Two naive baselines, uniform index sampling and feature-space k-means, are
provided for comparison harnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InfeasibleK,
    MissingFeatures,
    NonTermination,
    PipelineError,
    TimestampsNotIncreasing,
)
from .model import FLOAT_MAX, Cluster, FrameRecord, FrameTable, SummaryEntry, SummaryManifest, check_config_fields

#: Most doubling or halving steps from ``h0`` the threshold search may take.
#: A search that needs more (``h`` at least 2**64 times ``h0`` or at most
#: 2**-64 times it) raises :class:`NonTermination`.
MAX_THRESHOLD_STEPS = 64


@dataclass(frozen=True)
class SummarizerConfig:
    """Keyframe count and initial gap threshold."""

    k: int = 8
    h0: float = 60.0

    def __post_init__(self):
        check_config_fields(self)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0 < self.h0 <= FLOAT_MAX:
            raise ValueError("h0 must be a positive finite number of seconds")


def _as_timestamp_array(timestamps: Sequence[float] | np.ndarray) -> np.ndarray:
    ts = np.asarray(timestamps, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError("timestamps must be a 1-D sequence")
    if ts.size == 0:
        raise PipelineError("no timestamps supplied")
    if ts.size > 1 and not bool(np.all(np.diff(ts) > 0)):
        raise TimestampsNotIncreasing("timestamps must be strictly increasing")
    return ts


def assign_clusters(timestamps: Sequence[float] | np.ndarray, h: float) -> list[Cluster]:
    """Partition strictly increasing timestamps at gaps of ``h`` or more.

    The first frame opens cluster 1; each later frame joins its
    predecessor's cluster iff the gap to it is below ``h``, otherwise it
    opens the next cluster. A cluster's ``frame_ids`` are the positions of
    its timestamps.
    """
    ts = _as_timestamp_array(timestamps)
    if not h > 0:
        raise ValueError(f"gap threshold must be positive, got {h}")
    n = ts.size
    breaks = np.flatnonzero(np.diff(ts) >= h) + 1
    bounds = np.concatenate(([0], breaks, [n]))
    clusters = []
    for j in range(len(bounds) - 1):
        a, b = int(bounds[j]), int(bounds[j + 1])
        clusters.append(
            Cluster(
                index=j + 1,
                frame_ids=tuple(range(a, b)),
                start_time=float(ts[a]),
                end_time=float(ts[b - 1]),
            )
        )
    return clusters


def adapt_threshold(
    timestamps: Sequence[float] | np.ndarray, k: int, h0: float = SummarizerConfig.h0
) -> tuple[float, list[Cluster]]:
    """Gap threshold ``h = h0 * 2**j`` giving at least ``k`` clusters while ``2h`` gives fewer.

    A threshold ``h`` yields at least ``k`` clusters exactly when the
    (k-1)-th largest gap ``G`` is at least ``h``, so the answer is the one
    ``j`` with ``h0 * 2**j <= G < h0 * 2**(j+1)``, read off the binary
    exponents of ``G`` and ``h0``. It is the threshold a search that
    doubles or halves ``h0`` one step at a time settles on (bit for bit
    while ``h`` is a normal float), and :class:`NonTermination` is raised
    when that search would need more than :data:`MAX_THRESHOLD_STEPS`
    steps (``|j| + 1``). A request for a single cluster is satisfied by one
    cluster spanning all frames (threshold reported as ``inf``, since no
    finite threshold gives fewer than one cluster).
    """
    ts = _as_timestamp_array(timestamps)
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0 < h0 <= FLOAT_MAX:
        raise ValueError("h0 must be positive and finite")
    n = ts.size
    if n < k:
        raise InfeasibleK(n=n, k=k)
    if k == 1:
        return math.inf, assign_clusters(ts, math.inf)

    gap = float(np.partition(np.diff(ts), n - k)[n - k])
    m_gap, e_gap = math.frexp(gap)
    m_h0, e_h0 = math.frexp(h0)
    j = e_gap - e_h0 - (m_gap < m_h0)
    # An infinite gap stays at least 2h however often h doubles.
    if not math.isfinite(gap) or abs(j) + 1 > MAX_THRESHOLD_STEPS:
        raise NonTermination(f"threshold search did not settle within {MAX_THRESHOLD_STEPS} iterations")
    h = math.ldexp(h0, j)
    return h, assign_clusters(ts, h)


def select_top_k_clusters(clusters: Sequence[Cluster], k: int) -> list[Cluster]:
    """Keep the ``k`` largest clusters, returned in temporal order.

    Size ties at the cut are broken in favor of the earlier start time.
    """
    if len(clusters) < k:
        raise PipelineError(f"have {len(clusters)} clusters, need {k}")
    kept = sorted(clusters, key=lambda c: (-c.size, c.start_time))[:k]
    kept.sort(key=lambda c: c.start_time)
    return kept


def _featured(frames: Iterable[FrameRecord]) -> FrameTable:
    """The frames as a table; :class:`MissingFeatures` names the first without a feature vector."""
    table = FrameTable.of(frames)
    missing = np.flatnonzero((table.feat_row < 0) | (table.features is None))
    if missing.size:
        raise MissingFeatures(int(table.frame_id[missing[0]]))
    return table


def _feature_matrix(table: FrameTable) -> np.ndarray:
    return table.features[table.feat_row].astype(np.float64)


def _distances(matrix: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Each row's Euclidean distance to ``center``, computed inside float64 ``matrix``, which is overwritten.

    These are the operations ``np.linalg.norm(matrix - center, axis=1)`` runs, so the distances are its own
    without its two n x 157 temporaries.
    """
    np.subtract(matrix, center, out=matrix)
    np.multiply(matrix, matrix, out=matrix)
    return np.sqrt(np.add.reduce(matrix, axis=1))


def _nearest_row(matrix: np.ndarray, center: np.ndarray, timestamps: np.ndarray) -> int:
    """Row index closest (Euclidean) to ``center``; ties -> earliest timestamp. Overwrites ``matrix``: pass a copy."""
    dists = _distances(matrix, center)
    tied = np.flatnonzero(dists == dists.min())
    return int(tied[np.argmin(timestamps[tied])])


def _keyframe(table: FrameTable) -> int:
    """The row of :func:`select_keyframe`'s frame."""
    matrix = _feature_matrix(table)
    return _nearest_row(matrix, matrix.mean(axis=0), table.t)


def select_keyframe(frames: Sequence[FrameRecord]) -> int:
    """Frame id of the cluster member nearest the cluster's mean features.

    Distance is Euclidean; exact distance ties go to the earliest timestamp.
    """
    if len(frames) == 0:
        raise PipelineError("cannot select a keyframe from an empty cluster")
    table = _featured(frames)
    return int(table.frame_id[_keyframe(table)])


def summarize(
    frames: Sequence[FrameRecord],
    cfg: SummarizerConfig | None = None,
) -> SummaryManifest:
    """Produce the keyframe manifest for a well-posed, feature-bearing session.

    Sessions shorter than ``k`` frames degrade to one keyframe per frame
    (flagged via :attr:`SummaryManifest.is_short_session`); an empty session
    yields an empty manifest. Deterministic for fixed input. Each cluster is
    a slice of the session's table.
    """
    cfg = cfg or SummarizerConfig()
    table = _featured(frames)
    n = len(table)
    if n == 0:
        return SummaryManifest(k=cfg.k, h_star=0.0, cluster_count=0, entries=())
    ts = _as_timestamp_array(table.t)
    ids = table.frame_id.tolist()

    if n < cfg.k:
        entries = tuple(
            SummaryEntry(cluster_index=i + 1, frame_id=ids[i], timestamp=float(ts[i]), cluster_size=1) for i in range(n)
        )
        return SummaryManifest(k=cfg.k, h_star=0.0, cluster_count=n, entries=entries)

    h_star, clusters = adapt_threshold(ts, cfg.k, h0=cfg.h0)
    entries = []
    for cluster in select_top_k_clusters(clusters, cfg.k):
        a = cluster.frame_ids[0]
        i = a + _keyframe(table[a : a + cluster.size])
        entries.append(
            SummaryEntry(cluster_index=cluster.index, frame_id=ids[i], timestamp=float(ts[i]), cluster_size=cluster.size)
        )
    entries.sort(key=lambda e: e.timestamp)
    return SummaryManifest(
        k=cfg.k, h_star=h_star, cluster_count=len(clusters), entries=tuple(entries)
    )


def uniform_keyframes(frames: Sequence[FrameRecord], k: int) -> SummaryManifest:
    """Index-uniform baseline: frames at round(i*(n-1)/(k-1)), de-duplicated."""
    n = len(frames)
    if n == 0:
        raise PipelineError("cannot summarize an empty session")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        indices = [(n - 1) // 2]
    elif k >= n:
        indices = list(range(n))
    else:
        step = (n - 1) / (k - 1)
        indices = sorted({int(math.floor(i * step + 0.5)) for i in range(k)})
    entries = tuple(
        SummaryEntry(
            cluster_index=rank + 1,
            frame_id=frames[i].frame_id,
            timestamp=frames[i].timestamp,
            cluster_size=1,
        )
        for rank, i in enumerate(indices)
    )
    return SummaryManifest(k=k, h_star=0.0, cluster_count=len(entries), entries=entries)


def kmeans_keyframes(
    frames: Sequence[FrameRecord], k: int, seed: int = 0
) -> SummaryManifest:
    """Feature-space k-means baseline (Lloyd iterations, seeded, deterministic).

    Initial centroids are ``k`` distinct frames drawn by seeded uniform
    sampling; iteration stops after 100 rounds or when the largest centroid
    movement falls below 1e-6. Each cluster contributes its member nearest
    the centroid; output is temporally sorted.
    """
    table = FrameTable.of(frames)
    n = len(table)
    if n < k:
        raise PipelineError(f"k-means needs at least k={k} frames, got {n}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if seed < 0:
        raise PipelineError(f"seed must be non-negative, got {seed}")
    matrix = _feature_matrix(_featured(table))
    ts = table.t

    rng = np.random.default_rng(seed)
    centroids = matrix[rng.choice(n, size=k, replace=False)].copy()

    sq_norms = (matrix**2).sum(axis=1)
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(100):
        # Squared distances via the expansion |x|^2 + |c|^2 - 2 x.c.
        d2 = sq_norms[:, None] + (centroids**2).sum(axis=1)[None, :] - 2.0 * matrix @ centroids.T
        assign = np.argmin(d2, axis=1)
        # Re-seed any emptied cluster with the farthest point of a cluster
        # that can spare one; feasible because n >= k.
        counts = np.bincount(assign, minlength=k)
        if np.any(counts == 0):
            own = np.take_along_axis(d2, assign[:, None], axis=1).ravel()
            for j in range(k):
                if counts[j] > 0:
                    continue
                donors = np.flatnonzero(counts[assign] > 1)
                idx = int(donors[np.argmax(own[donors])])
                counts[assign[idx]] -= 1
                assign[idx] = j
                counts[j] += 1
        new_centroids = np.stack([matrix[assign == j].mean(axis=0) for j in range(k)])
        movement = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if movement < 1e-6:
            break

    entries = []
    for j in range(k):
        members = np.flatnonzero(assign == j)
        # matrix[members] is a copy (fancy indexing), so _nearest_row may overwrite it.
        i = int(members[_nearest_row(matrix[members], centroids[j], ts[members])])
        entries.append(
            SummaryEntry(cluster_index=j + 1, frame_id=int(table.frame_id[i]), timestamp=float(ts[i]), cluster_size=int(members.size))
        )
    entries.sort(key=lambda e: e.timestamp)
    return SummaryManifest(k=k, h_star=0.0, cluster_count=k, entries=tuple(entries))


def cluster_occupancy_histogram(clusters: Iterable[Cluster]) -> str:
    """Plain-text bar chart of cluster sizes, for verbose CLI output; the largest bar is 50 characters."""
    clusters = list(clusters)
    if not clusters:
        return "(no clusters)"
    largest = max(c.size for c in clusters)
    lines = []
    for c in clusters:
        bar = "#" * max(1, round(c.size / largest * 50))
        lines.append(f"cluster {c.index:>3} [{c.start_time:>10.1f}s .. {c.end_time:>10.1f}s] {c.size:>6} {bar}")
    return "\n".join(lines)
