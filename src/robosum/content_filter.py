"""Frame quality gate: blur scoring plus six ill-posed rejection rules.

A frame survives only if it is sharp and shows one adequately sized,
centered person whose face is visible. Rejection rules are evaluated in a
fixed precedence order and the first matching rule wins, so every rejected
frame carries exactly one :class:`~robosum.model.IllPosedReason`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ImageTooSmall, InvalidImage, MissingBlurScore
from .model import EYE_INDICES, FLOAT_MAX, NECK, NOSE, FrameRecord, FrameTable, IllPosedReason, check_config_fields
from .model import confident_mask, confident_subset, visible_span

#: Provider of 8-bit grayscale pixels for frames lacking a precomputed blur score.
ImageProvider = Callable[[FrameRecord], "np.ndarray | None"]


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds for the rejection rules.

    ``blur_threshold`` is a variance on 0-255 grayscale; the geometric
    fractions are relative to frame width/height and deployment-specific.
    """

    blur_threshold: float = 100.0
    min_torso_fraction: float = 0.15
    corner_margin_fraction: float = 0.125
    forehead_margin_fraction: float = 0.08

    def __post_init__(self):
        check_config_fields(self)
        if not 0 <= self.blur_threshold <= FLOAT_MAX:
            raise ValueError(f"blur_threshold must be a finite non-negative number, got {self.blur_threshold!r}")
        for name in ("min_torso_fraction", "corner_margin_fraction", "forehead_margin_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 0.5:
                raise ValueError(f"{name} must lie in (0, 0.5), got {value}")


@dataclass(frozen=True)
class FilterReport:
    """Accounting of one filtering pass: accepted + rejected == total."""

    total: int
    accepted: int
    rejected_by_reason: Mapping[IllPosedReason, int] = field(default_factory=dict)

    def __post_init__(self):
        counts = {reason: int(self.rejected_by_reason.get(reason, 0)) for reason in IllPosedReason}
        if self.accepted + sum(counts.values()) != self.total:
            raise ValueError("filter report does not balance")
        object.__setattr__(self, "rejected_by_reason", counts)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "accepted": self.accepted,
            "rejected_by_reason": {r.value: c for r, c in self.rejected_by_reason.items()},
        }


def variance_of_laplacian(image) -> float:
    """Population variance of the 3x3 Laplacian response over the interior.

    The kernel is [[0,1,0],[1,-4,1],[0,1,0]] applied to the valid region
    only (no border padding). The image must be 8-bit grayscale (``uint8``);
    any other dtype is an :class:`InvalidImage` (a ValueError) naming it.
    The result is exact and correctly rounded for an image of any size;
    constant images score 0.0, and low scores mean blur. Each call scores
    with buffers of its own, two int16 arrays the interior's size.
    """
    return _LaplacianScorer()(_checked_image(image))


def _checked_image(image) -> np.ndarray:
    """``image`` as a 2-D ``uint8`` array of at least 3x3."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise InvalidImage(f"expected a 2-D grayscale image, got ndim={img.ndim}")
    rows, cols = img.shape
    if rows < 3 or cols < 3:
        raise ImageTooSmall(f"image must be at least 3x3, got {cols}x{rows}")
    if img.dtype != np.uint8:
        raise InvalidImage(f"expected an 8-bit grayscale image (uint8), got dtype {img.dtype}")
    return img


#: Widest run of responses whose sum of squares fits int32: each square is at most 1020**2.
_INT32_COLS = (2**31 - 1) // 1020**2


class _LaplacianScorer:
    """Scores images that :func:`_checked_image` returned, in buffers kept while images keep one shape.

    Responses lie in [-1020, 1020], so int16 holds them. With n responses, S1 = their sum and
    S2 = the sum of their squares, the variance is (n*S2 - S1**2) / n**2 in Python integers, and
    Python's integer true division rounds it correctly. Fresh interior-sized temporaries for each
    image went to ``mmap`` and were faulted in again on every call, costing more than the
    arithmetic, so the response and the ``4*C`` term are written into two buffers made again only
    when an image's shape differs from the last one.
    """

    __slots__ = ("shape", "lap", "center")

    def __init__(self):
        self.shape = None

    def __call__(self, img: np.ndarray) -> float:
        if img.shape != self.shape:
            rows, cols = self.shape = img.shape
            self.lap = np.empty((rows - 2, cols - 2), dtype=np.int16)
            self.center = np.empty_like(self.lap)
        lap = self.lap
        np.add(img[:-2, 1:-1], img[2:, 1:-1], out=lap, dtype=np.int16)
        lap += img[1:-1, :-2]
        lap += img[1:-1, 2:]
        lap -= np.multiply(img[1:-1, 1:-1], 4, out=self.center, dtype=np.int16)
        # Down each interior column the vertical second differences telescope to the first differences
        # at its two ends, and across each interior row the horizontal ones do, so S1 is eight rim strips.
        s1 = 0
        for lines in (img[:, 1:-1], img[1:-1].T):  # the interior's columns, then its rows
            first, second, second_last, last = (int(lines[k].sum(dtype=np.int64)) for k in (0, 1, -2, -1))
            s1 += first - second - second_last + last
        # Each row's sum of squares in int32, over at most _INT32_COLS columns at a time, so no
        # int32 array of squares is built and no row sum can wrap.
        s2 = 0
        for start in range(0, lap.shape[1], _INT32_COLS):
            piece = lap[:, start : start + _INT32_COLS]
            s2 += int(np.einsum("ij,ij->i", piece, piece, dtype=np.int32).sum(dtype=np.int64))
        n = lap.size
        return (n * s2 - s1 * s1) / (n * n)


def classify_frame(
    rec: FrameRecord,
    cfg: FilterConfig | None = None,
    image=None,
) -> IllPosedReason | None:
    """Classify one frame; ``None`` means well-posed.

    ``image`` supplies 8-bit grayscale pixels when ``rec.blur_variance`` is
    absent. Raises :class:`MissingBlurScore` when neither is available. The
    image is validated up front but scored only if the blur rule is reached,
    with buffers of this call's own, as :func:`variance_of_laplacian` scores it.
    """
    cfg = cfg or FilterConfig()
    pixels = None
    if rec.blur_variance is None:
        if image is None:
            raise MissingBlurScore(rec.frame_id)
        pixels = _checked_image(image)

    pts = confident_subset(rec.landmarks)
    if pts is None:
        return IllPosedReason.PEOPLE_ABSENT
    blur = rec.blur_variance if pixels is None else _LaplacianScorer()(pixels)
    if blur < cfg.blur_threshold:
        return IllPosedReason.BLURRED

    present = [p for p in pts if p is not None]
    ys = [p[1] for p in present]
    xs = [p[0] for p in present]
    bbox_height = max(ys) - min(ys)
    if bbox_height < cfg.min_torso_fraction * rec.height:
        return IllPosedReason.TOO_SMALL

    neck = pts[NECK]
    center_x = neck[0] if neck is not None else (min(xs) + max(xs)) / 2.0
    margin = cfg.corner_margin_fraction * rec.width
    if center_x <= margin or center_x >= rec.width - margin:
        return IllPosedReason.AT_CORNER

    nose = pts[NOSE]
    if nose is not None and nose[1] < cfg.forehead_margin_fraction * rec.height:
        return IllPosedReason.FOREHEAD_CROPPED

    if all(pts[i] is None for i in EYE_INDICES):
        return IllPosedReason.EYES_INVISIBLE

    return None


def filter_frames(
    frames: Iterable[FrameRecord],
    cfg: FilterConfig | None = None,
    images: ImageProvider | None = None,
) -> tuple[FrameTable, FilterReport]:
    """Split a timestamp-ordered stream into its well-posed frames and a tally.

    The whole-session form of :func:`classify_frame`: each rule is a mask
    over a block of the session's table (:meth:`FrameTable.blocks`) and the
    first that holds names a frame's reason, so the masks are a block long,
    not the session's length. Output preserves input order: the well-posed
    frames' per-frame columns over the session's own ``points`` and
    ``features`` matrices (:meth:`FrameTable.take`), so it copies neither.
    ``images`` is called with each frame that carries no blur score, in
    frame order; each image is checked, and scored only where the blur rule
    is reached. Scoring holds two int16 buffers the size of an image's
    interior for the whole call, made again only when an image's shape
    differs from the last one, and each image only until the next is made.
    """
    cfg = cfg or FilterConfig()
    table = FrameTable.of(frames)
    undecided = np.ones(len(table), dtype=bool)
    counts = dict.fromkeys(IllPosedReason, 0)
    score = _LaplacianScorer()
    for start, block in table.blocks():
        points = block.frame_points()
        seen = confident_mask(points)
        blur = block.blur
        missing = np.flatnonzero(np.isnan(blur))
        if missing.size:
            blur, person = blur.copy(), seen.any(axis=1)
            for i in missing.tolist():
                rec = block[i]
                image = images(rec) if images is not None else None
                if image is None:
                    raise MissingBlurScore(rec.frame_id)
                try:
                    pixels = _checked_image(image)
                except InvalidImage as exc:
                    raise type(exc)(f"frame {rec.frame_id}: {exc}") from exc
                if person[i]:
                    blur[i] = score(pixels)
                del image, pixels  # so the provider makes the next image without this one beside it
        left = undecided[start : start + len(block)]  # a view: the block's verdicts land in the session's mask
        for reason, holds in _rules(block, points, seen, blur, cfg).items():
            hit = left & holds
            counts[reason] += int(np.count_nonzero(hit))
            left &= ~hit
    accepted = table.take(undecided)
    return accepted, FilterReport(total=len(table), accepted=len(accepted), rejected_by_reason=counts)


@np.errstate(all="ignore")  # overflow gives inf without a word, as in Python's float arithmetic
def _rules(
    table: FrameTable, points: np.ndarray, seen: np.ndarray, blur: np.ndarray, cfg: FilterConfig
) -> dict[IllPosedReason, np.ndarray]:
    """Each rule's mask over a table, given its frames' points, in :func:`classify_frame`'s order and with its arithmetic."""
    x, y = points[:, :, 0], points[:, :, 1]
    (x_lo, x_hi), (y_lo, y_hi) = visible_span(x, seen), visible_span(y, seen)
    center_x = np.where(seen[:, NECK], x[:, NECK], (x_lo + x_hi) / 2.0)
    margin = cfg.corner_margin_fraction * table.w
    # Python compares a float with an int threshold exactly; no float lies strictly between it and its rounding.
    threshold = float(cfg.blur_threshold)
    return {
        IllPosedReason.PEOPLE_ABSENT: ~seen.any(axis=1),
        IllPosedReason.BLURRED: blur <= threshold if threshold < cfg.blur_threshold else blur < threshold,
        IllPosedReason.TOO_SMALL: y_hi - y_lo < cfg.min_torso_fraction * table.h,
        IllPosedReason.AT_CORNER: (center_x <= margin) | (center_x >= table.w - margin),
        IllPosedReason.FOREHEAD_CROPPED: seen[:, NOSE] & (y[:, NOSE] < cfg.forehead_margin_fraction * table.h),
        IllPosedReason.EYES_INVISIBLE: ~seen[:, EYE_INDICES].any(axis=1),
    }
