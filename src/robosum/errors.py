"""Exception types shared across the pipeline.

Every error raised by this package derives from :class:`PipelineError`, so
callers (notably the CLI) can distinguish data problems from genuine bugs.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


# --- content filter ---------------------------------------------------------


class InvalidImage(PipelineError, ValueError):
    """Image that is not 2-D 8-bit grayscale (``uint8``) of at least 3x3."""


class ImageTooSmall(InvalidImage):
    """Image smaller than the 3x3 Laplacian kernel."""


class MissingBlurScore(PipelineError):
    """Frame has no blur variance and no pixels to compute one from."""

    def __init__(self, frame_id: int):
        super().__init__(f"frame {frame_id}: blur variance absent and no image supplied")
        self.frame_id = frame_id


# --- summarizer -------------------------------------------------------------


class InfeasibleK(PipelineError):
    """Fewer frames than requested keyframes."""

    def __init__(self, n: int, k: int):
        super().__init__(f"cannot form {k} clusters from {n} frames")
        self.n = n
        self.k = k


class TimestampsNotIncreasing(PipelineError, ValueError):
    """Timestamps handed to clustering are not strictly increasing."""


class NonTermination(PipelineError):
    """Threshold search exhausted its iteration budget (diagnostic)."""


class MissingFeatures(PipelineError):
    """A frame entering feature-space selection has no feature vector."""

    def __init__(self, frame_id: int):
        super().__init__(f"frame {frame_id} has no feature vector")
        self.frame_id = frame_id


# --- serialization ----------------------------------------------------------


class ParseError(PipelineError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


class OrderError(PipelineError):
    """Timestamps regressed at the named frame."""

    def __init__(self, frame_id: int):
        super().__init__(f"frame {frame_id}: timestamp decreases")
        self.frame_id = frame_id


class FeatureFileError(PipelineError):
    """Feature matrix file is structurally invalid."""


class RangeViolation(FeatureFileError):
    """A feature component falls outside [0, 1]."""

    def __init__(self, row: int, col: int, value: float):
        super().__init__(f"feature value {value!r} at ({row}, {col}) outside [0, 1]")
        self.row = row
        self.col = col
        self.value = value


# --- service ----------------------------------------------------------------


class ConnectionLost(PipelineError):
    """Stream connection dropped mid-session."""

    def __init__(self, last_acked_frame_id: int | None):
        suffix = "no frame acknowledged" if last_acked_frame_id is None else f"last acknowledged frame {last_acked_frame_id}"
        super().__init__(f"connection lost; {suffix}")
        self.last_acked_frame_id = last_acked_frame_id
