"""Serialization boundary: frame metadata, feature matrices, manifests.

Frame metadata travels as JSONL (one object per line, UTF-8, strict keys);
feature matrices use a compact little-endian binary layout (magic ``FEAT``,
u32 count, u32 dimension, then float32 rows); summary manifests and filter
reports are plain JSON documents. Parsers reject malformed input rather
than coercing it. Grayscale images for the blur path are stored as binary
PGM (P5).
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping, NoReturn, Sequence

import numpy as np

from .errors import FeatureFileError, OrderError, ParseError, RangeViolation
from .model import (
    ABSENT,
    FEATURE_DIM,
    FLOAT_MAX,
    NUM_LANDMARKS,
    FrameRecord,
    FrameTable,
    LandmarkSet,
    SummaryEntry,
    SummaryManifest,
    _checked_landmarks,
    _ints,
    check_point,
    require_int,
    require_number,
)

_FRAME_KEYS = ("frame_id", "t", "w", "h", "landmarks", "blur_var", "feat_row")
_FRAME_KEY_SET = frozenset(_FRAME_KEYS)
_FEATURE_MAGIC = b"FEAT"
_HEADER = struct.Struct("<4sII")
_NUMBER_TYPES = (float, int)

#: What reading and decoding a text that is not JSON raises: JSONDecodeError, UnicodeDecodeError (not UTF-8), a plain
#: ValueError (an integer of over 4,300 digits) and RecursionError (nesting too deep). Each reader maps them.
JSON_FAULTS = (ValueError, RecursionError)


def _json_fault(exc: Exception) -> str:
    """What a :data:`JSON_FAULTS` error says is wrong, in plain words and without a position within the text."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8 (byte 0x{exc.object[exc.start]:02x})"
    # An over-long integer's text ends in "; use sys.set_int_max_str_digits() ...", a hint for programmers.
    return str(exc).split(";")[0]


def _landmarks_from_wire(raw) -> LandmarkSet | None:
    """The set a wire ``landmarks`` value encodes; ValueError names the first fault."""
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != NUM_LANDMARKS:
        raise ValueError(f"landmarks must be null or an array of {NUM_LANDMARKS} entries")
    # One walk that checks each present point as it goes: the value types first (a bool is not
    # a number), then 0 <= x, y <= FLOAT_MAX and 0 <= conf <= 1, which also reject NaN, ±inf and
    # integers too large for a float. Any other entry goes to _landmark_entry, which names its
    # fault or returns its point (a float subclass, say), so the first faulty entry is named.
    flat: list = []
    for entry in raw:
        if entry is None:
            flat += ABSENT
            continue
        if type(entry) is list and len(entry) == 3:
            x, y, conf = entry
            if (
                type(x) in _NUMBER_TYPES
                and type(y) in _NUMBER_TYPES
                and type(conf) in _NUMBER_TYPES
                and 0 <= x <= FLOAT_MAX
                and 0 <= y <= FLOAT_MAX
                and 0 <= conf <= 1
            ):
                flat += entry
                continue
        flat += _landmark_entry(entry, len(flat) // 3)
    points = np.array(flat, dtype=np.float64)
    # In place, not a view: a reshaped view would keep a second array object
    # alive per set. The size is unchanged, so nothing is reallocated.
    points.resize((NUM_LANDMARKS, 3))
    points.flags.writeable = False
    return _checked_landmarks(points)


def _landmark_entry(entry, i: int) -> list[float]:
    """The point wire entry ``i`` encodes; ValueError names its fault."""
    if not isinstance(entry, list) or len(entry) != 3:
        raise ValueError(f"landmark {i} must be null or [x, y, conf]")
    point = [require_number(v, f"landmark {i} {name}") for v, name in zip(entry, ("x", "y", "conf"))]
    # JSON NaN literals are a fault here, not an absent point (that is null).
    check_point(*point)
    return point


def frame_from_wire(obj: Mapping, line: int | None = None) -> tuple[FrameRecord, int | None]:
    """Decode one wire object into (record, feature row index)."""
    if not isinstance(obj, dict):
        raise ParseError("frame message must be a JSON object", line)
    keys = obj.keys()
    if not keys <= _FRAME_KEY_SET:
        raise ParseError(f"unknown keys {sorted(keys - _FRAME_KEY_SET)}", line)
    if not keys >= _FRAME_KEY_SET:
        raise ParseError(f"missing keys {[k for k in _FRAME_KEYS if k not in obj]}", line)

    blur = obj["blur_var"]
    feat_row = obj["feat_row"]
    try:
        if feat_row is not None and require_int(feat_row, "feat_row") < 0:
            raise ValueError(f"feat_row must be non-negative, got {feat_row}")
        rec = FrameRecord(
            frame_id=require_int(obj["frame_id"], "frame_id"),
            timestamp=require_number(obj["t"], "t"),
            width=require_int(obj["w"], "w"),
            height=require_int(obj["h"], "h"),
            landmarks=_landmarks_from_wire(obj["landmarks"]),
            blur_variance=None if blur is None else require_number(blur, "blur_var"),
        )
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc
    return rec, feat_row


def frame_to_wire(rec: FrameRecord, feat_row: int | None = None) -> dict:
    """Encode one record as a wire object (feature vector travels by row index)."""
    return {
        "frame_id": rec.frame_id,
        "t": rec.timestamp,
        "w": rec.width,
        "h": rec.height,
        "landmarks": None if rec.landmarks is None else rec.landmarks.rows(),
        "blur_var": rec.blur_variance,
        "feat_row": feat_row,
    }


@dataclass(frozen=True)
class ParseResult:
    """Frames in stream order, as a :class:`~robosum.model.FrameTable` whose ``feat_row`` holds each line's row."""

    frames: FrameTable
    duplicates_dropped: int


#: Lines decoded into columns before the columns are checked and converted at once.
_CHUNK_LINES = 256
#: A frame line's scalar fields, and the value types the columns of those and of the landmark values may hold.
_SCALARS = operator.itemgetter("frame_id", "w", "h", "t", "blur_var", "feat_row")
_COLUMN_TYPES = ({int}, {int}, {int}, {int, float}, {int, float, type(None)}, {int, type(None)}, {int, float})


class _Parse:
    """One parse: the frames kept so far, the state of the cross-line rules, and the chunk of lines in hand."""

    def __init__(self):
        self.seen, self.last_t, self.dropped, self.parts = set(), None, 0, []
        # Kept frames' points in one buffer, not in parts: arrays freed part by part would stay resident.
        self.points, self.kept = np.empty((_CHUNK_LINES, NUM_LANDMARKS, 3)), 0
        self.start(1)

    def start(self, first_line: int) -> None:
        self.first_line, self.lines, self.unchecked, self.absent = first_line, [], False, 0
        self.scalars, self.person, self.values = [], [], []

    def add(self, line: str) -> None:
        self.lines.append(line)
        if not self.unchecked:
            try:
                self.decode(line)
            except JSON_FAULTS:
                self.unchecked = True  # the per-line rules judge this chunk
        if len(self.lines) == _CHUNK_LINES:
            self.flush()
            self.start(self.first_line + _CHUNK_LINES)

    def decode(self, line: str) -> None:
        """Append a line's values to the columns; ValueError if it does not have the shape of a frame."""
        obj = json.loads(line)
        if type(obj) is not dict or obj.keys() != _FRAME_KEY_SET:
            raise ValueError
        landmarks = obj["landmarks"]
        if landmarks is None:
            self.values += ABSENT * NUM_LANDMARKS
            self.absent += NUM_LANDMARKS
        elif type(landmarks) is list and len(landmarks) == NUM_LANDMARKS:
            values = self.values  # x, y, conf of every point, frame after frame; NaN where absent
            for entry in landmarks:
                if entry is None:
                    values += ABSENT
                elif type(entry) is list and len(entry) == 3:
                    values += entry
                else:
                    raise ValueError
            self.absent += landmarks.count(None)
        else:
            raise ValueError
        self.scalars.append(_SCALARS(obj))
        self.person.append(landmarks is not None)

    def chunk(self, columns: list[tuple]) -> FrameTable | None:
        """The chunk as a table; None unless every value is one the per-line rules accept."""
        columns = (*columns, self.values)
        types = [{*map(type, c)} for c in columns]
        # Columns 3, 4 and 6 (t, blur_var, the landmark values) become floats. numpy would round an int past the
        # float range to the largest float, where require_number rejects it, so only those columns' ints are sized.
        if not all(have <= allowed for have, allowed in zip(types, _COLUMN_TYPES)) or any(
            int in types[i] and not all(-FLOAT_MAX <= v <= FLOAT_MAX for v in columns[i] if type(v) is int) for i in (3, 4, 6)
        ):
            return None
        ids, ws, hs = map(_ints, columns[:3])
        rows = _ints([-1 if row is None else row for row in columns[5]])
        ts, blur = np.array(columns[3], dtype=np.float64), np.array(columns[4], dtype=np.float64)  # None becomes NaN
        points = np.array(self.values, dtype=np.float64).reshape(-1, NUM_LANDMARKS, 3)
        x, y, conf = points[:, :, 0], points[:, :, 1], points[:, :, 2]
        present = (0 <= x) & (x <= FLOAT_MAX) & (0 <= y) & (y <= FLOAT_MAX) & (0 <= conf) & (conf <= 1)
        absent = np.isnan(x) & np.isnan(y) & np.isnan(conf)
        # A NaN point or score the line spells out is a fault, not an absent one, so the counts must match.
        if not (
            ((0 < ws) & (ws <= FLOAT_MAX) & (0 < hs) & (hs <= FLOAT_MAX)).all()
            and np.isfinite(ts).all()
            and np.count_nonzero((0 <= blur) & (blur <= FLOAT_MAX)) == len(blur) - columns[4].count(None)
            and np.count_nonzero(rows >= 0) == len(rows) - columns[5].count(None)
            and (present | absent).all()
            and np.count_nonzero(absent) == self.absent
        ):
            return None
        return FrameTable(ids, ts, ws, hs, blur, np.array(self.person, dtype=bool), points, rows)

    def flush(self) -> None:
        """Keep the chunk's frames as columns; a chunk the column checks reject has a fault for the walk to name."""
        ids, *_ = columns = list(zip(*self.scalars)) or [()] * 6
        table = None if self.unchecked else self.chunk(columns)
        if table is None:
            self.walk()
        # The cross-line rules compare the floats the frames hold, not the numbers the lines spell.
        kept = [self.admit(*frame) for frame in zip(ids, table.t.tolist(), itertools.count(self.first_line))]
        self.keep(table if all(kept) else table.take(kept))

    def walk(self) -> NoReturn:
        """Raise at the chunk's first line the per-line rules reject, reading each line as the column decode does."""
        for line_no, line in enumerate(self.lines, start=self.first_line):
            if not line.strip():
                raise ParseError("blank line", line_no)
            try:
                obj = json.loads(line)
            except JSON_FAULTS as exc:
                raise ParseError(f"invalid JSON: {_json_fault(exc)}", line_no) from exc
            rec, _ = frame_from_wire(obj, line=line_no)
            self.admit(rec.frame_id, rec.timestamp, line_no)
        raise RuntimeError(f"the column checks rejected lines from {self.first_line} that the per-line rules accept")

    def admit(self, frame_id: int, t: float, line_no: int) -> bool:
        """The cross-line rules: whether a frame is kept; a duplicate id or a decreasing timestamp raises."""
        if frame_id in self.seen:
            raise ParseError(f"duplicate frame_id {frame_id}", line_no)
        self.seen.add(frame_id)
        if self.last_t is not None:
            if t < self.last_t:
                raise OrderError(frame_id)
            if t == self.last_t:
                self.dropped += 1
                return False
        self.last_t = t
        return True

    def keep(self, table: FrameTable) -> None:
        """Add a part's frames: its points to the buffer, its other columns to the parts."""
        end = self.kept + len(table)
        if end > len(self.points):
            # Grown in place by a quarter, not into a second buffer that would be held beside it: realloc, which
            # remaps a large block (glibc) rather than copy it. No view of the buffer outlives a call: no refcheck.
            self.points.resize((max(end, len(self.points) * 5 // 4), NUM_LANDMARKS, 3), refcheck=False)
        self.points[self.kept : end] = table.points
        self.kept = end
        self.parts.append((table.frame_id, table.t, table.w, table.h, table.blur, table.person, table.feat_row))

    def result(self) -> ParseResult:
        """The kept frames; the last flush keeps a part, empty or not."""
        self.points.resize((self.kept, NUM_LANDMARKS, 3), refcheck=False)  # in place: no copy
        *columns, rows = (np.concatenate(column) for column in zip(*self.parts))
        return ParseResult(FrameTable(*columns, self.points, rows), self.dropped)


def parse_frames_jsonl(stream: Iterable[str]) -> ParseResult:
    """Strictly parse JSONL frame metadata into a table.

    Frames with a timestamp equal to their predecessor's are dropped
    (first occurrence wins) and counted; a decreasing timestamp raises
    :class:`OrderError`; duplicate frame ids raise :class:`ParseError`.
    Lines are decoded into columns and checked a chunk at a time, and
    frames are kept only as those columns. The column checks take every
    value the per-line rules (:func:`frame_from_wire` and the two above)
    take, so a chunk they reject has a fault: the per-line rules walk it
    again only to name its first faulty line.
    """
    parse, line_no = _Parse(), 0
    try:
        for line_no, line in enumerate(stream, start=1):
            parse.add(line)
    except UnicodeDecodeError as exc:
        parse.flush()  # a fault on an earlier line comes first
        # A text stream decodes ahead of the line in hand, so this fault has no line number of its own.
        where = f" after line {line_no}" if line_no else ""
        raise ParseError(f"invalid JSON: {_json_fault(exc)}{where}") from exc
    parse.flush()
    return parse.result()


def write_frames_jsonl(frames: Sequence[FrameRecord], stream: IO[str]) -> np.ndarray | None:
    """Write frames as JSONL, each with its feature-file row; returns the matrix those rows index.

    The rows and the matrix are :meth:`FrameTable.of(frames) <robosum.model.FrameTable.of>`'s:
    records get rows in frame order, one per frame with features, and a
    parsed or filtered table keeps its own ``feat_row`` and ``features``.
    The matrix is None when there is none: no frame has features, or no
    matrix is bound.
    """
    table = FrameTable.of(frames)
    for rec, row in zip(frames, table.feat_row.tolist()):
        stream.write(json.dumps(frame_to_wire(rec, None if row < 0 else row)) + "\n")
    return table.features


def check_feat_row_bounds(frames: FrameTable, count: int) -> None:
    """Raise :class:`ParseError` at the first frame whose ``feat_row`` is past a ``count``-row matrix."""
    beyond = np.flatnonzero(frames.feat_row >= count)
    if beyond.size:
        i = beyond[0]
        raise ParseError(f"frame {frames.frame_id[i]}: feat_row {frames.feat_row[i]} beyond matrix of {count} rows")


def _check_feature_matrix(matrix: np.ndarray) -> None:
    """Every component of an n x 157 matrix must lie in [0, 1]; NaN never does."""
    if matrix.ndim != 2 or matrix.shape[1] != FEATURE_DIM:
        raise FeatureFileError(f"expected an n x {FEATURE_DIM} matrix, got shape {matrix.shape}")
    # A NaN makes min() and max() NaN, which fails both tests; the masks are built only to name the first bad cell.
    if matrix.size == 0 or (matrix.min() >= 0.0 and matrix.max() <= 1.0):
        return
    row, col = (int(v) for v in np.argwhere(~((matrix >= 0.0) & (matrix <= 1.0)))[0])
    raise RangeViolation(row, col, float(matrix[row, col]))


def attach_features(result: ParseResult, matrix: np.ndarray) -> FrameTable:
    """The parsed table with a feature matrix bound, once every ``feat_row`` is checked to lie within it.

    The matrix is range-checked as a whole. A float32 view over ``bytes`` (as
    :func:`load_features` returns), which no holder can make writable, is
    bound as it is; any other is copied once, read-only, so later writes to
    ``matrix`` cannot reach a frame. Each frame's
    :class:`~robosum.model.FeatureVector` is a view of its row of the bound matrix.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype.kind not in "fiu":
        raise FeatureFileError(f"feature matrix must hold numbers, got dtype {matrix.dtype}")
    # numpy lets the owner of an array's memory set its writeable flag back; nothing can write to ``bytes``.
    base = matrix
    while isinstance(base, np.ndarray) and not base.flags.writeable and not base.flags.owndata:
        base = base.base
    checked = matrix if matrix.dtype == np.float32 and isinstance(base, bytes) else matrix.astype(np.float32)
    _check_feature_matrix(checked)
    table = result.frames
    check_feat_row_bounds(table, len(checked))
    return FrameTable(table.frame_id, table.t, table.w, table.h, table.blur, table.person, table.points, table.feat_row, checked)


def save_features(matrix: np.ndarray, path: str | Path) -> None:
    """Write an n x 157 matrix in the FEAT binary layout (little-endian f32)."""
    arr = np.asarray(matrix, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[1] != FEATURE_DIM:
        raise ValueError(f"expected an n x {FEATURE_DIM} matrix, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_FEATURE_MAGIC, arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f4").tobytes())


def load_features(path: str | Path) -> np.ndarray:
    """Load and validate a FEAT matrix, a read-only view over the file's bytes; every component must lie in [0, 1]."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FeatureFileError("feature file shorter than its header")
        magic, count, dim = _HEADER.unpack(header)
        if magic != _FEATURE_MAGIC:
            raise FeatureFileError(f"expected magic {_FEATURE_MAGIC!r}, got {magic!r}")
        if dim != FEATURE_DIM:
            raise FeatureFileError(f"expected dimension {FEATURE_DIM}, got {dim}")
        expected = count * dim * 4
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got == expected:  # read the payload once the file's size vouches for it
            payload = fh.read(expected)
            got = len(payload)
    if got != expected:
        raise FeatureFileError(f"expected {expected} payload bytes for {count} rows, got {got}")
    matrix = np.frombuffer(payload, dtype="<f4").reshape(count, dim)
    _check_feature_matrix(matrix)
    return matrix


def manifest_to_dict(manifest: SummaryManifest) -> dict:
    return {
        "k": manifest.k,
        "h_star": manifest.h_star,
        "m": manifest.cluster_count,
        "entries": [
            {
                "cluster": e.cluster_index,
                "frame_id": e.frame_id,
                "t": e.timestamp,
                "cluster_size": e.cluster_size,
            }
            for e in manifest.entries
        ],
    }


def manifest_from_dict(obj: Mapping) -> SummaryManifest:
    if not isinstance(obj, dict):
        raise ParseError("manifest must be a JSON object")
    unknown = set(obj) - {"k", "h_star", "m", "entries"}
    if unknown:
        raise ParseError(f"unknown manifest keys {sorted(unknown)}")
    try:
        entries = []
        for item in obj["entries"]:
            extra = set(item) - {"cluster", "frame_id", "t", "cluster_size"}
            if extra:
                raise ParseError(f"unknown entry keys {sorted(extra)}")
            entries.append(
                SummaryEntry(
                    cluster_index=require_int(item["cluster"], "cluster"),
                    frame_id=require_int(item["frame_id"], "frame_id"),
                    timestamp=require_number(item["t"], "t"),
                    cluster_size=require_int(item["cluster_size"], "cluster_size"),
                )
            )
        return SummaryManifest(
            k=require_int(obj["k"], "k"),
            h_star=require_number(obj["h_star"], "h_star"),
            cluster_count=require_int(obj["m"], "m"),
            entries=tuple(entries),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed manifest: {exc!r}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_summary_manifest(manifest: SummaryManifest, path: str | Path) -> None:
    """Write the manifest as a JSON document with stable key order.

    Floats keep full precision (``h_star`` of ``inf`` serializes as the
    JSON extension literal ``Infinity``), so a write/read round trip is
    lossless.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest_to_dict(manifest), fh)
        fh.write("\n")


def read_summary_manifest(path: str | Path) -> SummaryManifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except JSON_FAULTS as exc:
            raise ParseError(f"invalid JSON: {_json_fault(exc)}") from exc
    return manifest_from_dict(obj)


def save_pgm(image: np.ndarray, path: str | Path) -> None:
    """Write an 8-bit grayscale image (2-D ``uint8``) as binary PGM (P5); any other is a ValueError."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError(f"PGM writer expects a 2-D uint8 grayscale image, got ndim={arr.ndim}, dtype {arr.dtype}")
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


#: Magic, width, height and maxval, apart by whitespace and '#' comments, then one whitespace byte.
_PGM_HEADER = re.compile(rb"P5(?:\s|#.*\n)*" + rb"([^\s#]\S*)\s(?:\s|#.*\n)*" * 2 + rb"([^\s#]\S*)\s")


def load_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) image into a writable uint8 array over the file's one buffer.

    Width, height and maxval are each ASCII decimal digits; maxval must be 255.
    """
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data) :]
    if not data.startswith(b"P5"):
        raise ParseError(f"{path}: not a binary PGM file")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ParseError(f"{path}: truncated PGM header")
    for name, token in zip(("width", "height", "maxval"), header.groups()):
        if not token.isdigit():  # int() would also take a sign and underscores
            raise ParseError(f"{path}: PGM header {name} must be decimal digits, got {token!r}")
    try:
        width, height, maxval = map(int, header.groups())
        if maxval != 255:
            raise ParseError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
        pos = header.end()
        if len(data) - pos < width * height:
            raise ParseError(f"{path}: truncated PGM payload")
        return np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos).reshape(height, width)
    except ValueError as exc:  # a number of over 4,300 digits, or an empty image with a side past numpy's largest
        raise ParseError(f"{path}: PGM header numbers too large") from exc
