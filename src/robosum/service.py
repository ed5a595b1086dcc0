"""Frame-analysis service over TCP with newline-delimited JSON.

One connection is one :class:`Session`: each ``frame`` message gets an
``action`` reply, and ``end_session`` gets a ``summary`` of the well-posed
frames that carried inline features. Protocol violations (a line longer
than :data:`MAX_LINE_BYTES` among them) and data errors get an ``error``
reply and close only the offending connection; any other failure is logged
and answered with an ``internal_error`` reply, and a stream that ends
before ``end_session`` or falls silent for :data:`IDLE_TIMEOUT_S` gets a
``protocol_error`` reply, so every connection ends with exactly one
``summary`` or ``error`` line unless the client goes away first. Each
line's reply is :func:`_answer` of the session and the line; the handler
only moves bytes and answers the socket's own faults. Replies are written
as they are produced. A session holds 16 B of RAM a kept frame, its int64
id and float64 time as columns, plus at most a quarter for rows grown into
but not yet filled; its 157 float32 features, 628 B a kept frame, go to an
unlinked temporary file in ``TMPDIR``, one file descriptor for each session
that keeps a frame. The file's pages sit in the page cache, which the
system can reclaim only where ``TMPDIR`` is disk-backed; on tmpfs they stay
in RAM, outside the process's RSS. A session sends at most
:data:`MAX_SESSION_FRAMES` (2**20) frames, so at the cap it holds about
20 MiB of RAM with the slack, and 628 MiB of file. The server runs at most
:data:`MAX_SESSIONS` sessions at once, one thread each; a connection past
them gets one ``protocol_error`` and is closed at once, so the whole worst
case is that many times a session's.

The offline simulator takes the controller step a :class:`Session` takes,
so a replayed session and an offline run produce byte-identical traces.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from tempfile import TemporaryFile
from typing import IO, Sequence

import numpy as np

from .content_filter import FilterConfig, classify_frame
from .controller import IDLE_COMMAND, ActionCommand, ControllerConfig, advance, controller_step, initial_state, sense_table
from .errors import ConnectionLost, ParseError, PipelineError
from .frameio import FEATURE_DIM, JSON_FAULTS, ParseResult, _json_fault, check_feat_row_bounds, frame_from_wire, frame_to_wire, manifest_to_dict
from .model import FLOAT_MAX, FrameRecord, FrameTable, SummaryManifest, check_unit_range
from .summarizer import SummarizerConfig, summarize_rows

logger = logging.getLogger(__name__)

#: Longest accepted message line in bytes, newline included. A frame with
#: 157 inline features takes about 4 KB.
MAX_LINE_BYTES = 1 << 20

#: Most bytes of an over-long line read away after its ``protocol_error``; then the
#: connection closes, so a client that never sends a newline cannot hold a thread.
MAX_DRAIN_BYTES = 64 << 20

#: Longest wait on a connection, in seconds; a client silent that long gets a
#: ``protocol_error`` and the connection closes, so an idle client cannot hold a thread.
IDLE_TIMEOUT_S = 60.0

#: Most frames one session may send; the frame past it gets a ``protocol_error`` and the connection closes. At
#: least ``scenario.MAX_FRAMES``, so any session ``robosum gen`` writes can be replayed.
MAX_SESSION_FRAMES = 1 << 20

#: Most sessions served at once, one thread each; a connection past it gets one ``protocol_error`` and is closed at
#: once, not queued, so connections cannot multiply the per-session worst case without bound.
MAX_SESSIONS = 32


def dumps_wire(obj: dict) -> str:
    """Canonical one-line JSON encoding used on the wire and in traces."""
    return json.dumps(obj, separators=(",", ":"))


def action_to_wire(frame_id: int, cmd: ActionCommand) -> dict:
    return {
        "type": "action",
        "frame_id": frame_id,
        "rotate_deg": cmd.rotate_deg,
        "pitch_deg": cmd.pitch_deg,
        "forward_m": cmd.forward_m,
        "expression": cmd.expression.value,
        "mode": cmd.new_mode.value,
    }


def _json_number(value) -> str:
    """``json.dumps(value)`` for a number or None.

    ``json`` writes an int and a finite float with their ``__repr__``; NaN,
    ±inf, bools and subclasses are left to the encoder itself.
    """
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return repr(value)
    return "null" if value is None else json.dumps(value)


def action_line(frame_id: int, cmd: ActionCommand) -> str:
    """The action reply line for a command: the bytes of ``dumps_wire(action_to_wire(frame_id, cmd))``.

    Used by both :func:`simulate_actions` and the server, so an offline trace
    and a live session write the same bytes.
    """
    return (
        f'{{"type":"action","frame_id":{_json_number(frame_id)},"rotate_deg":{_json_number(cmd.rotate_deg)},'
        f'"pitch_deg":{_json_number(cmd.pitch_deg)},"forward_m":{_json_number(cmd.forward_m)},'
        f'"expression":"{cmd.expression.value}","mode":"{cmd.new_mode.value}"}}'
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Per-server settings; summarizer k/h0 arrive with each end_session."""

    filter_config: FilterConfig = field(default_factory=FilterConfig)
    controller_config: ControllerConfig = field(default_factory=ControllerConfig)


#: Rows a session's columns start with; full columns grow by a quarter.
_FIRST_ROWS = 256


class Session:
    """One session's controller state, and the frames kept for its summary.

    The first :attr:`count` rows of ``frame_id`` (int64, or Python ints once an id does not fit one) and ``t``
    (float64) are the kept frames' ids and times: 16 B each, and at most a quarter more for the rows the columns have
    grown into but not filled. Their features, 157 float32 a frame, are appended to an unlinked temporary file opened
    at the first kept frame, and read back by :meth:`rows`. :meth:`close` closes the file.
    """

    def __init__(self, cfg: ServiceConfig):
        self.cfg = cfg
        self.state = initial_state()
        self.count = 0
        self.frame_id = np.empty(_FIRST_ROWS, dtype=np.int64)
        self.t = np.empty(_FIRST_ROWS)
        #: The features of the frame being answered, filled before :meth:`frame` keeps them.
        self.row = np.empty(FEATURE_DIM, dtype=np.float32)
        self.file: IO[bytes] | None = None

    def frame(self, rec: FrameRecord, featured: bool = False) -> str:
        """The action line for the next frame; a well-posed ``featured`` frame is kept, its features those in :attr:`row`.

        Only a featured frame can enter the summary, so only it is classified, before the controller step: one the
        filter cannot classify raises and leaves the session as it was.
        """
        keep = featured and classify_frame(rec, self.cfg.filter_config) is None
        self.state, cmd = controller_step(self.state, rec, self.cfg.controller_config)
        if keep:
            if self.count == len(self.t):
                # Grown in place, as frameio's point buffer grows; no view of a column outlives a call: no refcheck.
                rows = max(self.count + 1, self.count * 5 // 4)
                for column in (self.frame_id, self.t):
                    column.resize(rows, refcheck=False)
            if self.file is None:
                self.file = TemporaryFile()
            self.file.write(self.row)  # through the file's own buffer; rows() flushes it before it reads
            try:
                self.frame_id[self.count] = rec.frame_id
            except OverflowError:  # an id past int64: Python ints from here on, as model._ints holds such ids
                self.frame_id = self.frame_id.astype(object)
                self.frame_id[self.count] = rec.frame_id
            self.t[self.count] = rec.timestamp
            self.count += 1
        return action_line(rec.frame_id, cmd)

    def rows(self, a: int, b: int) -> np.ndarray:
        """Kept rows ``a`` to ``b`` of the features, read from the file at their offset, which moves no write position."""
        self.file.flush()
        size = self.row.nbytes
        data = os.pread(self.file.fileno(), (b - a) * size, a * size)
        return np.frombuffer(data, dtype=np.float32).reshape(b - a, FEATURE_DIM)

    def end(self, summarizer_cfg: SummarizerConfig) -> SummaryManifest:
        """The summary of the kept frames; the session stays open, so it may take frames and end again."""
        n = self.count
        return summarize_rows(self.frame_id[:n], self.t[:n], self.rows, summarizer_cfg)

    def close(self) -> None:
        """Close the features' file, if the session opened one; its rows are dropped, so a failed flush is of no matter."""
        if self.file is not None:
            with contextlib.suppress(OSError):
                self.file.close()


def simulate_actions(frames: Sequence[FrameRecord], cfg: ControllerConfig | None = None) -> list[str]:
    """Offline controller run: the action line :class:`Session` answers each frame with, in order.

    The frames are sensed a block of the session's table at a time (:meth:`FrameTable.blocks`), so no
    session-sized temporary is held beside the lines; then :func:`~robosum.controller.advance`, the step the
    server takes, runs frame by frame. A step that returns the idle command is written from one template line.
    """
    cfg = cfg or ControllerConfig()
    state = initial_state()
    idle_head, idle_tail = action_line(0, IDLE_COMMAND).split('"frame_id":0', 1)
    lines = []
    for _, block in FrameTable.of(frames).blocks():
        for frame_id, t, sensing in zip(block.frame_id.tolist(), block.t.tolist(), sense_table(block, cfg)):
            state, cmd = advance(state, sensing, t, cfg)
            lines.append(f'{idle_head}"frame_id":{frame_id}{idle_tail}' if cmd is IDLE_COMMAND else action_line(frame_id, cmd))
    return lines


def _error(code: str, msg: str) -> str:
    return dumps_wire({"type": "error", "code": code, "msg": msg})


def _answer(session: Session, raw: bytes, line_no: int) -> tuple[str, bool]:
    """The reply line to one message line, and whether that reply ends the session; ``b""`` is the end of the stream."""
    if not raw:
        return _error("protocol_error", "stream ended before end_session"), True
    try:
        msg = json.loads(raw.decode("utf-8"))
    except JSON_FAULTS as exc:
        return _error("parse_error", f"line {line_no}: invalid JSON ({_json_fault(exc)})"), True
    if not isinstance(msg, dict) or "type" not in msg:
        return _error("protocol_error", f"line {line_no}: message must be an object with a type"), True
    kind = msg.pop("type")
    try:
        if kind == "frame":
            if line_no > MAX_SESSION_FRAMES:  # every line before this one was a frame
                return _error("protocol_error", f"line {line_no}: a session holds at most {MAX_SESSION_FRAMES} frames"), True
            inline = msg.pop("features", None)
            rec, _ = frame_from_wire(msg, line=line_no)  # frame faults are named before feature faults
            if inline is not None:
                if not isinstance(inline, list) or len(inline) != FEATURE_DIM or not {*map(type, inline)} <= {int, float}:
                    raise ParseError(f"features must be null or an array of {FEATURE_DIM} numbers", line_no)
                try:  # the float32 conversion and range rule FeatureVector applies
                    with np.errstate(over="ignore"):  # a number past float32 becomes inf, which the range rule rejects
                        session.row[:] = inline
                    check_unit_range(session.row)
                except (ValueError, OverflowError) as exc:
                    raise ParseError(f"bad feature vector: {exc}", line_no) from exc
            return session.frame(rec, inline is not None), False
        if kind != "end_session":
            return _error("protocol_error", f"unknown message type {kind!r}"), True
        try:
            unknown = set(msg) - {"k", "h0"}
            if unknown:
                raise ValueError(f"unknown keys {sorted(unknown)}")
            summarizer_cfg = SummarizerConfig(k=msg["k"], h0=msg["h0"])
        except (KeyError, ValueError) as exc:
            return _error("protocol_error", f"bad end_session: {exc}"), True
        return dumps_wire({"type": "summary", **manifest_to_dict(session.end(summarizer_cfg))}), True
    except PipelineError as exc:
        return _error("data_error", str(exc)), True


class _SessionHandler(socketserver.StreamRequestHandler):
    """One TCP connection == one session with private state; each reply line is sent at once (TCP_NODELAY)."""
    disable_nagle_algorithm = True  # Nagle would hold a reply until the client's next frame ACKs the last one.

    def _reply(self, line: str) -> None:
        self.wfile.write((line + "\n").encode("utf-8"))

    def handle(self) -> None:
        # The session's features file is closed however the connection ends.
        with contextlib.closing(Session(self.server.service_config)) as session:  # type: ignore[attr-defined]
            self._serve(session)

    def _serve(self, session: Session) -> None:
        self.connection.settimeout(IDLE_TIMEOUT_S)
        try:
            for line_no in itertools.count(1):
                raw = self.rfile.readline(MAX_LINE_BYTES)
                if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
                    with contextlib.suppress(OSError):
                        self._reply(_error("protocol_error", f"line {line_no}: longer than {MAX_LINE_BYTES} bytes"))
                    # Closing with the line's rest unread would reset the link before the client
                    # reads the error, so read it away, a bounded chunk at a time, up to the cap.
                    drained = 0
                    with contextlib.suppress(TimeoutError):  # the error line is out; a silent client ends the drain
                        while drained < MAX_DRAIN_BYTES and (rest := self.rfile.readline(MAX_LINE_BYTES)) and not rest.endswith(b"\n"):
                            drained += len(rest)
                    return
                reply, done = _answer(session, raw, line_no)
                self._reply(reply)
                if done:
                    return
        except (ConnectionResetError, BrokenPipeError):
            logger.info("client disconnected mid-session")
            return
        except TimeoutError:
            logger.info("closing a connection silent for %s s", IDLE_TIMEOUT_S)
            reply = _error("protocol_error", f"no message within the {IDLE_TIMEOUT_S} s idle timeout")
        except Exception as exc:
            logger.exception("session failed unexpectedly")
            reply = _error("internal_error", f"{type(exc).__name__}: {exc}")
        with contextlib.suppress(OSError):
            self._reply(reply)


class FrameServer(socketserver.ThreadingTCPServer):
    """Threaded NDJSON server; sessions are fully isolated."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], config: ServiceConfig | None = None):
        super().__init__(address, _SessionHandler)
        self.service_config = config or ServiceConfig()
        self._session_slots = threading.BoundedSemaphore(MAX_SESSIONS)

    def process_request(self, request, client_address) -> None:
        """Start the connection's session thread, or refuse the connection when :data:`MAX_SESSIONS` are running."""
        if not self._session_slots.acquire(blocking=False):
            with contextlib.suppress(OSError):
                request.sendall((_error("protocol_error", f"server busy: at most {MAX_SESSIONS} sessions at once") + "\n").encode("utf-8"))
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread started, so none will release the slot
            self._session_slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._session_slots.release()

    @property
    def bound_address(self) -> tuple[str, int]:
        return self.socket.getsockname()[:2]


def serve(host: str, port: int, config: ServiceConfig | None = None) -> None:
    """Run the server until KeyboardInterrupt (port 0 picks a free one); closes cleanly on exit."""
    with FrameServer((host, port), config) as server:
        bound = server.bound_address
        logger.info("serving on %s:%d", bound[0], bound[1])
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            logger.info("interrupt received, shutting down")


@dataclass(frozen=True)
class ReplayResult:
    """Raw reply lines collected by the replay client."""

    action_lines: tuple[str, ...]
    summary_line: str | None
    error_line: str | None


def replay_session(
    host: str,
    port: int,
    parsed: ParseResult,
    features: np.ndarray | None = None,
    rate: float | str = "max",
    k: int = SummarizerConfig.k,
    h0: float = SummarizerConfig.h0,
    trace: IO[str] | None = None,
) -> ReplayResult:
    """Stream a recorded session to a server in lock-step and collect replies.

    ``rate`` is a real-time multiplier or ``"max"`` to ignore timestamps.
    A ``feat_row`` past the end of ``features`` raises :class:`ParseError`
    before connecting. Raises :class:`ConnectionLost` (with the last
    acknowledged frame id) if the server goes away mid-session, and
    :class:`ParseError` naming a reply line that is not a JSON object.
    """
    if rate != "max":
        rate = float(rate)
        if not 0 < rate <= FLOAT_MAX:
            raise ValueError(f"rate must be a positive finite number or 'max', got {rate!r}")
    frames = parsed.frames
    if features is not None:
        check_feat_row_bounds(frames, len(features))

    sock = socket.create_connection((host, port))
    rfile = sock.makefile("rb")
    actions: list[str] = []
    last_acked: int | None = None

    def exchange(msg: dict) -> tuple[str, bool]:
        """Send one message; return its reply line and whether it is an error."""
        try:
            sock.sendall((dumps_wire(msg) + "\n").encode("utf-8"))
            raw = rfile.readline()
        except OSError as exc:
            raise ConnectionLost(last_acked) from exc
        if not raw:
            raise ConnectionLost(last_acked)
        try:
            reply = raw.decode("utf-8").rstrip("\n")
            obj = json.loads(reply)
        except JSON_FAULTS:
            obj = None
        if not isinstance(obj, dict):
            raise ParseError(f"server reply is not a JSON object: {raw.decode('utf-8', 'replace').rstrip()!r}")
        if trace is not None:
            trace.write(reply + "\n")
        return reply, obj.get("type") == "error"

    try:
        prev_t: float | None = None
        for rec, row in zip(frames, frames.feat_row.tolist()):
            if rate != "max" and prev_t is not None:
                delay = (rec.timestamp - prev_t) / rate
                if delay > 0:
                    time.sleep(delay)
            prev_t = rec.timestamp
            msg = {"type": "frame", **frame_to_wire(rec, None if row < 0 else row)}
            msg["features"] = None if features is None or row < 0 else features[row].tolist()
            reply, failed = exchange(msg)
            if failed:
                return ReplayResult(tuple(actions), None, reply)
            actions.append(reply)
            last_acked = rec.frame_id
        reply, failed = exchange({"type": "end_session", "k": k, "h0": h0})
        return ReplayResult(tuple(actions), None if failed else reply, reply if failed else None)
    finally:
        rfile.close()
        sock.close()


def run_server_in_thread(
    config: ServiceConfig | None = None, host: str = "127.0.0.1"
) -> tuple[FrameServer, threading.Thread]:
    """Start a server on an ephemeral port in a daemon thread (for tests/tools)."""
    server = FrameServer((host, 0), config)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, thread
