"""Wire protocol behavior: ordering, determinism, isolation, failures."""

import contextlib
import errno
import io
import json
import logging
import math
import pathlib
import re
import socket
import tempfile
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robosum.service
from conftest import UNDECODABLE_JSON, centered_person, landmarks
from robosum import frameio, scenario
from robosum.content_filter import classify_frame, filter_frames
from robosum.controller import ActionCommand, Expression, Mode
from robosum.errors import ConnectionLost, PipelineError
from robosum.model import FEATURE_DIM, FeatureVector, FrameRecord, IllPosedReason
from robosum.scenario import ActivitySegment, Injection, ScenarioSpec, generate_session
from robosum.service import (
    ServiceConfig,
    action_line,
    action_to_wire,
    dumps_wire,
    manifest_to_dict,
    replay_session,
    run_server_in_thread,
    simulate_actions,
)
from robosum.summarizer import SummarizerConfig, summarize


@pytest.fixture(scope="module")
def server():
    srv, thread = run_server_in_thread(ServiceConfig())
    host, port = srv.bound_address
    yield host, port
    srv.shutdown()
    srv.server_close()


def session_spec(seed=3, duration=240.0):
    return ScenarioSpec(
        duration_s=duration,
        fps=1.0,
        activity_segments=(
            ActivitySegment(0.0, duration / 3, activity_id=4),
            ActivitySegment(duration / 3 + 90.0, duration, activity_id=40),
        ),
        ill_posed_injections=(Injection(5.0, 15.0, IllPosedReason.BLURRED),),
        rng_seed=seed,
    )


def parsed_session(spec):
    """Generated frames routed through the serialization layer, as a client would."""
    import io

    frames, _ = generate_session(spec)
    buf = io.StringIO()
    matrix = frameio.write_frames_jsonl(frames, buf)
    buf.seek(0)
    return frameio.parse_frames_jsonl(buf), matrix


class TestReplay:
    def test_empty_session_yields_empty_summary(self, server):
        parsed = frameio.parse_frames_jsonl([])
        result = replay_session(*server, parsed, k=8, h0=60.0)
        assert result.action_lines == ()
        summary = json.loads(result.summary_line)
        assert summary["type"] == "summary"
        assert summary["entries"] == []

    def test_actions_match_offline_simulation_byte_for_byte(self, server):
        parsed, matrix = parsed_session(session_spec())
        result = replay_session(*server, parsed, features=matrix, k=4, h0=60.0)
        offline = simulate_actions(parsed.frames)
        assert list(result.action_lines) == offline

    def test_summary_matches_offline_summarize(self, server):
        spec = session_spec()
        parsed, matrix = parsed_session(spec)
        result = replay_session(*server, parsed, features=matrix, k=4, h0=60.0)
        frames = frameio.attach_features(parsed, matrix)
        well_posed, _ = filter_frames(frames)
        manifest = summarize(well_posed, SummarizerConfig(k=4, h0=60.0))
        assert json.loads(result.summary_line) == {"type": "summary", **manifest_to_dict(manifest)}

    def test_reply_per_frame_in_order(self, server):
        spec = ScenarioSpec(
            duration_s=1000.0,
            fps=1.0,
            activity_segments=(ActivitySegment(0.0, 1000.0, activity_id=1),),
        )
        parsed, matrix = parsed_session(spec)
        assert len(parsed.frames) == 1000
        result = replay_session(*server, parsed, features=matrix)
        assert len(result.action_lines) == 1000
        echoed = [json.loads(line)["frame_id"] for line in result.action_lines]
        assert echoed == [rec.frame_id for rec in parsed.frames]
        # Without k and h0 the client sends the summarizer's own defaults.
        assert json.loads(result.summary_line)["k"] == SummarizerConfig().k

    def test_concurrent_sessions_stay_isolated(self, server):
        specs = [session_spec(seed=11), session_spec(seed=22, duration=300.0)]
        sessions = [parsed_session(s) for s in specs]
        solo = [
            replay_session(*server, parsed, features=matrix, k=3, h0=30.0)
            for parsed, matrix in sessions
        ]
        results = [None, None]
        errors = []

        def run(i):
            try:
                parsed, matrix = sessions[i]
                results[i] = replay_session(*server, parsed, features=matrix, k=3, h0=30.0)
            except Exception as exc:  # pragma: no cover - surfaced by assertion
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(2):
            assert results[i].action_lines == solo[i].action_lines
            assert results[i].summary_line == solo[i].summary_line

    def test_null_features_are_excluded_from_summary(self, server):
        parsed, matrix = parsed_session(session_spec())
        result = replay_session(*server, parsed, features=None, k=4, h0=60.0)
        summary = json.loads(result.summary_line)
        assert summary["entries"] == []
        assert len(result.action_lines) == len(parsed.frames)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
    def test_bad_rate_is_rejected_before_connecting(self, monkeypatch, rate):
        # nan <= 0 is false, so a NaN rate once replayed at full speed.
        def connect(*args, **kwargs):
            raise AssertionError("replay_session connected")

        monkeypatch.setattr(robosum.service.socket, "create_connection", connect)
        parsed, matrix = parsed_session(session_spec())
        with pytest.raises(ValueError, match="rate must be a positive finite number"):
            replay_session("127.0.0.1", 1, parsed, features=matrix, rate=rate)

    def test_replies_are_sent_without_delay(self, server, monkeypatch):
        nodelay = []
        handle = robosum.service._SessionHandler.handle

        def probe(self):
            nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            handle(self)

        monkeypatch.setattr(robosum.service._SessionHandler, "handle", probe)
        parsed, matrix = parsed_session(session_spec())
        replay_session(*server, parsed, features=matrix, k=3, h0=60.0)
        assert nodelay and all(nodelay)

    def test_error_reply_ends_the_replay_after_the_actions_before_it(self, server):
        import io

        frames, _ = generate_session(session_spec())
        mid = 40  # inside the first activity segment, past the blurred frames
        assert frames[mid].features is not None and frames[mid].blur_variance is not None
        frames[mid] = replace(frames[mid], blur_variance=None)  # a featured frame the server cannot classify
        buf = io.StringIO()
        matrix = frameio.write_frames_jsonl(frames, buf)
        buf.seek(0)
        parsed = frameio.parse_frames_jsonl(buf)
        trace = io.StringIO()
        result = replay_session(*server, parsed, features=matrix, k=4, h0=60.0, trace=trace)
        error = dumps_wire({"type": "error", "code": "data_error",
                            "msg": f"frame {frames[mid].frame_id}: blur variance absent and no image supplied"})
        assert result.action_lines == tuple(simulate_actions(parsed.frames)[:mid])
        assert result.summary_line is None
        assert result.error_line == error
        assert trace.getvalue().splitlines() == [*result.action_lines, error]

    def test_timed_rate_still_produces_ordered_replies(self, server):
        spec = ScenarioSpec(
            duration_s=5.0,
            fps=1.0,
            activity_segments=(ActivitySegment(0.0, 5.0, activity_id=2),),
        )
        parsed, matrix = parsed_session(spec)
        result = replay_session(*server, parsed, features=matrix, rate=1000.0, k=2, h0=60.0)
        assert len(result.action_lines) == 5
        assert result.summary_line is not None


class TestProtocolErrors:
    def send_lines(self, server, lines):
        sock = socket.create_connection(server)
        fh = sock.makefile("rwb")
        replies = []
        try:
            for line in lines:
                fh.write(line.encode("utf-8") + b"\n")
                fh.flush()
                reply = fh.readline()
                if not reply:
                    break
                replies.append(json.loads(reply.decode("utf-8")))
        finally:
            fh.close()
            sock.close()
        return replies

    def test_malformed_json(self, server):
        replies = self.send_lines(server, ["{oops"])
        assert replies[-1]["type"] == "error"
        assert replies[-1]["code"] == "parse_error"

    def test_unknown_message_type(self, server):
        replies = self.send_lines(server, [dumps_wire({"type": "dance"})])
        assert replies[-1]["code"] == "protocol_error"

    SCORELESS_FRAME = {
        "type": "frame",
        "frame_id": 0,
        "t": 0.0,
        "w": 10,
        "h": 10,
        "landmarks": None,
        "blur_var": None,
        "feat_row": None,
        "features": None,
    }

    def test_frame_missing_blur_is_data_error(self, server):
        # Only a featured frame can enter the summary, so only it is classified, and the filter needs a score.
        frame_msg = dict(self.SCORELESS_FRAME, features=[0.5] * frameio.FEATURE_DIM)
        replies = self.send_lines(server, [dumps_wire(frame_msg)])
        assert replies[-1]["code"] == "data_error"

    def test_frame_without_score_or_features_is_answered(self, server):
        rec, _ = frameio.frame_from_wire({k: v for k, v in self.SCORELESS_FRAME.items() if k not in ("type", "features")})
        end = {"type": "end_session", "k": 2, "h0": 60.0}
        replies = self.send_lines(server, [dumps_wire(self.SCORELESS_FRAME), dumps_wire(end)])
        assert [dumps_wire(r) for r in replies[:-1]] == simulate_actions([rec])
        assert replies[-1]["type"] == "summary" and replies[-1]["entries"] == []

    def test_bad_end_session(self, server):
        replies = self.send_lines(server, [dumps_wire({"type": "end_session", "k": 0, "h0": 60.0})])
        assert replies[-1]["code"] == "protocol_error"
        replies = self.send_lines(server, [dumps_wire({"type": "end_session", "k": 2, "h0": 60.0, "x": 1})])
        assert replies[-1]["code"] == "protocol_error"
        replies = self.send_lines(server, [dumps_wire({"type": "end_session", "k": 2.5, "h0": 60.0})])
        assert replies[-1]["code"] == "protocol_error"

    def test_error_closes_connection(self, server):
        sock = socket.create_connection(server)
        fh = sock.makefile("rwb")
        fh.write(b"{bad\n")
        fh.flush()
        assert json.loads(fh.readline())["type"] == "error"
        assert fh.readline() == b""
        fh.close()
        sock.close()

    def test_session_failure_does_not_poison_new_sessions(self, server):
        self.send_lines(server, ["{broken"])
        parsed, matrix = parsed_session(session_spec())
        result = replay_session(*server, parsed, features=matrix, k=3, h0=60.0)
        assert result.summary_line is not None


def all_replies(server, messages):
    """Send every message (a dict, or a raw line as a string), half-close, and
    read replies until the server closes.

    A server that ends the session with lines still unread resets the
    connection, so sending may fail and reading ends at the reset.
    """
    payload = "".join((m if isinstance(m, str) else dumps_wire(m)) + "\n" for m in messages)
    received = b""
    with socket.create_connection(server) as sock:
        try:
            sock.sendall(payload.encode("utf-8"))
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        try:
            while chunk := sock.recv(1 << 16):
                received += chunk
        except ConnectionResetError:
            pass
    return [json.loads(line) for line in received.splitlines()]


def frame_messages(parsed, matrix):
    return [
        {"type": "frame", **frameio.frame_to_wire(rec, row), "features": [float(v) for v in matrix[row]]}
        for rec, row in zip(parsed.frames, parsed.frames.feat_row.tolist())
    ]


class TestTerminalLine:
    def test_resent_frame_ends_with_data_error(self, server):
        spec = ScenarioSpec(
            duration_s=20.0, fps=1.0, activity_segments=(ActivitySegment(0.0, 20.0, activity_id=7),)
        )
        parsed, matrix = parsed_session(spec)
        well_posed, _ = filter_frames(frameio.attach_features(parsed, matrix))
        assert parsed.frames[5].frame_id in {f.frame_id for f in well_posed}
        msgs = frame_messages(parsed, matrix)
        msgs = msgs[:10] + [msgs[5]] + msgs[10:] + [{"type": "end_session", "k": 2, "h0": 60.0}]
        replies = all_replies(server, msgs)
        assert [r["type"] for r in replies[:-1]] == ["action"] * (len(msgs) - 1)
        assert replies[-1]["type"] == "error"
        assert replies[-1]["code"] == "data_error"

    def test_stream_ending_before_end_session_is_protocol_error(self, server):
        parsed, matrix = parsed_session(session_spec())
        replies = all_replies(server, frame_messages(parsed, matrix)[:1])
        assert [r["type"] for r in replies] == ["action", "error"]
        assert replies[-1] == {
            "type": "error", "code": "protocol_error", "msg": "stream ended before end_session"
        }
        assert all_replies(server, []) == [replies[-1]]

    def test_features_must_be_json_numbers(self, server):
        parsed, matrix = parsed_session(session_spec())
        good = frame_messages(parsed, matrix)[0]
        for bad in ("0.5", True):
            replies = all_replies(server, [dict(good, features=[bad] + good["features"][1:])])
            assert replies == [{
                "type": "error",
                "code": "data_error",
                "msg": "line 1: features must be null or an array of 157 numbers",
            }]
        integral = dict(good, features=[0, 1] + good["features"][2:])
        assert [r["type"] for r in all_replies(server, [integral])] == ["action", "error"]
        huge = dict(good, features=[10**400] + good["features"][1:])
        assert all_replies(server, [huge]) == [{
            "type": "error",
            "code": "data_error",
            "msg": "line 1: bad feature vector: int too large to convert to float",
        }]

    def test_line_bound(self, server):
        parsed, matrix = parsed_session(session_spec())
        line = dumps_wire(frame_messages(parsed, matrix)[0])
        bound = robosum.service.MAX_LINE_BYTES
        # JSON allows trailing spaces: pad the frame to exactly the bound, newline included.
        replies = all_replies(server, [line.ljust(bound - 1)])
        assert [r["type"] for r in replies] == ["action", "error"]
        # One byte more; then a 41 MiB line, more than the socket buffers hold,
        # so the client is still sending when the server answers. Either way the
        # client sends the whole line before it reads, and must read the error.
        for more_mib in (0, 40):
            with socket.create_connection(server) as sock:
                sock.sendall(line.ljust(bound).encode("utf-8"))
                for _ in range(more_mib):
                    sock.sendall(b" " * (1 << 20))
                sock.sendall(b"\n")
                reply = sock.makefile("rb").read()
            assert json.loads(reply) == {
                "type": "error", "code": "protocol_error", "msg": f"line 1: longer than {bound} bytes"
            }

    def test_drain_after_an_over_long_line_is_bounded(self, server, monkeypatch):
        monkeypatch.setattr(robosum.service, "MAX_LINE_BYTES", 64)
        monkeypatch.setattr(robosum.service, "MAX_DRAIN_BYTES", 256)
        with socket.create_connection(server) as sock, sock.makefile("rb") as replies:
            sock.settimeout(10)
            sock.sendall(b" " * 100)
            assert json.loads(replies.readline()) == {
                "type": "error", "code": "protocol_error", "msg": "line 1: longer than 64 bytes"
            }
            # A client that never sends the newline: the server stops reading past
            # the cap and closes, so sending fails long before 64 MiB are sent.
            with pytest.raises((BrokenPipeError, ConnectionResetError)):
                for _ in range(1024):
                    sock.sendall(b" " * (1 << 16))

    def test_the_frame_past_the_session_cap_gets_one_protocol_error(self, server, monkeypatch):
        assert robosum.service.MAX_SESSION_FRAMES >= scenario.MAX_FRAMES  # any generated session can be replayed
        monkeypatch.setattr(robosum.service, "MAX_SESSION_FRAMES", 2)
        parsed, matrix = parsed_session(session_spec())
        replies = all_replies(server, frame_messages(parsed, matrix)[:3] + [GOOD_END_SESSIONS[0]])
        assert [r["type"] for r in replies] == ["action", "action", "error"]
        assert replies[-1] == {"type": "error", "code": "protocol_error", "msg": "line 3: a session holds at most 2 frames"}

    def test_parse_error_names_no_position_and_no_programmer_hint(self, server):
        for line in ('{"frame_id": ' + "1" * 5000 + "}", "{oops"):
            (error,) = all_replies(server, [line])
            assert error["code"] == "parse_error" and error["msg"].startswith("line 1: invalid JSON (")
            assert "sys." not in error["msg"] and "column" not in error["msg"], error["msg"]

    @pytest.mark.parametrize("line", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
    def test_undecodable_line_is_parse_error_with_nothing_logged(self, server, caplog, line):
        with socket.create_connection(server) as sock:
            sock.sendall(line + b"\n")
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as replies:
                reply = replies.read()
        error = json.loads(reply)
        assert error["code"] == "parse_error" and error["msg"].startswith("line 1: invalid JSON (")
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_unexpected_failure_is_internal_error(self, server, monkeypatch, caplog):
        def boom(frame_id, t, rows, cfg=None):
            raise RuntimeError("boom")

        parsed, matrix = parsed_session(session_spec())
        monkeypatch.setattr(robosum.service, "summarize_rows", boom)
        result = replay_session(*server, parsed, features=matrix, k=3, h0=60.0)
        error = json.loads(result.error_line)
        assert error["type"] == "error"
        assert error["code"] == "internal_error"
        assert any(r.exc_info for r in caplog.records if r.name == "robosum.service")
        monkeypatch.undo()
        result = replay_session(*server, parsed, features=matrix, k=3, h0=60.0)
        assert result.summary_line is not None

    @pytest.mark.parametrize("fails", ["create", "write"])
    def test_a_failed_features_file_ends_the_session_with_one_internal_error(self, server, monkeypatch, fails):
        fault = OSError(errno.ENOSPC, "No space left on device")

        class FullDisk(io.BytesIO):
            def write(self, data):
                raise fault

        def temporary_file():
            if fails == "create":
                raise fault
            return FullDisk()

        parsed, matrix = parsed_session(session_spec())
        well_posed, _ = filter_frames(frameio.attach_features(parsed, matrix))
        first_kept = parsed.frames.frame_id.tolist().index(well_posed[0].frame_id)
        messages = frame_messages(parsed, matrix) + [GOOD_END_SESSIONS[0]]
        monkeypatch.setattr(robosum.service, "TemporaryFile", temporary_file)
        replies = all_replies(server, messages)
        assert [r["type"] for r in replies] == ["action"] * first_kept + ["error"]
        assert replies[-1] == {"type": "error", "code": "internal_error", "msg": f"OSError: {fault}"}
        monkeypatch.undo()
        assert all_replies(server, messages)[-1]["type"] == "summary"


def test_a_session_closes_its_features_file_however_it_ends(server, monkeypatch):
    fds = pathlib.Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count open files in")
    opened = []

    def temporary_file():
        opened.append(tempfile.TemporaryFile())
        return opened[-1]

    monkeypatch.setattr(robosum.service, "TemporaryFile", temporary_file)
    monkeypatch.setattr(robosum.service, "IDLE_TIMEOUT_S", 0.2)
    parsed, matrix = parsed_session(session_spec())
    frames = frame_messages(parsed, matrix)[:40]
    out_of_range = {**frames[-1], "frame_id": 10**6, "timestamp": 10**6, "features": [1.5] * FEATURE_DIM}
    before = len(list(fds.iterdir()))
    assert all_replies(server, frames + [GOOD_END_SESSIONS[0]])[-1]["type"] == "summary"
    assert all_replies(server, frames + [out_of_range])[-1]["code"] == "data_error"
    assert all_replies(server, frames)[-1]["msg"] == "stream ended before end_session"
    with socket.create_connection(server) as sock, sock.makefile("rb") as replies:
        sock.sendall("".join(dumps_wire(m) + "\n" for m in frames).encode("utf-8"))
        assert json.loads(replies.read().splitlines()[-1])["msg"] == "no message within the 0.2 s idle timeout"
    assert len(opened) == 4
    # The server closes a connection's socket just after the client reads its end, so allow it a moment.
    deadline = time.monotonic() + 10
    while len(list(fds.iterdir())) != before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(list(fds.iterdir())) == before
    assert all(f.closed for f in opened)


class TestConnectionLoss:
    def test_client_reports_last_acked_frame(self):
        # A stand-in server that answers a few frames, then drops the link.
        answered = 3
        ready = threading.Event()
        port_box = {}

        def stub():
            srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind(("127.0.0.1", 0))
            srv.listen(1)
            port_box["port"] = srv.getsockname()[1]
            ready.set()
            conn, _ = srv.accept()
            fh = conn.makefile("rwb")
            for _ in range(answered):
                line = fh.readline()
                msg = json.loads(line)
                fh.write((dumps_wire({"type": "action", "frame_id": msg["frame_id"]}) + "\n").encode())
                fh.flush()
            conn.close()
            srv.close()

        thread = threading.Thread(target=stub, daemon=True)
        thread.start()
        ready.wait(timeout=5)

        spec = ScenarioSpec(
            duration_s=10.0,
            fps=1.0,
            activity_segments=(ActivitySegment(0.0, 10.0, activity_id=0),),
        )
        parsed, matrix = parsed_session(spec)
        with pytest.raises(ConnectionLost) as excinfo:
            replay_session("127.0.0.1", port_box["port"], parsed, features=matrix)
        assert excinfo.value.last_acked_frame_id == parsed.frames[answered - 1].frame_id
        thread.join(timeout=5)



POOL, POOL_MATRIX = parsed_session(
    ScenarioSpec(
        duration_s=16.0,
        fps=1.0,
        activity_segments=(ActivitySegment(0.0, 16.0, activity_id=3),),
        ill_posed_injections=(Injection(4.0, 6.0, IllPosedReason.BLURRED),),
        rng_seed=5,
    )
)
# The confident neck sits on the only confident hip: zero torso length.
ZERO_TORSO = landmarks(nose=(300, 100), neck=(320, 200), r_hip=(320, 200))
GOOD_END_SESSIONS = ({"type": "end_session", "k": 2, "h0": 60.0}, {"type": "end_session", "k": 3, "h0": 0.5})
BAD_END_SESSIONS = (
    {"type": "end_session", "k": 0, "h0": 60.0},
    {"type": "end_session", "k": 2},
    {"type": "end_session", "k": 2, "h0": "60"},
    {"type": "end_session", "k": 2, "h0": 60.0, "x": 1},
    {"type": "end_session", "k": 2, "h0": 10**400},
    {"type": "end_session", "k": True, "h0": 60.0},
    {"type": "end_session", "k": 2, "h0": True},
)


@st.composite
def client_streams(draw):
    """Lines a client sends before half-closing, and what the server must make of them.

    Returns ``(lines, frames, terminal)``: ``frames`` are the records sent
    before the first message that ends the session, and ``terminal`` the
    line that must end the reply stream, or just its error code.
    """
    lines, frames, well_posed, terminal = [], [], [], None
    sent = 0
    kinds = ["frame"] * 4 + ["featureless", "resend", "no_score", "no_score_featureless", "zero_torso", "junk", "not_a_frame"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "junk":
            lines.append(draw(st.sampled_from(["{oops", "[1, 2", "\u00ff"])))
            terminal = terminal or "parse_error"
            continue
        if kind == "not_a_frame":
            lines.append(draw(st.sampled_from(['{"type": "dance"}', '{"type": null}', '{"frame_id": 0}', "[1, 2]"])))
            terminal = terminal or "protocol_error"
            continue
        if kind == "resend" and sent:
            i = draw(st.integers(0, min(sent, len(POOL.frames)) - 1))
        else:
            i, sent = min(sent, len(POOL.frames) - 1), sent + 1
        rec, row = POOL.frames[i], int(POOL.frames.feat_row[i])
        if kind in ("no_score", "no_score_featureless"):
            rec = replace(rec, blur_variance=None)
        elif kind == "zero_torso":
            rec = replace(rec, landmarks=ZERO_TORSO)
        # A featureless frame is answered and never classified, so it needs no blur score.
        features = None if kind in ("featureless", "no_score_featureless") else POOL_MATRIX[row]
        msg = {
            "type": "frame",
            **frameio.frame_to_wire(rec, row),
            "features": None if features is None else [float(v) for v in features],
        }
        lines.append(dumps_wire(msg))
        if terminal is None and kind == "no_score":
            terminal = "data_error"
        elif terminal is None:
            frames.append(rec)
            if features is not None and classify_frame(rec) is None:
                well_posed.append(replace(rec, features=FeatureVector(values=features)))
    end = draw(st.sampled_from([None, *GOOD_END_SESSIONS, *BAD_END_SESSIONS]))
    if end is not None:
        lines.append(dumps_wire(end))
    if terminal is not None or end is not None:
        # The session is over; whatever follows must go unanswered.
        lines += draw(st.lists(st.sampled_from([lines[0], dumps_wire(GOOD_END_SESSIONS[0])]), max_size=2))
    if terminal is None and end in GOOD_END_SESSIONS:
        try:
            manifest = summarize(well_posed, SummarizerConfig(k=end["k"], h0=end["h0"]))
            terminal = {"type": "summary", **manifest_to_dict(manifest)}
        except PipelineError:
            terminal = "data_error"
    elif terminal is None:
        terminal = "protocol_error"
    return lines, frames, terminal


@settings(max_examples=100, deadline=None)
@given(client_streams())
def test_every_stream_ends_with_one_terminal_line(server, stream):
    lines, frames, terminal = stream
    replies = all_replies(server, lines)
    kinds = [r["type"] for r in replies]
    assert kinds == ["action"] * len(frames) + [kinds[-1]]
    assert kinds[-1] in ("summary", "error")
    assert [dumps_wire(r) for r in replies[:-1]] == simulate_actions(frames)
    if isinstance(terminal, dict):
        assert replies[-1] == terminal
    else:
        assert replies[-1]["code"] == terminal


# Ints of any size and sign, floats with NaN and ±inf, and the types a caller
# might pass for a number: a float subclass and bools.
wire_number = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2**64, -(2**70), 10**400]),
    st.floats().map(np.float64),
    st.booleans(),
)


@settings(max_examples=600, deadline=None)
@given(
    st.integers() | st.sampled_from([-(2**63), 2**64, -(10**30)]),
    wire_number,
    st.none() | wire_number,
    wire_number,
    st.sampled_from(Expression),
    st.sampled_from(Mode),
)
def test_action_line_matches_the_json_encoder(frame_id, rotate, pitch, forward, expression, mode):
    # Built without ActionCommand's checks, so every value reaches the formatter.
    cmd = object.__new__(ActionCommand)
    for f, value in zip(fields(ActionCommand), (rotate, pitch, forward, expression, mode)):
        object.__setattr__(cmd, f.name, value)
    assert action_line(frame_id, cmd) == dumps_wire(action_to_wire(frame_id, cmd))


def test_a_silent_client_gets_one_protocol_error_naming_the_timeout(server, monkeypatch, caplog):
    monkeypatch.setattr(robosum.service, "IDLE_TIMEOUT_S", 0.2)
    parsed, _ = parsed_session(session_spec())
    frame = dumps_wire({"type": "frame", **frameio.frame_to_wire(parsed.frames[0]), "features": None})
    with socket.create_connection(server) as sock, sock.makefile("rb") as replies:
        sock.settimeout(10)
        sock.sendall(frame.encode("utf-8") + b"\n")
        # One action, then silence: one error line that names the limit, then the server closes.
        lines = replies.read().decode("utf-8").splitlines()
    assert [json.loads(line)["type"] for line in lines] == ["action", "error"]
    assert json.loads(lines[1]) == {"type": "error", "code": "protocol_error", "msg": "no message within the 0.2 s idle timeout"}
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def test_a_connection_past_the_session_cap_gets_one_protocol_error_at_once(monkeypatch):
    assert robosum.service.MAX_SESSIONS > 3  # the benchmark's two live lanes and its start-up probe fit
    monkeypatch.setattr(robosum.service, "MAX_SESSIONS", 2)
    srv, thread = run_server_in_thread(ServiceConfig())
    address = srv.bound_address
    parsed, _ = parsed_session(session_spec())
    frame = dumps_wire({"type": "frame", **frameio.frame_to_wire(parsed.frames[0]), "features": None})

    def wait_for_free_slots(count):
        slots = srv._session_slots
        taken = sum(slots.acquire(timeout=10) for _ in range(count))
        for _ in range(taken):
            slots.release()
        assert taken == count

    try:
        with contextlib.ExitStack() as stack:
            socks = [stack.enter_context(socket.create_connection(address)) for _ in range(2)]
            replies = [stack.enter_context(sock.makefile("rb")) for sock in socks]
            for sock, lines in zip(socks, replies):
                sock.settimeout(10)
                sock.sendall(frame.encode("utf-8") + b"\n")
                assert json.loads(lines.readline())["type"] == "action"
            # A third connection while both sessions run: one error line, then the server closes it at once;
            # a queued connection would time out here instead.
            with socket.create_connection(address) as third, third.makefile("rb") as lines:
                third.settimeout(10)
                refused = [json.loads(line) for line in lines.read().splitlines()]
            assert refused == [{"type": "error", "code": "protocol_error", "msg": "server busy: at most 2 sessions at once"}]
            # The running sessions are untouched: one ends with a summary, the other by its client going away.
            socks[0].sendall(dumps_wire(GOOD_END_SESSIONS[0]).encode("utf-8") + b"\n")
            assert json.loads(replies[0].readline())["type"] == "summary"
        # Each ended session gave its slot back, and a new connection is served.
        wait_for_free_slots(2)
        assert [r["type"] for r in all_replies(address, [frame, GOOD_END_SESSIONS[0]])] == ["action", "summary"]
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


WELL_POSED =FrameRecord(0, 0.0, 640, 480, centered_person(), 300.0)
#: Feature components on the edges of the float32 conversion and the [0, 1] rule.
EDGE_COMPONENTS = st.sampled_from(
    [1.0000000000000002, -1e-46, 1e-46, -0.0, 1.5, -1e-30, math.nan, math.inf, 10**400, 2**70, 1e39, 0, 1, 2, 5e-324]
)


def answer_features(values):
    """The reply to a well-posed frame carrying ``values`` inline, whether it ends the session, and the rows it kept."""
    line = dumps_wire({"type": "frame", **frameio.frame_to_wire(WELL_POSED), "features": values}).encode("utf-8")
    with contextlib.closing(robosum.service.Session(ServiceConfig())) as session:
        reply, done = robosum.service._answer(session, line, 1)
        return json.loads(reply), done, session.rows(0, 1) if session.count else []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0, 1), min_size=FEATURE_DIM, max_size=FEATURE_DIM),
    st.integers(0, FEATURE_DIM - 1),
    st.none() | EDGE_COMPONENTS,
)
def test_inline_features_are_read_as_a_feature_vector_reads_them(values, at, edge):
    if edge is not None:
        values[at] = edge
    reply, done, kept = answer_features(values)
    try:
        expected = FeatureVector(values=values).values
    except (ValueError, OverflowError) as exc:
        assert (reply, done) == ({"type": "error", "code": "data_error", "msg": f"line 1: bad feature vector: {exc}"}, True)
        assert len(kept) == 0
        return
    assert not done and len(kept) == 1
    assert np.array_equal(kept[0], np.array(values, dtype=np.float32))
    assert np.signbit(kept[0]).tolist() == np.signbit(expected).tolist()


@pytest.mark.filterwarnings("error")  # a number past float32 is a fault of the frame, not a warning on stderr
@pytest.mark.parametrize(
    "component, kept, fault",
    [
        (1.0000000000000002, 1.0, None),
        (-1e-46, -0.0, None),
        (1.5, None, "feature components must lie in [0, 1]"),
        (1e39, None, "feature components must lie in [0, 1]"),
        (-1e39, None, "feature components must lie in [0, 1]"),
        (10**39, None, "feature components must lie in [0, 1]"),
        (10**400, None, "int too large to convert to float"),
    ],
)
def test_inline_feature_edges(component, kept, fault):
    values = [component] + [0.5] * (FEATURE_DIM - 1)
    reply, done, rows = answer_features(values)
    if fault is None:
        assert reply["type"] == "action" and len(rows) == 1
        row = rows[0]
        assert row[0] == kept and np.signbit(row[0]) == np.signbit(kept)
    else:
        assert reply["msg"] == f"line 1: bad feature vector: {fault}" and done
        with pytest.raises((ValueError, OverflowError), match=re.escape(fault)):
            FeatureVector(values=values)
