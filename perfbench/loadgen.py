"""Open-loop load generator for the serve_live workload.

One process, one thread, non-blocking sockets. Each lane is one
connection at a time streaming sessions back to back: every message has a
due time on a fixed schedule and is queued at that time whether or not
earlier replies have arrived. After ``end_session`` the lane opens the
next session's connection at its next slot, while the previous connection
stays open until its terminal line or EOF. Every send records its due and
actual time and every received line its arrival time, on
``time.perf_counter``'s clock::

    python3 perfbench/loadgen.py PLAN.json OUT.json

It imports neither robosum nor numpy, so it stays small next to the server.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import sys
import time

#: How long after the last due time to wait for outstanding replies.
DRAIN_S = 20.0


def step_bounds(steps_s: list[float]) -> list[tuple[float, float]]:
    """(start, end) offsets of each ladder step."""
    out, start = [], 0.0
    for length in steps_s:
        out.append((start, start + length))
        start += length
    return out


def lane_due_times(ladder: list[float], steps_s: list[float], lanes: int, lane: int) -> list[float]:
    """Due offsets (seconds from the start) of one lane's slots.

    At aggregate rate R the lanes take turns: each lane sends every
    ``lanes / R`` seconds, lane ``l`` offset by ``l / R``.
    """
    out = []
    for rate, (start, end) in zip(ladder, step_bounds(steps_s)):
        t = start + lane / rate
        j = 0
        while t < end:
            out.append(t)
            j += 1
            t = start + (lane + j * lanes) / rate
    return out


class _Conn:
    def __init__(self, lane: int, entry: int, now: float, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = b""
        self.record = {"lane": lane, "entry": entry, "connect": now, "due": [], "sent": [], "recv_t": [], "recv": [], "eof": None}


def run(plan: dict) -> dict:
    pool = []
    for path in plan["sessions"]:
        with open(path, "rb") as fh:
            pool.append(fh.read().splitlines(keepends=True))
    end_line = plan["end_line"].encode("utf-8")
    port = plan["port"]

    lanes = []
    for lane, entries in enumerate(plan["lanes"]):
        sessions = []
        for entry in entries:
            frames = pool[entry["pool"]][: entry["frames"]]
            if entry["resend"] is not None:
                frames = frames[: entry["resend"] + 1] + frames[entry["resend"] :]
            sessions.append(frames + [end_line])
        due = lane_due_times(plan["ladder"], plan["steps_s"], len(plan["lanes"]), lane)
        lanes.append({"sessions": sessions, "due": due, "slot": 0, "session": 0, "msg": 0, "conn": None})

    sel = selectors.SelectSelector()
    records, lag = [], []
    sent_bytes = received_bytes = 0
    open_conns = 0
    last_due = max((lane["due"][sum(len(s) for s in lane["sessions"]) - 1] for lane in lanes if lane["sessions"]), default=0.0)
    cpu0 = time.process_time()
    t0 = time.perf_counter() + 0.1

    def flush(conn: _Conn) -> None:
        nonlocal sent_bytes
        if conn.record["eof"] is not None:
            conn.out.clear()
            return
        try:
            n = conn.sock.send(conn.out)
        except BlockingIOError:
            n = 0
        except OSError:
            n = len(conn.out)
        sent_bytes += n
        del conn.out[:n]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
        sel.modify(conn.sock, events, conn)

    while True:
        now = time.perf_counter() - t0
        next_due = None
        for i, lane in enumerate(lanes):
            while lane["session"] < len(lane["sessions"]):
                due = lane["due"][lane["slot"]]
                if due > now:
                    next_due = due if next_due is None else min(next_due, due)
                    break
                if lane["msg"] == 0:
                    lane["conn"] = _Conn(i, lane["session"], now, port)
                    sel.register(lane["conn"].sock, selectors.EVENT_READ, lane["conn"])
                    records.append(lane["conn"].record)
                    open_conns += 1
                conn = lane["conn"]
                session = lane["sessions"][lane["session"]]
                conn.out += session[lane["msg"]]
                conn.record["due"].append(due)
                conn.record["sent"].append(now)
                lag.append(now - due)
                lane["slot"] += 1
                lane["msg"] += 1
                if lane["msg"] == len(session):
                    lane["session"] += 1
                    lane["msg"] = 0
                flush(conn)
        if next_due is None and open_conns == 0:
            break
        if now > last_due + DRAIN_S:
            break
        timeout = 0.05 if next_due is None else max(0.0, next_due - (time.perf_counter() - t0))
        for key, mask in sel.select(timeout):
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                flush(conn)
            if mask & selectors.EVENT_READ:
                try:
                    data = conn.sock.recv(1 << 20)
                except (BlockingIOError, InterruptedError):
                    continue
                except ConnectionResetError:
                    data = b""
                arrived = time.perf_counter() - t0
                if not data:
                    conn.record["eof"] = arrived
                    sel.unregister(conn.sock)
                    conn.sock.close()
                    open_conns -= 1
                    continue
                received_bytes += len(data)
                *lines, conn.inbuf = (conn.inbuf + data).split(b"\n")
                for line in lines:
                    conn.record["recv_t"].append(arrived)
                    conn.record["recv"].append(line.decode("utf-8"))
    wall = time.perf_counter() - t0
    for key in list(sel.get_map().values()):
        key.fileobj.close()
    return {
        "sessions": records,
        "lag_s": lag,
        "sent_bytes": sent_bytes,
        "received_bytes": received_bytes,
        "cpu_s": time.process_time() - cpu0,
        "wall_s": wall,
        "t0": t0,
    }


def main(argv: list[str]) -> int:
    with open(argv[0], "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    # The records grow to ~10^5 objects; a cyclic collection over them would
    # stall the schedule for milliseconds, and the generator makes no cycles.
    gc.disable()
    result = run(plan)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
