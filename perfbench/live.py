"""serve_live: an open-loop ladder of frame rates against a ``robosum serve`` process.

The load generator (``loadgen.py``, its own process) drives ``LANES``
connections. Each streams sessions back to back and ends each with
``end_session``. Every ``RESEND_EVERY``-th session re-sends one
well-posed frame, as a live camera can. Frames are due on a fixed
schedule at each rate of ``LADDER`` in turn, for ``STEP_SHARES`` of the
run's seconds, and every latency is timed from the frame's due time.
The second lane's first session is half as long, so the two lanes end
their sessions at different times and one summary falls in the reference
step for each lane.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time

import numpy as np

from loadgen import lane_due_times, step_bounds

#: Aggregate frame rates (frames/s), in the order they are run, and the share
#: of the run's seconds each one gets: the reference rate first, then a ramp
#: by 250 into and past the knee.
LADDER = (1000.0,) + tuple(float(r) for r in range(2000, 4001, 250))
STEP_SHARES = (0.4,) + (0.6 / 9,) * 9
#: frames_per_s is the highest sustained rate up to this one. On 2 shared vCPUs
#: the knee moves between 2,000 and 4,400 frames/s with the neighbours' load,
#: so the rates above it only probe the knee (service.knee_frames_per_s).
GATED_TOP = 2500.0
#: The rate at which action latencies are reported...
REFERENCE_RATE = 1000.0
#: ...as the median over windows of this length of each window's percentile,
#: so that one stall episode (a summary, a collection, a preempted vCPU) moves
#: one window and not the result.
WINDOW_S = 0.5
#: Concurrent streaming connections (the CPU count of the reference machine).
LANES = 2
#: A rate is sustained when its p99 action latency is within this limit and
#: the backlog left at its end clears within the same limit.
LATENCY_LIMIT_MS = 100.0
#: A run whose generator's p99 lateness exceeds this is flagged in its record.
GENERATOR_LAG_LIMIT_MS = 5.0
RESEND_EVERY = 8
RESEND_EVERY_TINY = 2
#: Shortest truncated session worth starting at the end of a lane's schedule.
MIN_SESSION = 20


def _pool(ctx):
    """The distinct sessions the lanes cycle through, with their truth labels."""
    from robosum import scenario

    import inputs

    return [scenario.generate_session(spec) for spec in inputs.live_specs(ctx.seed, ctx.tiny)]


def build_plan(ctx, pool, steps_s: list[float]) -> list[list[dict]]:
    """Session entries per lane, filling exactly the lane's due slots."""
    every = RESEND_EVERY_TINY if ctx.tiny else RESEND_EVERY
    rnd = random.Random(f"robosum-bench:resend:{ctx.seed}")
    lanes = []
    for lane in range(LANES):
        slots = len(lane_due_times(list(LADDER), steps_s, LANES, lane))
        entries, used, j = [], 0, 0
        while slots - used >= MIN_SESSION:
            g = j * LANES + lane
            frames, truth = pool[g % len(pool)]
            n = len(frames) // 2 if j == 0 and lane % 2 == 1 else len(frames)
            resend = None
            if g % every == every - 1:
                candidates = [t.frame_id for t in truth[: n // 2] if t.well_posed]
                resend = rnd.choice(candidates)
            if n + (resend is not None) + 1 > slots - used:
                n = slots - used - 1 - (resend is not None)
                if resend is not None and resend >= n:
                    resend = None
                    n += 1
            entries.append({"pool": g % len(pool), "frames": n, "resend": resend})
            used += n + (resend is not None) + 1
            j += 1
        lanes.append(entries)
    return lanes


def session_frames(pool, entry) -> list:
    frames = pool[entry["pool"]][0][: entry["frames"]]
    if entry["resend"] is not None:
        frames = frames[: entry["resend"] + 1] + frames[entry["resend"] :]
    return frames


def verify(result: dict, plan_lanes, pool, tracer, mutate: bool) -> dict:
    """Compare every received line with its reference; collect latencies."""
    from common import offline_reference

    refs: dict[tuple, dict] = {}
    out = {
        "frames": 0, "actions_ok": 0, "sessions": 0, "sessions_ok": 0, "silent_eof": 0,
        "mismatches": [], "lat": [], "due": [], "recv": [], "summary_s": [], "refs": [],
        "action_lines": [],
    }
    out["distinct"] = refs
    end = result["wall_s"]
    for rec in result["sessions"]:
        entry = plan_lanes[rec["lane"]][rec["entry"]]
        key = (entry["pool"], entry["frames"], entry["resend"])
        if key not in refs:
            refs[key] = offline_reference(session_frames(pool, entry), tracer)
        ref = refs[key]
        out["refs"].append(ref)
        label = f"lane {rec['lane']} session {rec['entry']}"
        n = len(rec["due"]) - 1
        lines = rec["recv"]
        if mutate and rec is result["sessions"][0] and lines:
            from common import mutate_action_line

            lines[0] = mutate_action_line(lines[0])
        out["frames"] += n
        out["sessions"] += 1
        for j in range(n):
            answered = j < len(lines)
            if answered and lines[j] == ref["actions"][j]:
                out["actions_ok"] += 1
                out["action_lines"].append(lines[j])
            elif answered:
                out["mismatches"].append(f"{label}: reply {j} differs from simulate_actions")
            arrived = rec["recv_t"][j] if answered else end
            out["lat"].append(arrived - rec["due"][j])
            out["due"].append(rec["due"][j])
            if answered:
                out["recv"].append(arrived)
        terminal = lines[n] if len(lines) > n else None
        if terminal is None:
            out["silent_eof"] += 1
        elif ref["summary"] is not None and terminal == ref["summary"]:
            out["sessions_ok"] += 1
            out["summary_s"].append((rec["due"][n], rec["recv_t"][n] - rec["sent"][n]))
        elif ref["summary"] is None and json.loads(terminal).get("type") == "error":
            out["sessions_ok"] += 1
        else:
            out["mismatches"].append(f"{label}: terminal line differs from the offline summary")
    return out


def ladder_steps(v: dict, steps_s: list[float]) -> list[dict]:
    """Per rate: p50/p99 latency from due time, backlog at its end, replies per second."""
    due = np.asarray(v["due"])
    lat = np.asarray(v["lat"])
    due_sorted = np.sort(due)
    recv_sorted = np.sort(np.asarray(v["recv"]))
    steps = []
    for rate, (lo, hi) in zip(LADDER, step_bounds(steps_s)):
        in_step = lat[(due >= lo) & (due < hi)]
        backlog_end = int(np.searchsorted(due_sorted, hi) - np.searchsorted(recv_sorted, hi))
        replies = int(np.searchsorted(recv_sorted, hi) - np.searchsorted(recv_sorted, lo))
        p99 = float(np.percentile(in_step, 99)) * 1e3 if in_step.size else float("inf")
        steps.append({
            "rate": rate,
            "frames": int(in_step.size),
            "p50_ms": float(np.median(in_step)) * 1e3 if in_step.size else float("inf"),
            "p90_ms": float(np.percentile(in_step, 90)) * 1e3 if in_step.size else float("inf"),
            "p99_ms": p99,
            "backlog_end": backlog_end,
            "replies_per_s": replies / (hi - lo),
            "sustained": p99 <= LATENCY_LIMIT_MS and backlog_end <= rate * LATENCY_LIMIT_MS / 1e3,
        })
    return steps


def run(ctx):
    from common import Outcome, median, mode_counts, percentile, reason_key, timed_setups
    from tracing import Tracer

    import inputs

    tracer = Tracer(ctx.trace, f"{ctx.workload}:{ctx.seed}")
    steps_s = [ctx.seconds * share for share in STEP_SHARES]
    setup_s, setup_stages, server = timed_setups(ctx, tracer, with_server=True)
    try:
        pool = _pool(ctx)
        plan_lanes = build_plan(ctx, pool, steps_s)
        plan = {
            "port": server.port,
            "sessions": [str(ctx.workdir / "inputs" / f"session-{i}.ndjson") for i in range(len(pool))],
            "end_line": inputs.end_session_line().decode("utf-8"),
            "ladder": list(LADDER),
            "steps_s": steps_s,
            "lanes": plan_lanes,
        }
        plan_path, out_path = ctx.workdir / "plan.json", ctx.workdir / "inputs" / "loadgen.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        cpu_before = server.cpu_s()
        with tracer.span("service.ladder"):
            rss_samples = _run_generator(server, plan_path, out_path, ctx.seconds + 120)
        server_cpu_s = server.cpu_s() - cpu_before
    finally:
        server.stop()
    result = json.loads(out_path.read_text(encoding="utf-8"))

    with tracer.span("bench.verify"):
        v = verify(result, plan_lanes, pool, tracer, ctx.mutate_action)
    steps = ladder_steps(v, steps_s)
    gated = [k for k, step in enumerate(steps) if step["rate"] <= GATED_TOP]
    top = max((k for k in gated if steps[k]["sustained"]), default=None)
    # Past the gated rates a rate counts only together with the rate below it,
    # so an isolated fluke above a failed step does not set the knee.
    knee = max((k for k, step in enumerate(steps) if step["sustained"] and (k == 0 or steps[k - 1]["sustained"])), default=None)
    reference_step = steps[LADDER.index(REFERENCE_RATE)]
    ref_lo, ref_hi = step_bounds(steps_s)[LADDER.index(REFERENCE_RATE)]
    reference_summaries = [lat for due, lat in v["summary_s"] if ref_lo <= due < ref_hi]
    lag_p99_ms = percentile(result["lag_s"], 99) * 1e3
    attempted = v["frames"] + v["sessions"]
    failed = (v["frames"] - v["actions_ok"]) + (v["sessions"] - v["sessions_ok"])
    metrics = {
        "setup_s": setup_s,
        "frames_per_s": steps[top]["replies_per_s"] if top is not None else 0.0,
        "latency_ms": windowed_percentile(v, ref_lo, ref_hi, 50),
        "peak_rss_mb": _peak_rss_mb(rss_samples, result["t0"], step_bounds(steps_s)[gated[-1]][1]),
        "ops_ok_share": 1.0 - failed / attempted,
    }
    record = {
        "params": {"ladder": LADDER, "gated_top": GATED_TOP, "reference_rate": REFERENCE_RATE, "lanes": LANES, "steps_s": steps_s,
                   "latency_limit_ms": LATENCY_LIMIT_MS, "resend_every": RESEND_EVERY_TINY if ctx.tiny else RESEND_EVERY,
                   "pool_sessions": len(pool), "session_frames": [len(f) for f, _ in pool]},
        "setup_stages": setup_stages,
        "steps": steps,
        "generator_lag_p99_ms": lag_p99_ms,
        "generator_behind": lag_p99_ms > GENERATOR_LAG_LIMIT_MS,
        "silent_eof": v["silent_eof"],
    }
    if record["generator_behind"]:
        print(f"warning: load generator p99 lateness {lag_p99_ms:.2f} ms exceeds {GENERATOR_LAG_LIMIT_MS} ms", file=sys.stderr)
    if ctx.trace:
        t0 = result["t0"]
        for rec in result["sessions"]:
            n = len(rec["due"]) - 1
            closed = rec["recv_t"][n] if len(rec["recv"]) > n else (rec["eof"] if rec["eof"] is not None else result["wall_s"])
            session_id = f"lane{rec['lane']}-session{rec['entry']}"
            parent = tracer.add("service.session", t0 + rec["connect"], t0 + closed, run=session_id)
            for j in range(min(n, len(rec["recv_t"]))):
                tracer.add("service.frame", t0 + rec["due"][j], t0 + rec["recv_t"][j], parent, run=session_id)
        refs = v["refs"]
        distinct = list(v["distinct"].values())
        manifests = [r["manifest"] for r in refs if r["manifest"] is not None]
        metrics.update({
            "scenario.generate_s": median(s["scenario.generate"] for s in setup_stages),
            "frameio.write_s": median(s["frameio.write"] for s in setup_stages),
            "content_filter.filter_s": sum(r["filter_s"] for r in distinct),
            "content_filter.self_s": sum(r["filter_s"] for r in distinct),
            "content_filter.accepted": sum(r["report"]["accepted"] for r in refs),
            "summarizer.session_summarize_s": median(r["summarize_s"] for r in distinct),
            "summarizer.clusters": median(m["m"] for m in manifests) if manifests else 0,
            "summarizer.h_star": median(m["h_star"] for m in manifests) if manifests else 0,
            "controller.simulate_s": sum(r["simulate_s"] for r in distinct),
            "service.server_cpu_s": server_cpu_s,
            "service.server_cpu_per_frame_us": server_cpu_s / v["frames"] * 1e6,
            "service.client_cpu_s": result["cpu_s"],
            "service.client_wait_share": 1.0 - result["cpu_s"] / result["wall_s"],
            "service.backlog_max": backlog_max(v),
            "service.knee_frames_per_s": steps[knee]["replies_per_s"] if knee is not None else 0.0,
            "service.wire_mb_sent": result["sent_bytes"] / 1e6,
            "service.wire_mb_received": result["received_bytes"] / 1e6,
            "service.generator_lag_p99_ms": lag_p99_ms,
            "service.action_p90_ms": windowed_percentile(v, ref_lo, ref_hi, 90),
            "service.action_p99_ms": reference_step["p99_ms"],
            "service.summary_p50_ms": median(reference_summaries) * 1e3 if reference_summaries else 0.0,
            "service.frames_sent": v["frames"],
            "service.actions_ok": v["actions_ok"],
            "service.sessions_ok": v["sessions_ok"],
            "service.silent_eof": v["silent_eof"],
            # Spans here are built after the run from timestamps the generator records anyway.
            "trace.overhead_share": 0.0,
        })
        for reason in refs[0]["report"]["rejected_by_reason"]:
            metrics[f"content_filter.rejected.{reason_key(reason)}"] = sum(r["report"]["rejected_by_reason"][reason] for r in refs)
        metrics.update({f"controller.actions.{mode}": n for mode, n in mode_counts(v["action_lines"]).items()})
    return Outcome(metrics=metrics, attempted=attempted, failed=failed, mismatches=v["mismatches"], record=record), tracer


def windowed_percentile(v: dict, lo: float, hi: float, q: float) -> float:
    """Median over ``WINDOW_S`` windows of [lo, hi) of the q-th percentile latency (ms) of frames due in each."""
    due = np.asarray(v["due"])
    lat = np.asarray(v["lat"])
    per_window = []
    for start in np.arange(lo, hi - WINDOW_S / 2, WINDOW_S):
        in_window = lat[(due >= start) & (due < start + WINDOW_S)]
        if in_window.size:
            per_window.append(float(np.percentile(in_window, q)) * 1e3)
    return float(np.median(per_window))


def _run_generator(server, plan_path, out_path, timeout_s: float) -> list[tuple[float, float]]:
    """Run the load generator; sample the server's RSS every 20 ms meanwhile."""
    from common import ROOT, child_env, proc_status_kb

    gen = subprocess.Popen([sys.executable, "perfbench/loadgen.py", str(plan_path), str(out_path)], cwd=ROOT, env=child_env())
    samples = []
    deadline = time.perf_counter() + timeout_s
    try:
        while gen.poll() is None:
            if time.perf_counter() > deadline:
                raise RuntimeError("load generator did not finish in time")
            samples.append((time.perf_counter(), proc_status_kb(server.proc.pid, "VmRSS") / 1024.0))
            time.sleep(0.02)
    finally:
        if gen.poll() is None:
            gen.kill()
        gen.wait()
    if gen.returncode != 0:
        raise RuntimeError(f"load generator exited {gen.returncode}")
    return samples


def _peak_rss_mb(samples, t0: float, until: float) -> float:
    """Largest server RSS sampled before offset ``until`` of the schedule (the end of the gated rates)."""
    return max(rss for t, rss in samples if t - t0 <= until)


def backlog_max(v: dict) -> int:
    """Most frames ever due but unanswered at once."""
    due_sorted = np.sort(np.asarray(v["due"]))
    recv_sorted = np.sort(np.asarray(v["recv"]))
    backlog = np.arange(1, due_sorted.size + 1) - np.searchsorted(recv_sorted, due_sorted, side="right")
    return int(backlog.max()) if backlog.size else 0
