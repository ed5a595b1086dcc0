"""Helpers shared by the benchmark's workloads: paths, child processes, /proc readers, statistics."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_runs"

#: Set-ups per run: at least this many, and more until they took this long
#: (at most ``SETUP_MAX``); ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX = 7
#: Upper bound on any single child process of the benchmark, seconds.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Context:
    """One benchmark run: which workload, its seed, its time budget and its work directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    tiny: bool = False
    #: Self-test hook: corrupt one received action line before the checks run.
    mutate_action: bool = False


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Mismatches between an output and its reference (a wrong output, not a missing one).
    mismatches: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run a Python child to completion; raise with its stderr if it fails."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd or ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


class Server:
    """A ``robosum serve`` process on an ephemeral loopback port."""

    def __init__(self, log_path: Path):
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "robosum.cli", "--verbose", "serve", "--addr", "127.0.0.1:0"],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.host = "127.0.0.1"
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 30.0
        pattern = re.compile(r"serving on 127\.0\.0\.1:(\d+)")
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.log_path.read_text()[-2000:]}")
            match = pattern.search(self.log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                port = int(match.group(1))
                with socket.create_connection(("127.0.0.1", port), timeout=10.0):
                    pass
                return port
            time.sleep(0.002)
        raise RuntimeError("server did not start within 30 s")

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def hwm_mb(self) -> float:
        return proc_status_kb(self.proc.pid, "VmHWM") / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        self._log.close()


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state); utime and stime are 14 and 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_status_kb(pid: int, key: str) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise KeyError(key)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``' inclusive method."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def run_metadata(ctx: Context, params: dict) -> dict:
    """Machine, toolchain and source facts recorded with every result."""
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC_DIR.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "tiny": ctx.tiny,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_lines": src_lines,
        "params": params,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10.0
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def timed_setups(ctx: Context, tracer, with_server: bool) -> tuple[float, list[dict], "Server | None"]:
    """Set up several times; keep the last set-up's inputs and server.

    One set-up is a fresh process that imports robosum, generates the
    workload's sessions and writes them, plus, for service workloads, a
    ``robosum serve`` process started until it accepts a connection.
    Returns the median set-up wall time, each set-up's stage times and the
    live server.
    """
    args = ["perfbench/inputs.py", ctx.workload, str(ctx.seed), str(ctx.workdir / "inputs")]
    args += ["--tiny"] * ctx.tiny + ["--trace"] * ctx.trace
    walls, stages = [], []
    server = None
    while len(walls) < SETUP_REPEATS or (sum(walls) < SETUP_MIN_S and len(walls) < SETUP_MAX):
        i = len(walls)
        if server is not None:
            server.stop()
        with tracer.span("bench.setup"):
            setup_span = tracer.current()
            started = time.perf_counter()
            child = last_json_line(run_child(args).stdout)
            if with_server:
                with tracer.span("service.start"):
                    server = Server(ctx.workdir / f"server-{i}.log")
            walls.append(time.perf_counter() - started)
        tracer.adopt(child["spans"], parent=setup_span)
        stages.append(child["stages"])
    return median(walls), stages, server


def budget_spent(started: float, last_started: float, seconds: float, done: int, minimum: int) -> bool:
    """Whether to stop repeating: the minimum is done and one more repetition would overrun ``seconds``."""
    now = time.perf_counter()
    return done >= minimum and (now - started) + (now - last_started) > seconds


def mutate_action_line(line: str) -> str:
    """A plausible but wrong action line: the same message with rotation off by one degree."""
    obj = json.loads(line)
    obj["rotate_deg"] = obj["rotate_deg"] + 1.0
    return json.dumps(obj, separators=(",", ":"))


def offline_reference(frames, tracer) -> dict:
    """The offline path on frames a session sent: action lines, the summary line due
    (None when offline ``summarize`` rejects the frames, so an ``error`` line is due),
    the filter report and the time of each layer call."""
    from robosum import frameio, service
    from robosum.content_filter import filter_frames
    from robosum.errors import PipelineError
    from robosum.summarizer import SummarizerConfig, summarize

    import inputs

    ref = {}
    started = time.perf_counter()
    with tracer.span("controller.simulate"):
        ref["actions"] = service.simulate_actions(frames)
    ref["simulate_s"] = time.perf_counter() - started
    started = time.perf_counter()
    with tracer.span("content_filter.filter"):
        accepted, report = filter_frames(frames)
    ref["filter_s"] = time.perf_counter() - started
    started = time.perf_counter()
    with tracer.span("summarizer.summarize"):
        try:
            manifest = summarize([f for f in accepted if f.features is not None], SummarizerConfig(k=inputs.SUMMARY_K, h0=inputs.SUMMARY_H0))
        except (PipelineError, ValueError):
            manifest = None
    ref["summarize_s"] = time.perf_counter() - started
    ref["manifest"] = None if manifest is None else frameio.manifest_to_dict(manifest)
    ref["summary"] = None if manifest is None else service.dumps_wire({"type": "summary", **ref["manifest"]})
    ref["report"] = report.to_dict()
    return ref


def reason_key(value: str) -> str:
    """A rejection reason as a metric name: ``EyesInvisible`` -> ``eyes_invisible``."""
    return "".join("_" + c.lower() if c.isupper() else c for c in value).lstrip("_")


def mode_counts(action_lines) -> dict[str, int]:
    counts = {"following": 0, "searching": 0, "idle": 0}
    for line in action_lines:
        counts[json.loads(line)["mode"]] += 1
    return counts
