"""Batch workloads (batch_desk, batch_images): the operator's file-to-report pipeline.

Each pass runs in a fresh process so that its peak RSS is the pipeline's
alone. Run as a script, this module is one pass::

    python3 perfbench/batch.py INPUT_DIR OUT_DIR [--images] [--trace]

It times ``parse_frames_jsonl -> load_features -> attach_features ->
filter_frames -> summarize -> simulate_actions`` from opening the input
files to holding the report, the manifest and the trace, then writes the
three outputs and prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SUMMARY_K = 8
SUMMARY_H0 = 60.0
#: Untraced-run passes at least, whatever ``--seconds`` says. ``frames_per_s`` and
#: ``latency_ms`` pool all untraced passes (total frames over total wall time, and
#: the mean wall time): the host's speed drifts over tens of seconds, and a pooled
#: figure averages the drift where a median of a few passes picks one phase of it.
MIN_PASSES = 3


def report_bytes(report) -> bytes:
    """The filter report as ``robosum filter --report`` writes it."""
    return (json.dumps(report.to_dict(), indent=2) + "\n").encode("utf-8")


def manifest_bytes(manifest) -> bytes:
    """The manifest as ``robosum summarize --out`` writes it."""
    from robosum import frameio

    return (json.dumps(frameio.manifest_to_dict(manifest)) + "\n").encode("utf-8")


def trace_bytes(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def pipeline_pass(inputs: Path, out: Path, images: bool, trace: bool) -> dict:
    from robosum import frameio, service
    from robosum.content_filter import filter_frames
    from robosum.summarizer import SummarizerConfig, summarize
    from tracing import Tracer

    tracer = Tracer(trace, f"pass:{out.name}")
    provider_calls = 0
    pgm_bytes = 0

    def provider(rec):
        nonlocal provider_calls, pgm_bytes
        provider_calls += 1
        path = images_dir / index[rec.frame_id]
        with tracer.span("frameio.load_pgm"):
            image = frameio.load_pgm(path)
        pgm_bytes += image.nbytes
        return image

    started = time.perf_counter()
    with tracer.span("bench.pass"):
        images_dir = inputs / "images"
        if images:
            with open(images_dir / "index.json", "r", encoding="utf-8") as fh:
                index = json.load(fh)
        with tracer.span("frameio.parse"):
            with open(inputs / "frames.jsonl", "r", encoding="utf-8") as fh:
                parsed = frameio.parse_frames_jsonl(fh)
        with tracer.span("frameio.load_features"):
            matrix = frameio.load_features(inputs / "feat.bin")
        with tracer.span("frameio.attach"):
            frames = frameio.attach_features(parsed, matrix)
        with tracer.span("content_filter.filter"):
            accepted, report = filter_frames(frames, images=provider if images else None)
        with tracer.span("summarizer.summarize"):
            manifest = summarize(accepted, SummarizerConfig(k=SUMMARY_K, h0=SUMMARY_H0))
        with tracer.span("controller.simulate"):
            actions = service.simulate_actions(parsed.frames)
    wall_s = time.perf_counter() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outputs = {"report.json": report_bytes(report), "summary.json": manifest_bytes(manifest), "trace.jsonl": trace_bytes(actions)}
    out.mkdir(parents=True, exist_ok=True)
    for name, data in outputs.items():
        (out / name).write_bytes(data)
    input_bytes = sum((inputs / name).stat().st_size for name in ("frames.jsonl", "feat.bin")) + pgm_bytes
    return {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "frames": len(parsed.frames) + parsed.duplicates_dropped,
        "without_score": sum(1 for f in parsed.frames if f.blur_variance is None),
        "provider_calls": provider_calls,
        "input_mb": input_bytes / 1e6,
        "spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    result = pipeline_pass(Path(argv[0]), Path(argv[1]), "--images" in argv, "--trace" in argv)
    print(json.dumps(result))
    return 0


# --- workload driver (runs in the benchmark's main process) ------------------


def _reference(ctx):
    """Generator truth and the offline reference outputs for the run's session."""
    from robosum import scenario, service
    from robosum.content_filter import FilterReport
    from robosum.model import IllPosedReason
    from robosum.summarizer import SummarizerConfig, summarize

    import inputs

    spec = inputs.session_spec(inputs.layout_for(ctx.workload, ctx.tiny), ctx.seed)
    frames, truth = scenario.generate_session(spec)
    rejected = {reason: sum(1 for t in truth if t.reason is reason) for reason in IllPosedReason}
    well_posed = [f for f, t in zip(frames, truth) if t.well_posed]
    report = FilterReport(total=len(truth), accepted=len(well_posed), rejected_by_reason=rejected)
    manifest = summarize(well_posed, SummarizerConfig(k=SUMMARY_K, h0=SUMMARY_H0))
    return spec, {
        "report.json": report_bytes(report),
        "summary.json": manifest_bytes(manifest),
        "trace.jsonl": trace_bytes(service.simulate_actions(frames)),
    }


def _keyframe_per_segment(spec, manifest: dict) -> bool:
    hits = sorted(
        i
        for entry in manifest["entries"]
        for i, seg in enumerate(spec.activity_segments)
        if seg.start_s <= entry["t"] < seg.end_s
    )
    return hits == list(range(len(spec.activity_segments)))


def _check_outputs(label: str, outputs: dict[str, bytes], expected: dict[str, bytes], spec, mismatches: list[str]) -> bool:
    ok = True
    for name, data in outputs.items():
        if data != expected[name]:
            mismatches.append(f"{label}: {name} differs from the reference")
            ok = False
    if not _keyframe_per_segment(spec, json.loads(outputs["summary.json"])):
        mismatches.append(f"{label}: manifest does not hold one keyframe per activity segment")
        ok = False
    return ok


def _cli_stages(ctx, inputs_dir: Path, tracer) -> tuple[dict[str, float], dict[str, bytes]]:
    """The same stages through ``robosum`` subprocesses on the same files."""
    from common import run_child

    out = ctx.workdir / "cli"
    out.mkdir(exist_ok=True)
    commands = {
        "filter": ["filter", "--frames", inputs_dir / "frames.jsonl", "--out", out / "wellposed.jsonl", "--report", out / "report.json"],
        "summarize": ["summarize", "--frames", out / "wellposed.jsonl", "--features", inputs_dir / "feat.bin", "--out", out / "summary.json"],
        "simulate": ["simulate", "--frames", inputs_dir / "frames.jsonl", "--out", out / "trace.jsonl"],
    }
    walls = {}
    for stage, argv in commands.items():
        started = time.perf_counter()
        with tracer.span(f"cli.{stage}"):
            run_child(["-m", "robosum.cli", *map(str, argv)])
        walls[stage] = time.perf_counter() - started
    return walls, {name: (out / name).read_bytes() for name in ("report.json", "summary.json", "trace.jsonl")}


def run(ctx):
    from common import Outcome, budget_spent, last_json_line, median, mode_counts, mutate_action_line, reason_key, run_child, sha256_bytes, timed_setups
    from tracing import Tracer, durations

    tracer = Tracer(ctx.trace, f"{ctx.workload}:{ctx.seed}")
    images = ctx.workload == "batch_images"
    setup_s, setup_stages, _ = timed_setups(ctx, tracer, with_server=False)
    inputs_dir = ctx.workdir / "inputs"

    passes: list[tuple[bool, dict, dict[str, bytes]]] = []

    def one_pass(traced: bool) -> None:
        out = ctx.workdir / f"pass-{len(passes)}"
        args = ["perfbench/batch.py", str(inputs_dir), str(out)] + ["--images"] * images + ["--trace"] * traced
        result = last_json_line(run_child(args).stdout)
        if traced:
            tracer.adopt(result["spans"])
        outputs = {name: (out / name).read_bytes() for name in ("report.json", "summary.json", "trace.jsonl")}
        passes.append((traced, result, outputs))

    # A warm-up pass, checked but left out of every metric: the first pass
    # after the set-ups ran slower than the run's median in 9 of 11 runs.
    one_pass(False)
    started = time.perf_counter()
    while True:
        timed = len(passes) - 1
        pass_started = time.perf_counter()
        one_pass(ctx.trace and timed % 2 == 1)
        if budget_spent(started, pass_started, ctx.seconds, timed + 1, 2 if ctx.trace else MIN_PASSES):
            break

    cli_walls: dict[str, float] = {}
    cli_outputs = None
    if ctx.trace and ctx.workload == "batch_desk":
        cli_walls, cli_outputs = _cli_stages(ctx, inputs_dir, tracer)

    spec, expected = _reference(ctx)
    if ctx.mutate_action:
        lines = passes[0][2]["trace.jsonl"].decode("utf-8").splitlines()
        lines[len(lines) // 2] = mutate_action_line(lines[len(lines) // 2])
        passes[0][2]["trace.jsonl"] = trace_bytes(lines)
    mismatches: list[str] = []
    failed = sum(not _check_outputs(f"pass {i}", outputs, expected, spec, mismatches) for i, (_, _, outputs) in enumerate(passes))
    attempted = len(passes)
    if cli_outputs is not None:
        attempted += 1
        failed += not _check_outputs("cli", cli_outputs, expected, spec, mismatches)

    plain = [r for traced, r, _ in passes[1:] if not traced]
    walls = [r["wall_s"] for r in plain]
    metrics = {
        "setup_s": setup_s,
        "frames_per_s": sum(r["frames"] for r in plain) / sum(walls),
        "latency_ms": sum(walls) / len(walls) * 1e3,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "ops_ok_share": 1.0 - failed / attempted,
    }
    record = {
        "setup_stages": setup_stages,
        "warmup_wall_s": passes[0][1]["wall_s"],
        "pass_walls_s": [r["wall_s"] for _, r, _ in passes[1:]],
        "sha256": {name: sorted({sha256_bytes(o[name]) for _, _, o in passes}) for name in expected},
        "reference_sha256": {name: sha256_bytes(data) for name, data in expected.items()},
    }
    if ctx.trace:
        traced_runs = [r for traced, r, _ in passes if traced]
        first = passes[0][2]
        report = json.loads(first["report.json"])
        manifest = json.loads(first["summary.json"])
        names = ("frameio.parse", "frameio.load_features", "frameio.attach", "frameio.load_pgm",
                 "content_filter.filter", "summarizer.summarize", "controller.simulate")
        stage = {name: median([sum(durations(r["spans"]).get(name, [0.0])) for r in traced_runs]) for name in names}
        calls = passes[0][1]["provider_calls"]
        metrics.update({
            "scenario.generate_s": median(s["scenario.generate"] for s in setup_stages),
            "frameio.write_s": median(s["frameio.write"] for s in setup_stages),
            "frameio.parse_s": stage["frameio.parse"],
            "frameio.load_features_s": stage["frameio.load_features"],
            "frameio.attach_s": stage["frameio.attach"],
            "frameio.load_pgm_s": stage["frameio.load_pgm"],
            "frameio.frames_parsed": passes[0][1]["frames"],
            "frameio.input_mb": passes[0][1]["input_mb"],
            "content_filter.filter_s": stage["content_filter.filter"],
            "content_filter.self_s": stage["content_filter.filter"] - stage["frameio.load_pgm"],
            "content_filter.images_requested": calls,
            "content_filter.image_use_ratio": passes[0][1]["without_score"] / calls if calls else 0.0,
            "content_filter.accepted": report["accepted"],
            "summarizer.summarize_s": stage["summarizer.summarize"],
            "summarizer.session_summarize_s": stage["summarizer.summarize"],
            "summarizer.clusters": manifest["m"],
            "summarizer.h_star": manifest["h_star"],
            "controller.simulate_s": stage["controller.simulate"],
            "trace.overhead_share": median(r["wall_s"] for r in traced_runs) / median(walls) - 1.0,
        })
        metrics.update({f"content_filter.rejected.{reason_key(k)}": v for k, v in report["rejected_by_reason"].items()})
        metrics.update({f"controller.actions.{mode}": n for mode, n in mode_counts(first["trace.jsonl"].decode().splitlines()).items()})
        metrics.update({f"cli.{stage_name}_s": wall for stage_name, wall in cli_walls.items()})
    return Outcome(metrics=metrics, attempted=attempted, failed=failed, mismatches=mismatches, record=record), tracer


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
