"""robosum benchmark: one workload, one seed, one measured run.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch_desk --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output matched its reference, 1 when a correctness check
failed, and 2 when the run could not be made (no result line then).
The run record (machine, versions, parameters, output SHA-256s) and, for
traced runs, the spans and per-layer self times are written under
``.perfbench_runs/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("batch_desk", "batch_images", "serve_live")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="robosum benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size: 1,265-frame sessions (see selftest.py)")
    return parser.parse_args(argv)


def load_metric_specs() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def run_workload(ctx):
    """Dispatch one run; returns (Outcome, Tracer)."""
    if ctx.workload.startswith("batch_"):
        import batch

        return batch.run(ctx)
    import live

    return live.run(ctx)


def execute(ctx) -> dict:
    """Run a workload and write its record; returns the result object."""
    from common import run_metadata
    from tracing import self_times

    end_to_end, per_layer = load_metric_specs()
    wanted = per_layer if ctx.trace else end_to_end
    started = time.perf_counter()
    try:
        outcome, tracer = run_workload(ctx)
    finally:
        shutil.rmtree(ctx.workdir / "inputs", ignore_errors=True)
        for path in ctx.workdir.glob("pass-*"):
            shutil.rmtree(path, ignore_errors=True)
    missing = [name for name in end_to_end if name not in outcome.metrics] if not ctx.trace else []
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit} for name, unit in wanted.items()}
    record = {
        "meta": run_metadata(ctx, outcome.record.pop("params", {})),
        "run_wall_s": time.perf_counter() - started,
        "mismatches": outcome.mismatches,
        **outcome.record,
        "metrics": metrics,
    }
    if ctx.trace:
        tracer.write(ctx.workdir / "spans.jsonl")
        record["self_times_s"] = self_times(tracer.spans)
    with open(ctx.workdir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {
        "correct": not outcome.mismatches,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "robosum" / "__init__.py").is_file():
        print(f"error: no robosum sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from common import WORK_ROOT, Context

    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' * args.tiny}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), workdir, tiny=args.tiny)
    try:
        result = execute(ctx)
    except Exception:
        traceback.print_exc()
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"record: {workdir / 'record.json'}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
