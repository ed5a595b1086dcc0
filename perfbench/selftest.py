"""Self-test of the benchmark at a tiny size (about a minute on 2 CPUs).

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` untraced and traced and checks
that every metric of ``BENCHMARK.json`` is printed by name with its unit
and that the run is correct. It then corrupts one received action line per
workload and checks that the run reports it as a failure, and checks that
``run.py`` refuses to run where the robosum sources are missing. Exits 0
when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = "2"


def check_printed(workload: str, trace: int, problems: list[str]) -> None:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", SECONDS, "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: bad result object {lines[-1][:200]}")
    if set(result["metrics"]) != set(wanted):
        problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ set(wanted))} missing or extra")
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, unit in wanted.items():
        if printed.get(name) != unit or result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{label}: {name} not printed with unit {unit}")


def check_mutation_caught(workload: str, problems: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import run
    from common import WORK_ROOT, Context

    workdir = WORK_ROOT / f"selftest-mutate-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(workload, 1, float(SECONDS), False, workdir, tiny=True, mutate_action=True)
    result = run.execute(ctx)
    if result["correct"] or result["failed"] < 1:
        problems.append(f"{workload}: a mutated action line was not caught ({result['failed']} failed)")


def check_refuses_without_sources(problems: list[str]) -> None:
    bare = ROOT / ".perfbench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_desk", "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def check_ladder_stated(problems: list[str]) -> None:
    """The serve_live ladder is fixed in code and stated in BENCHMARK.json's ``why``."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import live

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}["serve_live"]
    first, low, step, high = (int(r) for r in (live.LADDER[0], live.LADDER[1], live.LADDER[2] - live.LADDER[1], live.LADDER[-1]))
    stated = f"{first} fps reference, then {low}-{high} by {step}"
    if stated not in why:
        problems.append(f"serve_live ladder {stated} is not stated in BENCHMARK.json")


def main() -> int:
    problems: list[str] = []
    for workload in ("batch_desk", "batch_images", "serve_live"):
        for trace in (0, 1):
            check_printed(workload, trace, problems)
        check_mutation_caught(workload, problems)
        print(f"{workload}: checked", flush=True)
    check_refuses_without_sources(problems)
    check_ladder_stated(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
