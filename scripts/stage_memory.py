"""Peak RSS (VmHWM) after each stage of one batch pass over a generated desk session, as a Markdown table.

    PYTHONPATH=src python scripts/stage_memory.py [--segments N] [--seed S]

Writes the benchmark's desk session (``perfbench/inputs.py``: 8 activity
segments, 20,800 frames at 1 fps; 40 segments give 104,000) to a temporary
directory. Then a fresh process runs ``perfbench/batch.py``'s own pass,
``parse -> load_features -> attach -> filter -> summarize -> simulate``, and
reads VmHWM from ``/proc/self/status`` as each of its stages ends, so the
table shows which stage sets the peak. Linux only.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))


def vm_hwm_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kib / 1024


def write_session(out: Path, segments: int, seed: int) -> int:
    import inputs

    from robosum import frameio, scenario

    layout = "desk"
    if segments != inputs.LAYOUTS[layout]["segments"]:
        layout = f"desk-{segments}"
        inputs.LAYOUTS[layout] = {**inputs.LAYOUTS["desk"], "segments": segments}
    frames, _ = scenario.generate_session(inputs.session_spec(layout, seed))
    with open(out / "frames.jsonl", "w", encoding="utf-8") as fh:
        matrix = frameio.write_frames_jsonl(frames, fh)
    frameio.save_features(matrix, out / "feat.bin")
    return len(frames)


def one_pass(inputs: Path) -> None:
    """Run the benchmark's pass with a tracer that prints ``stage VmHWM`` as each stage ends."""
    import batch
    import tracing

    class StageTracer(tracing.Tracer):
        @contextmanager
        def span(self, name: str):
            if name == "bench.pass":  # the pass's own span opens once its imports are done
                print("imports", vm_hwm_mib())
            yield
            if name != "bench.pass":
                print(name.rsplit(".", 1)[-1], vm_hwm_mib())

    tracing.Tracer = StageTracer
    batch.pipeline_pass(inputs, inputs / "out", images=False, trace=False)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--segments", type=int, default=8, help="activity segments of 2,600 frames each (default 8)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pass-over", type=Path, help=argparse.SUPPRESS)  # the fresh process's part
    args = parser.parse_args(argv)
    if args.pass_over:
        one_pass(args.pass_over)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        frames = write_session(Path(tmp), args.segments, args.seed)
        run = subprocess.run([sys.executable, __file__, "--pass-over", tmp], capture_output=True, text=True, check=True)
    print(f"| stage | VmHWM (MiB), desk session of {frames:,} frames, seed {args.seed} |\n|---|---|")
    for line in run.stdout.splitlines():
        stage, mib = line.split()
        print(f"| {stage} | {float(mib):.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
