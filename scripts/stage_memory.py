"""Peak RSS (VmHWM) after each stage of one batch pass and of one server session over a desk session, and of one image pass; Markdown tables.

    PYTHONPATH=src python scripts/stage_memory.py [--segments N] [--seed S]

Writes the benchmark's desk session (``perfbench/inputs.py``: 8 activity
segments, 20,800 frames at 1 fps; 40 segments give 104,000) to a temporary
directory, as a frames file with its feature file and as the ``frame``
messages with inline features a client sends. Then a fresh process runs
``perfbench/batch.py``'s own pass, ``parse -> load_features -> attach ->
filter -> summarize -> simulate``, and reads VmHWM from
``/proc/self/status`` as each of its stages ends, so the first table shows
which stage sets the peak. A second fresh process answers the messages,
one line at a time, through the server's own per-line path
(``service._answer``) on one ``Session``, then ends the session; the second
table reads VmHWM after the imports, after the last frame and after
``end_session``. A third fresh process runs the same pass over the
``batch_images`` workload's inputs (``perfbench/inputs.py``'s image layout:
2,400 frames, half without a blur score, each of those scored from a
640x480 PGM), so the third table shows what blur scoring holds. Linux only.
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
    with open(out / "session.ndjson", "wb") as fh:
        fh.writelines(map(inputs.frame_message_line, frames))
    return len(frames)


def write_image_inputs(out: Path, seed: int) -> int:
    import inputs
    import tracing

    return inputs.write_inputs("batch_images", seed, out, tiny=False, tracer=tracing.Tracer(False, "inputs"))["frames"]


def one_pass(inputs: Path, images: bool = False) -> None:
    """Run the benchmark's pass with a tracer that prints ``stage VmHWM`` as each stage ends."""
    import batch
    import tracing

    class StageTracer(tracing.Tracer):
        @contextmanager
        def span(self, name: str):
            if name == "bench.pass":  # the pass's own span opens once its imports are done
                print("imports", vm_hwm_mib())
            yield
            if name not in ("bench.pass", "frameio.load_pgm"):  # one load_pgm span a scoreless frame, inside the filter
                print(name.rsplit(".", 1)[-1], vm_hwm_mib())

    tracing.Tracer = StageTracer
    batch.pipeline_pass(inputs, inputs / "out", images=images, trace=False)


def answer_session(inputs_dir: Path) -> None:
    """Answer the session's frame messages and its ``end_session`` as the server does, printing ``stage VmHWM``."""
    import inputs

    from robosum import service

    session = service.Session(service.ServiceConfig())
    print("imports", vm_hwm_mib())
    line_no = 0
    with open(inputs_dir / "session.ndjson", "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            reply, done = service._answer(session, raw, line_no)
            if done:
                raise SystemExit(f"line {line_no} ended the session: {reply}")
    print("last_frame", vm_hwm_mib())
    reply, _ = service._answer(session, inputs.end_session_line(), line_no + 1)
    if '"type":"summary"' not in reply:
        raise SystemExit(f"end_session was not answered with a summary: {reply}")
    print("end_session", vm_hwm_mib())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--segments", type=int, default=8, help="activity segments of 2,600 frames each (default 8)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--part", nargs=2, help=argparse.SUPPRESS)  # the fresh process's part, and the directory
    args = parser.parse_args(argv)
    if args.part:
        part, over = args.part
        parts = {"pass": one_pass, "session": answer_session, "images": lambda path: one_pass(path, images=True)}
        parts[part](Path(over))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        frames = write_session(Path(tmp), args.segments, args.seed)
        image_frames = write_image_inputs(Path(tmp) / "images_workload", args.seed)
        runs = [
            subprocess.run([sys.executable, __file__, "--part", part, over], capture_output=True, text=True, check=True).stdout
            for part, over in (("pass", tmp), ("session", tmp), ("images", str(Path(tmp) / "images_workload")))
        ]
    titles = (
        f"VmHWM (MiB), batch pass over a desk session of {frames:,} frames, seed {args.seed}",
        f"VmHWM (MiB), server session of the same {frames:,} frames with inline features",
        f"VmHWM (MiB), batch pass over the image workload's {image_frames:,} frames, half scored from 640x480 PGMs, seed {args.seed}",
    )
    for i, (title, run) in enumerate(zip(titles, runs)):
        print("\n" * (i > 0) + f"| stage | {title} |\n|---|---|")
        for line in run.splitlines():
            stage, mib = line.split()
            print(f"| {stage} | {float(mib):.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
