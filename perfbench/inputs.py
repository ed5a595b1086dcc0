"""Seeded inputs for every workload, and the set-up step that writes them.

The benchmark derives every input from ``--seed``; robosum only ever sees
the written files and the wire messages. Run as a script, this module is
one set-up: it imports robosum, generates the workload's sessions and
writes them under a directory, then prints one JSON line with its timings::

    python3 perfbench/inputs.py WORKLOAD SEED DIR [--tiny] [--trace]

``run.py`` starts it several times per run and reports the median as part
of ``setup_s``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

#: Session layouts: activity segments separated by idle gaps, with one
#: ill-posed injection inside each segment. Gaps exceed every injection, so
#: the summarizer finds exactly one cluster per segment.
LAYOUTS = {
    # The paper's desk-scale session: 20,800 frames at 1 fps.
    "desk": {"segments": 8, "seg_s": 2000.0, "gap_s": 600.0, "edge_s": 300.0, "inj_s": (30, 120)},
    # 2,400 frames: the image workload and each live-service session.
    "small": {"segments": 8, "seg_s": 200.0, "gap_s": 100.0, "edge_s": 50.0, "inj_s": (20, 40)},
    # 1,265 frames, for the self-test.
    "tiny": {"segments": 8, "seg_s": 100.0, "gap_s": 65.0, "edge_s": 5.0, "inj_s": (5, 15)},
}

#: batch_images: distinct PGM images shared by all frames (sharp, blurred).
IMAGE_POOL = (24, 8)
IMAGE_POOL_TINY = (4, 2)
IMAGE_SHAPE = (480, 640)
#: serve_live: distinct sessions that the two connections cycle through.
LIVE_POOL = 4
LIVE_POOL_TINY = 2

SUMMARY_K = 8
SUMMARY_H0 = 60.0


def layout_for(workload: str, tiny: bool) -> str:
    if tiny:
        return "tiny"
    return "desk" if workload == "batch_desk" else "small"


def session_spec(layout: str, seed: int, salt: str = ""):
    """A labeled session spec; every choice in it comes from ``seed``."""
    from robosum.model import FEATURE_DIM, IllPosedReason
    from robosum.scenario import ActivitySegment, Injection, ScenarioSpec, Waypoint

    shape = LAYOUTS[layout]
    rnd = random.Random(f"robosum-bench:{layout}:{salt}:{seed}")
    n_seg = shape["segments"]
    reasons = list(IllPosedReason)
    rnd.shuffle(reasons)
    reasons += [rnd.choice(list(IllPosedReason)) for _ in range(n_seg - len(reasons))]
    activities = rnd.sample(range(FEATURE_DIM), n_seg)
    seg_s = shape["seg_s"]
    t = shape["edge_s"]
    segments, injections = [], []
    for i in range(n_seg):
        segments.append(ActivitySegment(t, t + seg_s, activity_id=activities[i]))
        length = float(rnd.randint(*shape["inj_s"]))
        start = float(round(t + rnd.uniform(0.1 * seg_s, 0.8 * seg_s - length)))
        injections.append(Injection(start, start + length, reasons[i]))
        t += seg_s + shape["gap_s"]
    duration = t - shape["gap_s"] + shape["edge_s"]
    step = seg_s / 2.0
    waypoints = tuple(
        Waypoint(
            t=i * step,
            x=rnd.uniform(220.0, 420.0),
            y=rnd.uniform(150.0, 200.0),
            torso_px=rnd.uniform(120.0, 160.0),
        )
        for i in range(int(duration // step) + 2)
    )
    return ScenarioSpec(
        duration_s=duration,
        fps=1.0,
        activity_segments=tuple(segments),
        ill_posed_injections=tuple(injections),
        person_trajectory=waypoints,
        rng_seed=rnd.randrange(2**31),
    )


def live_specs(seed: int, tiny: bool) -> list:
    pool = LIVE_POOL_TINY if tiny else LIVE_POOL
    return [session_spec(layout_for("serve_live", tiny), seed, salt=f"live{i}") for i in range(pool)]


def images_without_score(truth, seed: int) -> set[int]:
    """Exactly half the frames: every blurred and people-absent one, then seeded others."""
    from robosum.model import IllPosedReason

    must = [t.frame_id for t in truth if t.reason in (IllPosedReason.BLURRED, IllPosedReason.PEOPLE_ABSENT)]
    half = len(truth) // 2
    if len(must) > half:
        raise ValueError("layout leaves more than half the frames blurred or empty")
    rest = sorted(set(t.frame_id for t in truth) - set(must))
    return set(must) | set(random.Random(f"robosum-bench:noscore:{seed}").sample(rest, half - len(must)))


def pool_image(blurred: bool, index: int, seed: int):
    """640x480 grayscale: uniform noise when sharp; a shallow gradient with +-1 noise when blurred."""
    import numpy as np

    rng = np.random.default_rng([seed, int(blurred), index])
    rows, cols = IMAGE_SHAPE
    if not blurred:
        return rng.integers(0, 256, size=IMAGE_SHAPE, dtype=np.uint8)
    base = rng.uniform(40, 80) + np.add.outer(np.arange(rows) * rng.uniform(0, 0.15), np.arange(cols) * rng.uniform(0, 0.1))
    return (np.rint(base) + rng.integers(-1, 2, size=IMAGE_SHAPE)).astype(np.uint8)


def frame_message_line(rec) -> bytes:
    """One ``frame`` wire message with inline features, encoded as ``service.replay_session`` encodes it."""
    from robosum import frameio, service

    msg = {"type": "frame", **frameio.frame_to_wire(rec)}
    msg["features"] = None if rec.features is None else [float(v) for v in rec.features.values]
    return (service.dumps_wire(msg) + "\n").encode("utf-8")


def end_session_line() -> bytes:
    from robosum import service

    return (service.dumps_wire({"type": "end_session", "k": SUMMARY_K, "h0": SUMMARY_H0}) + "\n").encode("utf-8")


def write_inputs(workload: str, seed: int, out: Path, tiny: bool, tracer) -> dict:
    """Generate and write one workload's inputs under ``out``; returns counts."""
    import dataclasses

    from robosum import frameio, scenario

    out.mkdir(parents=True, exist_ok=True)
    if workload == "serve_live":
        frames_total = 0
        for i, spec in enumerate(live_specs(seed, tiny)):
            with tracer.span("scenario.generate"):
                frames, _ = scenario.generate_session(spec)
            with tracer.span("frameio.write"):
                with open(out / f"session-{i}.ndjson", "wb") as fh:
                    for rec in frames:
                        fh.write(frame_message_line(rec))
            frames_total += len(frames)
        return {"frames": frames_total}

    spec = session_spec(layout_for(workload, tiny), seed)
    with tracer.span("scenario.generate"):
        frames, truth = scenario.generate_session(spec)
    with tracer.span("frameio.write"):
        if workload == "batch_images":
            images = out / "images"
            images.mkdir(exist_ok=True)
            sharp_n, blur_n = IMAGE_POOL_TINY if tiny else IMAGE_POOL
            for i in range(sharp_n):
                frameio.save_pgm(pool_image(False, i, seed), images / f"sharp-{i}.pgm")
            for i in range(blur_n):
                frameio.save_pgm(pool_image(True, i, seed), images / f"blurred-{i}.pgm")
            from robosum.model import IllPosedReason

            index = [
                f"blurred-{t.frame_id % blur_n}.pgm" if t.reason is IllPosedReason.BLURRED else f"sharp-{t.frame_id % sharp_n}.pgm"
                for t in truth
            ]
            with open(images / "index.json", "w", encoding="utf-8") as fh:
                json.dump(index, fh)
            drop = images_without_score(truth, seed)
            frames = [dataclasses.replace(f, blur_variance=None) if f.frame_id in drop else f for f in frames]
        with open(out / "frames.jsonl", "w", encoding="utf-8") as fh:
            matrix = frameio.write_frames_jsonl(frames, fh)
        frameio.save_features(matrix, out / "feat.bin")
    return {"frames": len(frames)}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    from tracing import Tracer

    tracer = Tracer("--trace" in argv, f"setup:{workload}:{seed}")
    with tracer.span("bench.setup"):
        counts = write_inputs(workload, seed, out, "--tiny" in argv, tracer)
    stages = {name: sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == name) for name in ("scenario.generate", "frameio.write")}
    print(json.dumps({"counts": counts, "stages": stages, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
