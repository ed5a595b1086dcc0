"""Golden digests: the bytes of a filter report, a summary manifest and action traces are pinned.

The SHA-256 values below were recorded from a small seeded ``robosum gen``
session. Any change to the program that moves a byte of these outputs fails
here, so byte identity is checked by the test suite and not only by the
benchmark.
"""

import hashlib
import json

import pytest

from robosum import frameio
from robosum.cli import main
from robosum.controller import ControllerConfig
from robosum.model import IllPosedReason
from robosum.scenario import ActivitySegment, Injection, ScenarioSpec, Waypoint, spec_to_dict
from robosum.service import ServiceConfig, replay_session, run_server_in_thread

SEED = 2024

REPORT_SHA256 = "3a78d3cb4fc7c8387a9079582c2a0072bb4bfde1a8a15ed1ab5effab387ca710"
MANIFEST_SHA256 = "76389f7ba5a7b61397b1245842c1dd65a65c218b90eccd1b37cf77f6b42faefb"
TRACE_SHA256 = "39ea324d29c9f449fe00af46ae9eb9d7f8a1599d2a1666b29c5223aab80fd97d"
# The same session with ``{"controller": {"search_turn_deg": 30}}``: an int
# in the config stays an int on the wire ("rotate_deg":30).
INT_TURN_TRACE_SHA256 = "32bdd3caf81f9e0303465d843259b09b93f329b097ffaae0ab3c6847854636e1"

INT_TURN_CONFIG = {"controller": {"search_turn_deg": 30}}

# The generated files themselves: ``gen --features`` (frames.jsonl and feat.bin), ``gen --images`` (frames.jsonl,
# and the 2,100 images concatenated in frame order) and ``gen`` under CORNER_CONFIG, which moves the AtCorner
# frames' skeletons (its feat.bin is the first run's).
GEN_FRAMES_SHA256 = "b24a99ee2959cc8f09532427944de041065a684f1df832f6356706f177f97de4"
GEN_FEATURES_SHA256 = "94b75bf66fb67e2c9bfdee9b28f0414e28171ee0e039626073249f490bb49445"
GEN_IMAGES_FRAMES_SHA256 = "c61da806aa0fc13b52577e8b3a59bb246e7319b5bb295e7d7a28aaa29b2bb420"
GEN_IMAGES_SHA256 = "1d36f95c9cdca614fd6f249dee978f2aa02c6214c163e08639daaee5cdda52cb"
GEN_CORNER_FRAMES_SHA256 = "41ed2199728d45626010cb3208aee5f914a51d40adfd49069a549f88c47fbe77"

CORNER_CONFIG = {"filter": {"corner_margin_fraction": 0.2}}


def golden_spec() -> ScenarioSpec:
    """Three activity segments; the second gap outlasts a search cycle and the idle period."""
    return ScenarioSpec(
        duration_s=2100.0,
        fps=1.0,
        activity_segments=(
            ActivitySegment(0.0, 300.0, activity_id=5),
            ActivitySegment(400.0, 700.0, activity_id=42),
            ActivitySegment(1700.0, 2000.0, activity_id=99),
        ),
        ill_posed_injections=(
            Injection(20.0, 30.0, IllPosedReason.BLURRED),
            Injection(60.0, 70.0, IllPosedReason.TOO_SMALL),
            Injection(150.0, 160.0, IllPosedReason.AT_CORNER),
            Injection(450.0, 460.0, IllPosedReason.FOREHEAD_CROPPED),
            Injection(500.0, 510.0, IllPosedReason.EYES_INVISIBLE),
            Injection(1750.0, 1760.0, IllPosedReason.PEOPLE_ABSENT),
        ),
        person_trajectory=(
            Waypoint(0.0, 320.0, 170.0, 150.0),
            Waypoint(300.0, 250.0, 160.0, 110.0),
            Waypoint(700.0, 400.0, 180.0, 200.0),
            Waypoint(2000.0, 300.0, 165.0, 130.0),
        ),
        rng_seed=SEED,
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(golden_spec())))
    frames, feats = root / "frames.jsonl", root / "feat.bin"
    assert main(["--seed", str(SEED), "gen", "--spec", str(spec_path), "--out", str(frames), "--features", str(feats)]) == 0
    return root, frames, feats


def replay_trace(frames, feats, cfg: ServiceConfig) -> bytes:
    with open(frames, "r", encoding="utf-8") as fh:
        parsed = frameio.parse_frames_jsonl(fh)
    server, _ = run_server_in_thread(cfg)
    host, port = server.bound_address
    try:
        result = replay_session(host, port, parsed, features=frameio.load_features(feats), k=4)
    finally:
        server.shutdown()
        server.server_close()
    assert result.error_line is None and result.summary_line is not None
    return "".join(line + "\n" for line in result.action_lines).encode("utf-8")


def test_filter_report_and_manifest(session):
    root, frames, feats = session
    kept, report, manifest = root / "kept.jsonl", root / "report.json", root / "summary.json"
    assert main(["filter", "--frames", str(frames), "--out", str(kept), "--report", str(report)]) == 0
    assert main(["summarize", "--frames", str(kept), "--features", str(feats), "--k", "4", "--out", str(manifest)]) == 0
    assert sha256(report.read_bytes()) == REPORT_SHA256
    assert sha256(manifest.read_bytes()) == MANIFEST_SHA256


def test_simulate_trace_and_live_server(session):
    root, frames, feats = session
    trace = root / "trace.jsonl"
    assert main(["simulate", "--frames", str(frames), "--out", str(trace)]) == 0
    assert sha256(trace.read_bytes()) == TRACE_SHA256
    assert sha256(replay_trace(frames, feats, ServiceConfig())) == TRACE_SHA256


def test_int_config_value_stays_an_int_on_the_wire(session):
    root, frames, feats = session
    config, trace = root / "config.json", root / "trace-int.jsonl"
    config.write_text(json.dumps(INT_TURN_CONFIG))
    assert main(["--config", str(config), "simulate", "--frames", str(frames), "--out", str(trace)]) == 0
    data = trace.read_bytes()
    assert b'"rotate_deg":30,' in data
    assert sha256(data) == INT_TURN_TRACE_SHA256
    live = replay_trace(frames, feats, ServiceConfig(controller_config=ControllerConfig(**INT_TURN_CONFIG["controller"])))
    assert sha256(live) == INT_TURN_TRACE_SHA256


def test_generated_frames_and_features(session):
    _, frames, feats = session
    assert sha256(frames.read_bytes()) == GEN_FRAMES_SHA256
    assert sha256(feats.read_bytes()) == GEN_FEATURES_SHA256


def test_generated_frames_and_images(session):
    root, _, _ = session
    frames, images = root / "imaged.jsonl", root / "images"
    spec = str(root / "spec.json")
    assert main(["--seed", str(SEED), "gen", "--spec", spec, "--out", str(frames), "--images", str(images)]) == 0
    assert sha256(frames.read_bytes()) == GEN_IMAGES_FRAMES_SHA256
    count = golden_spec().frame_count
    assert len(list(images.iterdir())) == count
    assert sha256(b"".join((images / f"{i}.pgm").read_bytes() for i in range(count))) == GEN_IMAGES_SHA256


def test_generated_frames_under_a_moved_corner_margin(session):
    root, _, _ = session
    config, frames, feats = root / "corner.json", root / "corner.jsonl", root / "corner.bin"
    config.write_text(json.dumps(CORNER_CONFIG))
    argv = ["--config", str(config), "--seed", str(SEED), "gen", "--spec", str(root / "spec.json")]
    assert main([*argv, "--out", str(frames), "--features", str(feats)]) == 0
    assert sha256(frames.read_bytes()) == GEN_CORNER_FRAMES_SHA256
    assert sha256(feats.read_bytes()) == GEN_FEATURES_SHA256
