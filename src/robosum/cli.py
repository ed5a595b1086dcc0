"""Operator command line: generate, filter, summarize, simulate, serve, replay.

Exit codes: 0 success, 1 usage/configuration error, 2 data error (the
underlying module's message is printed verbatim).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import frameio, scenario, service
from .content_filter import FilterConfig, filter_frames
from .controller import ControllerConfig
from .errors import PipelineError
from .model import FrameTable, IllPosedReason, build_fields, read_fields
from .summarizer import (
    SummarizerConfig,
    assign_clusters,
    cluster_occupancy_histogram,
    kmeans_keyframes,
    summarize,
    uniform_keyframes,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; this project uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rate(text: str):
    if text == "max":
        return "max"
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be 'max' or a positive multiplier")
    return value


@dataclasses.dataclass(frozen=True)
class AppConfig:
    """One config section per field; each field's default factory is its section's class."""

    filter: FilterConfig = dataclasses.field(default_factory=FilterConfig)
    summarizer: SummarizerConfig = dataclasses.field(default_factory=SummarizerConfig)
    controller: ControllerConfig = dataclasses.field(default_factory=ControllerConfig)


def load_app_config(path: str | None) -> AppConfig:
    """Merge a JSON config file over the built-in defaults.

    The file may define "filter", "summarizer", and "controller" sections;
    unknown sections or keys are errors so typos cannot silently pass.
    """
    if path is None:
        return AppConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except frameio.JSON_FAULTS as exc:
        raise _UsageError(f"config file is not valid JSON: {frameio._json_fault(exc)}") from exc
    try:
        given = read_fields(AppConfig, obj, "config file")
        classes = {f.name: f.default_factory for f in dataclasses.fields(AppConfig)}
        return AppConfig(
            **{name: build_fields(classes[name], value, f"config section {name!r}") for name, value in given.items()}
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _summarizer_config(args, cfg: AppConfig) -> SummarizerConfig:
    """The config's summarizer section with any ``--k``/``--h0`` given on the command line."""
    given = {name: value for name in ("k", "h0") if (value := getattr(args, name, None)) is not None}
    try:
        return dataclasses.replace(cfg.summarizer, **given)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _image_provider(directory: str | None):
    if directory is None:
        return None
    root = Path(directory)

    def load(rec):
        path = root / f"{rec.frame_id}.pgm"
        if not path.exists():
            return None
        return frameio.load_pgm(path)

    return load


def _read_frames(path: str) -> frameio.ParseResult:
    # newline="\n": a frames file splits its lines on LF only, as the wire splits its stream.
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return frameio.parse_frames_jsonl(fh)


def _parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise _UsageError(f"--addr must look like HOST:PORT, got {text!r}")
    # int() would also take a sign, spaces, underscores and non-ASCII digits; bind() raises OverflowError past
    # 65535, and connect() takes the port mod 65536.
    if not (port.isascii() and port.isdigit() and len(port) <= 5 and int(port) <= 65535):
        raise _UsageError(f"bad port in {text!r}: must be 0-65535")
    return host, int(port)


# --- subcommand implementations ----------------------------------------------


def _cmd_gen(args, cfg: AppConfig) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            spec_obj = json.load(fh)
        except frameio.JSON_FAULTS as exc:
            raise _UsageError(f"scenario spec is not valid JSON: {frameio._json_fault(exc)}") from exc
    spec = scenario.spec_from_dict(spec_obj)
    if args.seed is not None:
        spec = dataclasses.replace(spec, rng_seed=args.seed)
    frames, truth = scenario.generate_session(spec, cfg.filter)

    if args.images:
        images_dir = Path(args.images)
        images_dir.mkdir(parents=True, exist_ok=True)
        for t in truth:
            image = scenario.frame_image(t.frame_id, t.reason is IllPosedReason.BLURRED, seed=spec.rng_seed)
            frameio.save_pgm(image, images_dir / f"{t.frame_id}.pgm")
    # With images, a frame's blur score is left to its image; without a feature file, no frame has features.
    # Either writes a table over the session's columns with that column replaced.
    if args.images or not args.features:
        table = FrameTable.of(frames)
        blur, feat_row, features = table.blur, table.feat_row, table.features
        if args.images:
            blur = np.full(len(table), np.nan)
        if not args.features:
            feat_row, features = np.full(len(table), -1, dtype=np.int64), None
        frames = FrameTable(
            table.frame_id, table.t, table.w, table.h, blur, table.point_row, feat_row, table.points, features
        )

    with open(args.out, "w", encoding="utf-8") as fh:
        matrix = frameio.write_frames_jsonl(frames, fh)
    if args.features:
        frameio.save_features(
            matrix if matrix is not None else np.zeros((0, frameio.FEATURE_DIM), dtype=np.float32),
            args.features,
        )
    logging.info("generated %d frames (%d well-posed by construction)", len(frames), sum(t.well_posed for t in truth))
    return 0


def _cmd_filter(args, cfg: AppConfig) -> int:
    accepted, report = filter_frames(_read_frames(args.frames).frames, cfg.filter, images=_image_provider(args.images))
    with open(args.out, "w", encoding="utf-8") as fh:
        frameio.write_frames_jsonl(accepted, fh)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    if args.verbose:
        print(f"kept {report.accepted}/{report.total} frames", file=sys.stderr)
    return 0


def _load_session_with_features(frames_path: str, features_path: str):
    return frameio.attach_features(_read_frames(frames_path), frameio.load_features(features_path))


def _cmd_summarize(args, cfg: AppConfig) -> int:
    sum_cfg = _summarizer_config(args, cfg)
    frames = _load_session_with_features(args.frames, args.features)
    manifest = summarize(frames, sum_cfg)
    frameio.write_summary_manifest(manifest, args.out)
    if args.verbose and len(frames) >= 1 and math.isfinite(manifest.h_star) and manifest.h_star > 0:
        clusters = assign_clusters(frames.t, manifest.h_star)
        kept = {e.cluster_index for e in manifest.entries}
        print(cluster_occupancy_histogram(c for c in clusters if c.index in kept), file=sys.stderr)
        print(f"{len(clusters)} clusters at h* = {manifest.h_star:g} s, {len(kept)} kept", file=sys.stderr)
    if manifest.is_short_session:
        print(
            f"warning: session has fewer frames ({len(manifest.entries)}) than requested keyframes ({manifest.k})",
            file=sys.stderr,
        )
    return 0


def _cmd_baseline(args, cfg: AppConfig) -> int:
    k = _summarizer_config(args, cfg).k
    if args.method == "uniform":
        manifest = uniform_keyframes(_read_frames(args.frames).frames, k)
    else:
        if not args.features:
            raise _UsageError("--features is required for the kmeans baseline")
        frames = _load_session_with_features(args.frames, args.features)
        manifest = kmeans_keyframes(frames, k, seed=args.seed if args.seed is not None else 0)
    frameio.write_summary_manifest(manifest, args.out)
    return 0


def _cmd_simulate(args, cfg: AppConfig) -> int:
    lines = service.simulate_actions(_read_frames(args.frames).frames, cfg.controller)
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return 0


def _cmd_serve(args, cfg: AppConfig) -> int:
    host, port = _parse_addr(args.addr)
    service.serve(host, port, service.ServiceConfig(filter_config=cfg.filter, controller_config=cfg.controller))
    return 0


def _cmd_replay(args, cfg: AppConfig) -> int:
    sum_cfg = _summarizer_config(args, cfg)
    host, port = _parse_addr(args.addr)
    parsed = _read_frames(args.frames)
    matrix = frameio.load_features(args.features) if args.features else None
    out_fh = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        result = service.replay_session(
            host,
            port,
            parsed,
            features=matrix,
            rate=args.rate,
            k=sum_cfg.k,
            h0=sum_cfg.h0,
            trace=out_fh,
        )
    finally:
        if out_fh is not None:
            out_fh.close()
    if result.error_line is not None:
        print(f"error: server replied: {result.error_line}", file=sys.stderr)
        return 2
    if args.verbose:
        print(f"received {len(result.action_lines)} action replies", file=sys.stderr)
    return 0


# --- parser wiring ------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="robosum", description=__doc__)
    parser.add_argument("--config", help="JSON file overriding filter/summarizer/controller defaults")
    parser.add_argument("--seed", type=int, help="seed for randomized subcommands")
    parser.add_argument("--verbose", action="store_true", help="chatty diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a labeled synthetic session")
    p.add_argument("--spec", required=True, help="scenario spec JSON")
    p.add_argument("--out", required=True, help="output frames JSONL")
    p.add_argument("--features", help="output feature matrix (FEAT binary)")
    p.add_argument("--images", help="directory for per-frame PGM images (omits blur scores)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("filter", help="drop ill-posed frames")
    p.add_argument("--frames", required=True, help="input frames JSONL")
    p.add_argument("--images", help="directory of <frame_id>.pgm for frames lacking blur scores")
    p.add_argument("--out", required=True, help="output well-posed frames JSONL")
    p.add_argument("--report", required=True, help="output tally JSON")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("summarize", help="select keyframes by temporal clustering")
    p.add_argument("--frames", required=True, help="well-posed frames JSONL")
    p.add_argument("--features", required=True, help="feature matrix (FEAT binary)")
    p.add_argument("--k", type=int, help="number of keyframes (default: the config's summarizer k)")
    p.add_argument("--h0", type=float, help="initial gap threshold in seconds (default: the config's summarizer h0)")
    p.add_argument("--out", required=True, help="output summary manifest JSON")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("baseline", help="naive summarizers for comparison")
    p.add_argument("--method", required=True, choices=("uniform", "kmeans"))
    p.add_argument("--frames", required=True)
    p.add_argument("--features", help="feature matrix (required for kmeans)")
    p.add_argument("--k", type=int, help="number of keyframes (default: the config's summarizer k)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("simulate", help="offline controller run over a recorded session")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True, help="output action trace JSONL")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("serve", help="run the frame-analysis server")
    p.add_argument("--addr", required=True, help="bind address HOST:PORT")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("replay", help="stream a recorded session to a server")
    p.add_argument("--addr", required=True, help="server address HOST:PORT")
    p.add_argument("--frames", required=True)
    p.add_argument("--rate", type=_rate, default="max", help="real-time multiplier or 'max'")
    p.add_argument("--features", help="feature matrix to inline into frame messages")
    p.add_argument("--out", help="write received replies to this JSONL file")
    p.add_argument("--k", type=int, help="keyframe count for end_session (default: the config's summarizer k)")
    p.add_argument("--h0", type=float, help="initial threshold for end_session (default: the config's summarizer h0)")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_app_config(args.config)
        return args.func(args, cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
