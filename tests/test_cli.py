"""End-to-end CLI flows, exit codes, and flag/config handling."""

import dataclasses
import json
import math
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robosum
from conftest import UNDECODABLE_JSON
from robosum import frameio, scenario
from robosum.cli import AppConfig, main
from robosum.scenario import ActivitySegment, Injection, ScenarioSpec, Waypoint, spec_to_dict
from robosum.model import FEATURE_DIM, IllPosedReason
from robosum.service import ServiceConfig, run_server_in_thread


def write_spec(tmp_path, spec: ScenarioSpec, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec_to_dict(spec)))
    return path


def eight_segment_spec(slow_first=False):
    segments = []
    t = 0.0
    for i in range(8):
        length = 400.0 if (slow_first and i == 0) else 40.0
        segments.append(ActivitySegment(t, t + length, activity_id=(i * 13) % 157))
        t += length + 600.0
    return ScenarioSpec(duration_s=t, fps=1.0, activity_segments=tuple(segments), rng_seed=77)


def small_spec():
    return ScenarioSpec(
        duration_s=120.0,
        fps=1.0,
        activity_segments=(ActivitySegment(0.0, 120.0, activity_id=3),),
        ill_posed_injections=(Injection(10.0, 20.0, IllPosedReason.BLURRED),),
        rng_seed=5,
    )


def one_shot_server(reply):
    """A loopback listener serving one connection: each line in is answered with ``reply(message)`` (text or bytes).

    Returns its ``HOST:PORT``, the list the messages are appended to, and its thread.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    received = []

    def run():
        with listener, listener.accept()[0] as conn, conn.makefile("rwb") as stream:
            for line in stream:
                received.append(json.loads(line))
                answer = reply(received[-1])
                stream.write((answer if isinstance(answer, bytes) else answer.encode()) + b"\n")
                stream.flush()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    return f"{host}:{port}", received, thread


@pytest.fixture
def pipeline_files(tmp_path):
    spec_path = write_spec(tmp_path, small_spec())
    frames = tmp_path / "frames.jsonl"
    feats = tmp_path / "feat.bin"
    assert main(["gen", "--spec", str(spec_path), "--out", str(frames), "--features", str(feats)]) == 0
    return tmp_path, frames, feats


class TestUsageErrors:
    def test_k_zero_is_usage_error(self, pipeline_files):
        tmp_path, frames, feats = pipeline_files
        code = main(
            ["summarize", "--frames", str(frames), "--features", str(feats), "--k", "0",
             "--out", str(tmp_path / "s.json")]
        )
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["summarize", "--features", "feat.bin", "--h0", "nan", "--out", "s.json"],
        ["baseline", "--method", "uniform", "--k", "0", "--out", "s.json"],
        ["replay", "--addr", "127.0.0.1:1", "--k", "0"],
        ["replay", "--addr", "127.0.0.1:1", "--h0", "0"],
    ])
    def test_bad_k_or_h0_is_usage_error_before_any_input_is_used(self, tmp_path, capsys, argv):
        # The frames file does not exist and nothing listens at the address, so reading
        # either first would exit 2: exit 1 shows the check comes before both.
        assert main([argv[0], "--frames", str(tmp_path / "missing.jsonl"), *argv[1:]]) == 1
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, msg", [
        (["serve", "--addr", "8765"], "--addr must look like HOST:PORT, got '8765'"),
        (["serve", "--addr", ":8765"], "--addr must look like HOST:PORT, got ':8765'"),
        (["replay", "--addr", "127.0.0.1:port", "--frames", "frames.jsonl"], "bad port in '127.0.0.1:port'"),
        (["--config", "missing.json", "simulate", "--frames", "frames.jsonl", "--out", "t.jsonl"],
         "cannot read config file: "),
    ], ids=["no-port", "no-host", "bad-port", "missing-config"])
    def test_bad_addr_or_missing_config_is_usage_error(self, tmp_path, monkeypatch, capsys, argv, msg):
        monkeypatch.chdir(tmp_path)  # no file argv names exists here
        assert main(argv) == 1
        assert f"error: {msg}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "port",
        ["70000", "65536", "-1", "+80", "8_0", "\u0668\u0660", "1" * 5000],
        ids=["70000", "65536", "negative", "sign", "underscore", "arabic-indic digits", "5000 digits"],
    )
    def test_port_not_spelled_0_to_65535_is_usage_error_before_any_socket(self, pipeline_files, capsys, port):
        _, frames, _ = pipeline_files
        addr = f"127.0.0.1:{port}"
        with mock.patch("socket.create_connection", side_effect=AssertionError("connected")), \
                mock.patch("robosum.service.serve", side_effect=AssertionError("served")):
            assert main(["serve", "--addr", addr]) == 1
            assert main(["replay", "--addr", addr, "--frames", str(frames)]) == 1
        assert capsys.readouterr().err.count(f"error: bad port in '{addr}': must be 0-65535") == 2

    def test_missing_required_flag(self):
        assert main(["summarize"]) == 1

    def test_unknown_subcommand(self):
        assert main(["dance"]) == 1

    def test_unknown_config_key(self, tmp_path, pipeline_files):
        _, frames, feats = pipeline_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": {"blur_thresold": 5}}))
        code = main(
            ["--config", str(cfg), "summarize", "--frames", str(frames),
             "--features", str(feats), "--out", str(tmp_path / "s.json")]
        )
        assert code == 1

    def test_unknown_config_section(self, tmp_path, pipeline_files):
        _, frames, feats = pipeline_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filtering": {}}))
        code = main(
            ["--config", str(cfg), "summarize", "--frames", str(frames),
             "--features", str(feats), "--out", str(tmp_path / "s.json")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "obj, msg",
        [
            ([{"filter": {}}], "config file must be a JSON object, got list"),
            ({"filter": [["blur_threshold", 5]]}, "config section 'filter' must be a JSON object, got list"),
            # A range fault names the section as well as the field.
            ({"controller": {"max_pitch_deg": -1}}, "config section 'controller': all controller parameters must be"),
        ],
    )
    def test_config_fault_names_the_file_part(self, tmp_path, pipeline_files, capsys, obj, msg):
        _, frames, _ = pipeline_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        code = main(["--config", str(cfg), "simulate", "--frames", str(frames), "--out", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert msg in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["filter", "controller"])
    def test_visibility_floor_is_not_a_config_key(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {"min_point_confidence": 0.3}}))
        code = main(["--config", str(cfg), "simulate", "--frames", "frames.jsonl", "--out", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert f"config section '{section}': unknown keys ['min_point_confidence']" in capsys.readouterr().err

    def test_non_finite_config_value_is_usage_error(self, tmp_path, pipeline_files, capsys):
        # json.load reads the NaN and Infinity literals, so a config file can carry them.
        _, frames, _ = pipeline_files
        cases = (
            ('{"filter": {"blur_threshold": NaN}}', "blur_threshold must be a finite non-negative number, got nan"),
            ('{"controller": {"fov_h_deg": Infinity}}', "fov_h_deg must be a finite number, got inf"),
            # An int in a float field is an integer field's value, within 2**53 - 1 of 0.
            ('{"summarizer": {"h0": 1' + "0" * 400 + '}}', "h0 must lie in [-(2**53 - 1), 2**53 - 1]"),
        )
        for text, msg in cases:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            code = main(["--config", str(cfg), "simulate", "--frames", str(frames), "--out", str(tmp_path / "t.jsonl")])
            assert code == 1
            assert msg in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, command", [
        ("summarizer", "k", ["summarize", "--features", "{d}/feat.bin", "--out", "{d}/s.json"]),
        ("filter", "blur_threshold", ["filter", "--out", "{d}/kept.jsonl", "--report", "{d}/report.json"]),
    ], ids=["k", "blur_threshold"])
    def test_config_integer_past_the_i_json_range_is_usage_error(self, tmp_path, pipeline_files, capsys, section, key, command):
        _, frames, _ = pipeline_files
        cfg = tmp_path / "cfg.json"
        argv = ["--config", str(cfg), command[0], "--frames", str(frames), *(a.format(d=tmp_path) for a in command[1:])]
        cfg.write_text(json.dumps({section: {key: 2**53 - 1}}))
        assert main(argv) == 0
        for value in (2**53, -(2**53), 2**70):
            capsys.readouterr()
            cfg.write_text(json.dumps({section: {key: value}}))
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: config section '{section}': {key} must lie in [-(2**53 - 1), 2**53 - 1]\n"

    @pytest.mark.parametrize("text, fault", [
        (b'{"filter": {"blur_threshold": ' + b"1" * 5001 + b"}}", "value has 5001 digits"),
        (b'\xff{"filter": {}}', "not UTF-8 (byte 0xff)"),
    ], ids=["int-too-long", "not-utf-8"])
    @pytest.mark.parametrize("reader, argv, prefix", [
        ("config", ["simulate", "--frames", "frames.jsonl"], "config file is not valid JSON: "),
        ("spec", ["gen"], "scenario spec is not valid JSON: "),
    ], ids=["config", "spec"])
    def test_undecodable_settings_file_is_worded_for_users(self, tmp_path, capsys, text, fault, reader, argv, prefix):
        # Python's own text would end in "; use sys.set_int_max_str_digits() ..." or name the codec and a position.
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        flag = ["--config", str(path), *argv] if reader == "config" else [*argv, "--spec", str(path)]
        assert main([*flag, "--out", str(tmp_path / "out.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}") and err.endswith(f"{fault}\n")
        assert "set_int_max_str_digits" not in err and "codec" not in err

    def test_config_value_of_the_wrong_number_type_is_usage_error(self, tmp_path, pipeline_files, capsys):
        # A JSON boolean is not a number, and an int field takes only JSON integers.
        _, frames, _ = pipeline_files
        cases = (
            (
                {"controller": {"max_pitch_deg": True, "face_raise_pitch_deg": True}},
                "face_raise_pitch_deg must be a number, got True",
            ),
            ({"summarizer": {"k": 2.5}}, "k must be an integer, got 2.5"),
            ({"filter": {"blur_threshold": False}}, "blur_threshold must be a number, got False"),
        )
        for obj, msg in cases:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(obj))
            code = main(["--config", str(cfg), "simulate", "--frames", str(frames), "--out", str(tmp_path / "t.jsonl")])
            assert code == 1
            assert msg in capsys.readouterr().err

    def test_help_everywhere(self, capsys):
        assert main(["--help"]) == 0
        for sub, flags in (
            ("gen", ("--spec", "--out", "--features", "--images")),
            ("filter", ("--frames", "--images", "--out", "--report")),
            ("summarize", ("--frames", "--features", "--k", "--h0", "--out")),
            ("baseline", ("--method", "--frames", "--features", "--k", "--out")),
            ("simulate", ("--frames", "--out")),
            ("serve", ("--addr",)),
            ("replay", ("--addr", "--frames", "--rate", "--features", "--out", "--k", "--h0")),
        ):
            assert main([sub, "--help"]) == 0
            out = capsys.readouterr().out
            for flag in flags:
                assert flag in out, f"{sub} --help does not document {flag}"


class TestDataErrors:
    def test_bad_feature_file_is_exit_2(self, pipeline_files, capsys):
        tmp_path, frames, _ = pipeline_files
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(["summarize", "--frames", str(frames), "--features", str(bad),
                     "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_frame_without_features_is_exit_2(self, tmp_path):
        spec_path = write_spec(tmp_path, small_spec())
        frames = tmp_path / "frames.jsonl"
        feats = tmp_path / "feat.bin"
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames)]) == 0
        frameio.save_features(__import__("numpy").zeros((0, 157), dtype="float32"), feats)
        code = main(["summarize", "--frames", str(frames), "--features", str(feats),
                     "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_malformed_pgm_header_is_exit_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, small_spec())
        frames = tmp_path / "frames.jsonl"
        images = tmp_path / "imgs"
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames), "--images", str(images)]) == 0
        (images / "0.pgm").write_bytes(b"P5\nab 3\n255\n" + b"\x00" * 9)
        code = main(["filter", "--frames", str(frames), "--images", str(images),
                     "--out", str(tmp_path / "wp.jsonl"), "--report", str(tmp_path / "report.json")])
        assert code == 2
        assert "PGM header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rng_seed", 1.5),
            ("rng_seed", -1),
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("fps", float("nan")),
            ("fps", True),
            ("frame_width", 640.5),
            ("activity_segments", 5),
            ("activity_segments", ["ab"]),
            ("activity_id", 12.5),
            ("feature_noise_sigma", float("nan")),
            ("start_s", "0"),
            # A dict value replaces top-level keys of the spec; ``field`` is then the text its error must hold.
            ("duration_s * fps", {"duration_s": 1e200, "fps": 1e200}),
            ("activity_segments[0]: activity_id", {"activity_segments": [{"start_s": 0, "end_s": 1, "activity_id": -1}]}),
            ("person_trajectory[1]: waypoint", {"person_trajectory": [{"t": 0, "x": 1, "y": 1, "torso_px": 90},
                                                                      {"t": 9, "x": 1, "y": 1, "torso_px": 0}]}),
            ("person_trajectory[1]: torso_px", {"person_trajectory": [{"t": 0, "x": 1, "y": 1, "torso_px": 90},
                                                                      {"t": 9, "x": 1, "y": 1, "torso_px": True}]}),
            ("ill_posed_injections[1]: unknown ill-posed reason 'Sideways'",
             {"ill_posed_injections": [{"start_s": 1, "end_s": 2, "reason": "Blurred"},
                                       {"start_s": 3, "end_s": 4, "reason": "Sideways"}]}),
            # The trajectory walks the person into a corner, so the label oracle cannot make a frame well-posed.
            ("cannot realize label", {"duration_s": 10.0,
                                      "activity_segments": [{"start_s": 0.0, "end_s": 10.0, "activity_id": 0}],
                                      "person_trajectory": [{"t": 0.0, "x": 10.0, "y": 170.0, "torso_px": 150.0}]}),
        ],
    )
    def test_bad_spec_value_is_exit_2_naming_the_field(self, tmp_path, capsys, field, value):
        # json.dumps writes NaN and Infinity literals, which json.load reads back.
        obj = {"duration_s": 30.0, "fps": 1.0,
               "activity_segments": [{"start_s": 0.0, "end_s": 20.0, "activity_id": 12}]}
        if isinstance(value, dict):
            obj.update(value)
        else:
            target = obj["activity_segments"][0] if field in ("start_s", "activity_id", "feature_noise_sigma") else obj
            target[field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        frames = tmp_path / "frames.jsonl"
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["frame_width", "rng_seed"])
    def test_spec_integer_past_the_i_json_range_is_exit_2(self, tmp_path, capsys, key):
        spec_path, frames = tmp_path / "spec.json", tmp_path / "frames.jsonl"
        spec_path.write_text(json.dumps({"duration_s": 2.0, "fps": 1.0, key: 2**53 - 1}))
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames)]) == 0
        with open(frames, encoding="utf-8") as fh:
            assert len(frameio.parse_frames_jsonl(fh).frames) == 2
        for value in (2**53, -(2**53), 2**70):
            capsys.readouterr()
            spec_path.write_text(json.dumps({"duration_s": 2.0, "fps": 1.0, key: value}))
            assert main(["gen", "--spec", str(spec_path), "--out", str(frames)]) == 2
            assert capsys.readouterr().err == f"error: {key} must lie in [-(2**53 - 1), 2**53 - 1]\n"

    @pytest.mark.parametrize("duration_s, fps", [(1e20, 1.0), (1e308, 10.0)])
    def test_spec_past_the_frame_cap_is_exit_2_before_any_frame_is_made(self, tmp_path, capsys, duration_s, fps):
        # 1e308 * 10 overflows to inf.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"duration_s": duration_s, "fps": fps}))
        with mock.patch.object(scenario, "generate_session", side_effect=AssertionError("frames were made")):
            assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "frames.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "duration_s * fps" in err and "Traceback" not in err
        assert ScenarioSpec(duration_s=scenario.MAX_FRAMES / 2, fps=2.0).frame_count == scenario.MAX_FRAMES

    @pytest.mark.parametrize("text", UNDECODABLE_JSON.values(), ids=UNDECODABLE_JSON.keys())
    @pytest.mark.parametrize(
        "reader, code, msg",
        [("frames", 2, "invalid JSON: "), ("config", 1, "config file is not valid JSON: "),
         ("spec", 1, "scenario spec is not valid JSON: ")],
        ids=["frames", "config", "spec"],
    )
    def test_undecodable_json_is_a_typed_error(self, tmp_path, capsys, text, reader, code, msg):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text + b"\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = str(tmp_path / "out.jsonl")
        argv = {
            "frames": ["simulate", "--frames", str(bad), "--out", out],
            "config": ["--config", str(bad), "simulate", "--frames", str(empty), "--out", out],
            "spec": ["gen", "--spec", str(bad), "--out", out],
        }[reader]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and msg in err and "Traceback" not in err

    def test_negative_seed_is_exit_2(self, pipeline_files, capsys):
        tmp_path, frames, feats = pipeline_files
        spec_path = write_spec(tmp_path, small_spec())
        assert main(["--seed", "-1", "gen", "--spec", str(spec_path), "--out", str(tmp_path / "again.jsonl")]) == 2
        assert main(["--seed", "-1", "baseline", "--method", "kmeans", "--frames", str(frames),
                     "--features", str(feats), "--k", "3", "--out", str(tmp_path / "kmeans.json")]) == 2
        err = capsys.readouterr().err
        assert "error: rng_seed must be non-negative" in err
        assert "error: seed must be non-negative, got -1" in err and "Traceback" not in err

    def test_missing_image_is_exit_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, small_spec())
        frames = tmp_path / "frames.jsonl"
        images = tmp_path / "imgs"
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames), "--images", str(images)]) == 0
        (images / "3.pgm").unlink()
        code = main(["filter", "--frames", str(frames), "--images", str(images),
                     "--out", str(tmp_path / "wp.jsonl"), "--report", str(tmp_path / "report.json")])
        assert code == 2
        assert "error: frame 3: blur variance absent and no image supplied" in capsys.readouterr().err

    def test_frames_files_split_lines_on_lf_only(self, pipeline_files, capsys):
        # The wire splits its stream on LF alone, so a file does too: three frames joined by a lone CR are one
        # line that is not JSON. A CRLF file is an LF file whose lines end in JSON whitespace.
        tmp_path, frames, feats = pipeline_files
        lines = frames.read_bytes().splitlines()
        cr_joined, crlf = tmp_path / "cr.jsonl", tmp_path / "crlf.jsonl"
        cr_joined.write_bytes(b"\r".join(lines[:3]) + b"\r")
        crlf.write_bytes(b"".join(line + b"\r\n" for line in lines))

        def runs(path, tag):
            out = tmp_path / tag
            out.mkdir(exist_ok=True)
            return {
                "simulate": ["simulate", "--frames", str(path), "--out", str(out / "trace.jsonl")],
                "filter": ["filter", "--frames", str(path), "--out", str(out / "kept.jsonl"),
                           "--report", str(out / "report.json")],
                "summarize": ["summarize", "--frames", str(path), "--features", str(feats), "--k", "3",
                              "--out", str(out / "summary.json")],
                "uniform": ["baseline", "--method", "uniform", "--frames", str(path), "--k", "3",
                            "--out", str(out / "uniform.json")],
                "kmeans": ["baseline", "--method", "kmeans", "--frames", str(path), "--features", str(feats),
                           "--k", "3", "--out", str(out / "kmeans.json")],
                "replay": ["replay", "--addr", "127.0.0.1:1", "--frames", str(path)],
            }

        for name, argv in runs(cr_joined, "cr").items():
            assert main(argv) == 2, name
            err = capsys.readouterr().err
            assert err.startswith("error: line 1: invalid JSON: Extra data") and "Traceback" not in err, name
        for tag, path in (("lf", frames), ("crlf", crlf)):
            for name, argv in runs(path, tag).items():
                if name != "replay":
                    assert main(argv) == 0, (tag, name)
        written = sorted(p.name for p in (tmp_path / "lf").iterdir())
        assert len(written) == 6
        for name in written:
            assert (tmp_path / "crlf" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes(), name

    def test_missing_input_file_is_exit_2(self, tmp_path):
        code = main(["summarize", "--frames", str(tmp_path / "nope.jsonl"),
                     "--features", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "s.json")])
        assert code == 2


class TestPipeline:
    def run_pipeline(self, tmp_path, spec, k="8"):
        spec_path = write_spec(tmp_path, spec)
        frames = tmp_path / "frames.jsonl"
        feats = tmp_path / "feat.bin"
        wellposed = tmp_path / "wellposed.jsonl"
        report = tmp_path / "report.json"
        summary = tmp_path / "summary.json"
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames), "--features", str(feats)]) == 0
        assert main(["filter", "--frames", str(frames), "--out", str(wellposed), "--report", str(report)]) == 0
        assert main(["summarize", "--frames", str(wellposed), "--features", str(feats),
                     "--k", k, "--h0", "60", "--out", str(summary)]) == 0
        return frames, feats, wellposed, report, summary

    def test_full_pipeline_eight_segments(self, tmp_path):
        spec = eight_segment_spec()
        frames, feats, wellposed, report, summary = self.run_pipeline(tmp_path, spec)
        manifest = frameio.read_summary_manifest(summary)
        assert len(manifest.entries) == 8
        assert manifest.cluster_count == 8
        # Every keyframe's timestamp must land inside a distinct segment.
        segments = spec.activity_segments
        seg_of = []
        for e in manifest.entries:
            hits = [i for i, s in enumerate(segments) if s.start_s <= e.timestamp < s.end_s]
            assert len(hits) == 1
            seg_of.append(hits[0])
        assert sorted(seg_of) == list(range(8))
        report_obj = json.loads(report.read_text())
        assert report_obj["accepted"] + sum(report_obj["rejected_by_reason"].values()) == report_obj["total"]

    def test_filter_report_matches_injections(self, tmp_path):
        frames, feats, wellposed, report, summary = self.run_pipeline(tmp_path, small_spec(), k="4")
        report_obj = json.loads(report.read_text())
        assert report_obj["rejected_by_reason"]["Blurred"] == 10
        assert report_obj["total"] == 120

    def test_reruns_are_byte_identical(self, tmp_path):
        spec_path = write_spec(tmp_path, small_spec())
        outputs = []
        for tag in ("a", "b"):
            frames = tmp_path / f"frames_{tag}.jsonl"
            feats = tmp_path / f"feat_{tag}.bin"
            summary = tmp_path / f"summary_{tag}.json"
            assert main(["gen", "--spec", str(spec_path), "--out", str(frames), "--features", str(feats)]) == 0
            assert main(["summarize", "--frames", str(frames), "--features", str(feats),
                         "--k", "4", "--out", str(summary)]) == 0
            outputs.append((frames.read_bytes(), feats.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_gen_filter_via_images(self, tmp_path):
        spec_path = write_spec(tmp_path, small_spec())
        frames = tmp_path / "frames.jsonl"
        images = tmp_path / "imgs"
        wellposed = tmp_path / "wp.jsonl"
        report = tmp_path / "report.json"
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames), "--images", str(images)]) == 0
        first_line = json.loads(frames.read_text().splitlines()[0])
        assert first_line["blur_var"] is None
        assert (images / "0.pgm").exists()
        assert main(["filter", "--frames", str(frames), "--images", str(images),
                     "--out", str(wellposed), "--report", str(report)]) == 0
        report_obj = json.loads(report.read_text())
        assert report_obj["rejected_by_reason"]["Blurred"] == 10
        assert report_obj["accepted"] == 110

    def test_config_override_changes_behavior(self, tmp_path):
        spec_path = write_spec(tmp_path, small_spec())
        frames = tmp_path / "frames.jsonl"
        report = tmp_path / "report.json"
        wellposed = tmp_path / "wp.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": {"blur_threshold": 10000.0}}))
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames)]) == 0
        assert main(["--config", str(cfg), "filter", "--frames", str(frames),
                     "--out", str(wellposed), "--report", str(report)]) == 0
        report_obj = json.loads(report.read_text())
        assert report_obj["accepted"] == 0
        assert report_obj["rejected_by_reason"]["Blurred"] == 120


class TestVerbose:
    def test_filter_prints_the_kept_count(self, pipeline_files, capsys):
        tmp_path, frames, _ = pipeline_files
        assert main(["--verbose", "filter", "--frames", str(frames), "--out", str(tmp_path / "wp.jsonl"),
                     "--report", str(tmp_path / "report.json")]) == 0
        assert "kept 110/120 frames" in capsys.readouterr().err.splitlines()

    def test_summarize_prints_one_histogram_line_per_cluster(self, tmp_path, capsys):
        spec = ScenarioSpec(
            duration_s=120.0,
            fps=1.0,
            activity_segments=(ActivitySegment(0.0, 30.0, activity_id=3), ActivitySegment(90.0, 120.0, activity_id=40)),
            rng_seed=5,
        )
        spec_path = write_spec(tmp_path, spec)
        frames, feats, kept, summary = (tmp_path / name for name in ("frames.jsonl", "feat.bin", "kept.jsonl", "s.json"))
        assert main(["gen", "--spec", str(spec_path), "--out", str(frames), "--features", str(feats)]) == 0
        assert main(["filter", "--frames", str(frames), "--out", str(kept), "--report", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert main(["--verbose", "summarize", "--frames", str(kept), "--features", str(feats),
                     "--k", "2", "--out", str(summary)]) == 0
        bars = [line.split() for line in capsys.readouterr().err.splitlines() if line.startswith("cluster")]
        assert json.loads(summary.read_text())["m"] == 2
        assert [(bar[1], bar[-2]) for bar in bars] == [("1", "30"), ("2", "30")]

    def test_summarize_prints_a_bar_per_kept_cluster_and_the_cluster_count(self, tmp_path, capsys):
        # No gaps: at h* every frame is its own cluster, and only the k kept get a bar.
        spec = ScenarioSpec(duration_s=120.0, fps=1.0, activity_segments=(ActivitySegment(0.0, 120.0, activity_id=3),))
        frames, feats, summary = tmp_path / "frames.jsonl", tmp_path / "feat.bin", tmp_path / "s.json"
        assert main(["gen", "--spec", str(write_spec(tmp_path, spec)), "--out", str(frames), "--features", str(feats)]) == 0
        capsys.readouterr()
        assert main(["--verbose", "summarize", "--frames", str(frames), "--features", str(feats), "--out", str(summary)]) == 0
        err = capsys.readouterr().err.splitlines()
        k = AppConfig().summarizer.k
        assert len([line for line in err if line.startswith("cluster")]) == k
        assert f"120 clusters at h* = 0.9375 s, {k} kept" in err

    def test_summarize_warns_of_a_session_shorter_than_k(self, pipeline_files, capsys):
        tmp_path, frames, feats = pipeline_files
        short = tmp_path / "short.jsonl"
        short.write_text("".join(frames.read_text().splitlines(keepends=True)[:3]))
        summary = tmp_path / "s.json"
        assert main(["summarize", "--frames", str(short), "--features", str(feats), "--k", "8", "--out", str(summary)]) == 0
        assert "warning: session has fewer frames (3) than requested keyframes (8)" in capsys.readouterr().err
        assert len(json.loads(summary.read_text())["entries"]) == 3

    def test_replay_prints_the_action_count_at_a_numeric_rate(self, pipeline_files, capsys):
        _, frames, _ = pipeline_files
        server, thread = run_server_in_thread(ServiceConfig())
        host, port = server.bound_address
        try:
            with mock.patch("robosum.service.time") as clock:
                assert main(["--verbose", "replay", "--addr", f"{host}:{port}", "--frames", str(frames),
                             "--rate", "4"]) == 0
        finally:
            server.shutdown()
            server.server_close()
        # Frames 1 s apart at 4x real time: a quarter second between sends.
        assert clock.sleep.call_args_list == [mock.call(0.25)] * 119
        assert "received 120 action replies" in capsys.readouterr().err.splitlines()


class TestBaselines:
    def test_uniform_baseline(self, pipeline_files):
        tmp_path, frames, feats = pipeline_files
        out = tmp_path / "uniform.json"
        assert main(["baseline", "--method", "uniform", "--frames", str(frames),
                     "--k", "5", "--out", str(out)]) == 0
        manifest = frameio.read_summary_manifest(out)
        assert len(manifest.entries) == 5

    def test_kmeans_baseline_requires_features(self, pipeline_files):
        tmp_path, frames, feats = pipeline_files
        out = tmp_path / "kmeans.json"
        assert main(["baseline", "--method", "kmeans", "--frames", str(frames),
                     "--k", "3", "--out", str(out)]) == 1
        assert main(["--seed", "4", "baseline", "--method", "kmeans", "--frames", str(frames),
                     "--features", str(feats), "--k", "3", "--out", str(out)]) == 0
        manifest = frameio.read_summary_manifest(out)
        assert len(manifest.entries) == 3


class TestSimulateAndReplay:
    def test_simulate_deterministic(self, pipeline_files):
        tmp_path, frames, _ = pipeline_files
        t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
        assert main(["simulate", "--frames", str(frames), "--out", str(t1)]) == 0
        assert main(["simulate", "--frames", str(frames), "--out", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()
        assert len(t1.read_text().splitlines()) == 120

    def test_replay_cli_matches_simulate(self, pipeline_files):
        tmp_path, frames, feats = pipeline_files
        server, thread = run_server_in_thread(ServiceConfig())
        host, port = server.bound_address
        try:
            offline = tmp_path / "offline.jsonl"
            online = tmp_path / "online.jsonl"
            assert main(["simulate", "--frames", str(frames), "--out", str(offline)]) == 0
            code = main(["replay", "--addr", f"{host}:{port}", "--frames", str(frames),
                         "--features", str(feats), "--rate", "max", "--out", str(online),
                         "--k", "4", "--h0", "60"])
            assert code == 0
            online_lines = online.read_text().splitlines()
            assert online_lines[:-1] == offline.read_text().splitlines()
            assert json.loads(online_lines[-1])["type"] == "summary"
        finally:
            server.shutdown()
            server.server_close()

    def test_replay_error_reply_is_exit_2_after_the_actions_before_it(self, pipeline_files, capsys):
        # A featured frame without a blur score cannot be classified, so the server answers it with a data_error.
        tmp_path, frames, feats = pipeline_files
        lines = frames.read_text().splitlines(keepends=True)
        frame = json.loads(lines[60])
        assert frame["feat_row"] is not None and frame["blur_var"] is not None
        lines[60] = json.dumps({**frame, "blur_var": None}) + "\n"
        scoreless = tmp_path / "scoreless.jsonl"
        scoreless.write_text("".join(lines))
        trace, replies = tmp_path / "trace.jsonl", tmp_path / "replies.jsonl"
        assert main(["simulate", "--frames", str(scoreless), "--out", str(trace)]) == 0
        server, thread = run_server_in_thread(ServiceConfig())
        host, port = server.bound_address
        try:
            code = main(["replay", "--addr", f"{host}:{port}", "--frames", str(scoreless),
                         "--features", str(feats), "--out", str(replies)])
        finally:
            server.shutdown()
            server.server_close()
        error = '{"type":"error","code":"data_error","msg":"frame 60: blur variance absent and no image supplied"}'
        assert code == 2
        assert f"error: server replied: {error}\n" in capsys.readouterr().err
        assert replies.read_text().splitlines() == trace.read_text().splitlines()[:60] + [error]

    def test_replay_sends_the_configured_k_and_h0(self, pipeline_files):
        tmp_path, frames, _ = pipeline_files
        addr, received, thread = one_shot_server(
            lambda msg: '{"type":"action"}' if msg["type"] == "frame" else '{"type":"summary"}'
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"summarizer": {"k": 4, "h0": 30.0}}))
        assert main(["--config", str(cfg), "replay", "--addr", addr, "--frames", str(frames)]) == 0
        thread.join(5)
        assert not thread.is_alive()
        assert received[-1] == {"type": "end_session", "k": 4, "h0": 30.0}
        assert len(received) == 121

    @pytest.mark.parametrize(
        "reply", ["not json", "[1, 2]", *(pytest.param(text, id=name) for name, text in UNDECODABLE_JSON.items())]
    )
    def test_replay_reply_that_is_not_an_object_is_exit_2(self, pipeline_files, capsys, reply):
        _, frames, _ = pipeline_files
        addr, received, thread = one_shot_server(lambda msg: reply)
        assert main(["replay", "--addr", addr, "--frames", str(frames)]) == 2
        thread.join(5)
        assert not thread.is_alive()
        err = capsys.readouterr().err
        shown = reply if isinstance(reply, str) else reply.decode("utf-8", "replace")
        assert f"server reply is not a JSON object: {shown!r}" in err and "Traceback" not in err
        assert len(received) == 1

    def test_replay_bad_rate_is_usage_error(self, pipeline_files):
        _, frames, _ = pipeline_files
        assert main(["replay", "--addr", "127.0.0.1:1", "--frames", str(frames), "--rate", "-3"]) == 1

    def test_replay_feat_row_past_the_matrix_is_exit_2_before_connecting(self, pipeline_files, capsys):
        tmp_path, frames, _ = pipeline_files
        short = tmp_path / "short.bin"
        frameio.save_features(np.zeros((3, FEATURE_DIM), dtype=np.float32), short)
        server, thread = run_server_in_thread(ServiceConfig())
        connections = []
        server.verify_request = lambda request, address: connections.append(address) or True
        host, port = server.bound_address
        try:
            code = main(["replay", "--addr", f"{host}:{port}", "--frames", str(frames),
                         "--features", str(short), "--rate", "max"])
            assert code == 2
            assert "feat_row 3 beyond matrix of 3 rows" in capsys.readouterr().err
            assert connections == []
        finally:
            server.shutdown()
            server.server_close()


# --- one session through every subcommand, the server in its own process ------------

# Two activities, one injection of each ill-posed reason, and a 40 s gap with nobody in view: the controller follows,
# searches for 24 turns, then falls idle until the second activity.
GAP_SPEC = ScenarioSpec(
    duration_s=160.0,
    fps=1.0,
    activity_segments=(ActivitySegment(0.0, 60.0, activity_id=12), ActivitySegment(100.0, 160.0, activity_id=40)),
    ill_posed_injections=tuple(Injection(5.0 + 7 * i, 8.0 + 7 * i, reason) for i, reason in enumerate(IllPosedReason)),
)


@pytest.fixture(scope="module")
def gap_session(tmp_path_factory):
    """The directory holding GAP_SPEC's frames.jsonl and feat.bin, its filter's kept.jsonl and report.json, and
    its simulate trace.jsonl."""
    d = tmp_path_factory.mktemp("gap")
    assert main(["gen", "--spec", str(write_spec(d, GAP_SPEC)), "--out", str(d / "frames.jsonl"),
                 "--features", str(d / "feat.bin")]) == 0
    assert main(["filter", "--frames", str(d / "frames.jsonl"), "--out", str(d / "kept.jsonl"),
                 "--report", str(d / "report.json")]) == 0
    assert main(["simulate", "--frames", str(d / "frames.jsonl"), "--out", str(d / "trace.jsonl")]) == 0
    return d


class TestGapSession:
    def test_gen_writes_one_line_per_frame(self, gap_session):
        assert len((gap_session / "frames.jsonl").read_bytes().splitlines()) == 160

    def test_filter_keeps_input_lines_one_per_accepted_frame(self, gap_session):
        kept = (gap_session / "kept.jsonl").read_bytes().splitlines()
        assert set(kept) <= set((gap_session / "frames.jsonl").read_bytes().splitlines())
        assert len(kept) == json.loads((gap_session / "report.json").read_text())["accepted"] == 102

    def test_simulate_follows_searches_and_falls_idle(self, gap_session):
        lines = (gap_session / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 160
        modes = {mode: [line for line in lines if f'"mode":"{mode}"' in line]
                 for mode in ("following", "searching", "idle")}
        assert all(modes.values())
        assert len(modes["searching"]) == 27 and len(modes["idle"]) == 16
        # The head rises once, on the 13th turn of the gap's search: the turn after one revolution.
        raised = [line for line in modes["searching"] if '"pitch_deg":15.0' in line]
        assert [json.loads(line)["frame_id"] for line in raised] == [72]

    def test_integer_timestamps_give_the_same_trace_report_and_kept_lines(self, gap_session, tmp_path):
        # The parser's column checks take integers, and records hold floats.
        frames = gap_session / "frames.jsonl"
        int_frames = tmp_path / "int-frames.jsonl"
        int_frames.write_text(re.sub(r'"t": ([0-9]+)\.0,', r'"t": \1,', frames.read_text()))
        assert int_frames.read_bytes() != frames.read_bytes()
        assert main(["simulate", "--frames", str(int_frames), "--out", str(tmp_path / "trace.jsonl")]) == 0
        assert main(["filter", "--frames", str(int_frames), "--out", str(tmp_path / "kept.jsonl"),
                     "--report", str(tmp_path / "report.json")]) == 0
        for name in ("trace.jsonl", "report.json", "kept.jsonl"):
            assert (tmp_path / name).read_bytes() == (gap_session / name).read_bytes(), name

    def test_replay_of_a_session_without_blur_scores_ends_in_the_servers_data_error(self, tmp_path, capsys):
        # With --images no frame has a blur score, so the server cannot classify the first featured frame.
        frames, feats = tmp_path / "imaged.jsonl", tmp_path / "imaged.bin"
        assert main(["gen", "--spec", str(write_spec(tmp_path, GAP_SPEC)), "--out", str(frames),
                     "--features", str(feats), "--images", str(tmp_path / "imgs")]) == 0
        server, thread = run_server_in_thread(ServiceConfig())
        host, port = server.bound_address
        try:
            code = main(["replay", "--addr", f"{host}:{port}", "--frames", str(frames), "--features", str(feats)])
        finally:
            server.shutdown()
            server.server_close()
        assert code == 2
        prefix = 'error: server replied: {"type":"error","code":"data_error",'
        assert any(line.startswith(prefix) for line in capsys.readouterr().err.splitlines())

    def test_serve_answers_a_replay_as_simulate_does_and_exits_0_on_sigint(self, gap_session, tmp_path):
        # Run from the directory that holds the imported package, so that ``-m`` finds this copy of it.
        argv = [sys.executable, "-m", "robosum.cli", "--verbose", "serve", "--addr", "127.0.0.1:0"]
        server = subprocess.Popen(argv, cwd=Path(robosum.__file__).parents[1], stderr=subprocess.PIPE, text=True)
        killed_by = []  # which of the teardown's two kill paths ran, so that a -9 says which

        def watchdog_kill():
            killed_by.append("the 60 s watchdog")
            server.kill()

        # Reading stderr blocks; a server that never logs its address is killed rather than waited on forever.
        watchdog = threading.Timer(60, watchdog_kill)
        watchdog.start()
        log = []
        try:
            for line in server.stderr:
                log.append(line)
                if "serving on " in line:
                    break
            assert log and "serving on " in log[-1], "".join(log)
            addr = log[-1].rpartition("serving on ")[2].strip()
            replies = tmp_path / "replies.jsonl"
            assert main(["replay", "--addr", addr, "--frames", str(gap_session / "frames.jsonl"),
                         "--features", str(gap_session / "feat.bin"), "--out", str(replies)]) == 0
        finally:
            watchdog.cancel()
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                killed_by.append("kill() after 10 s without exiting on SIGINT")
                server.kill()
                server.wait()
            log.extend(server.stderr)
            server.stderr.close()
        assert server.returncode == 0, (
            f"returncode {server.returncode}, killed by {' and '.join(killed_by) or 'neither kill path'}; "
            f"server stderr:\n{''.join(log)}"
        )
        assert any("interrupt received" in line for line in log)
        lines = replies.read_text().splitlines()
        assert lines[:-1] == (gap_session / "trace.jsonl").read_text().splitlines()
        assert lines[-1].startswith('{"type":"summary",')


# --- no input escapes main -----------------------------------------------------------

FUZZ_SPEC = ScenarioSpec(
    duration_s=12.0,
    fps=1.0,
    activity_segments=(ActivitySegment(0.0, 12.0, activity_id=3),),
    ill_posed_injections=(Injection(2.0, 4.0, IllPosedReason.BLURRED),),
    person_trajectory=(Waypoint(0.0, 320.0, 170.0, 150.0), Waypoint(12.0, 340.0, 170.0, 150.0)),
    rng_seed=5,
)
FUZZ_CONFIG = {f.name: dataclasses.asdict(getattr(AppConfig(), f.name)) for f in dataclasses.fields(AppConfig)}
FUZZ_PGM_HEADER = b"P5\n32 32\n255\n"


def fuzz_files() -> dict[str, bytes]:
    """The files of a small session by name: frames with features, the same frames with images instead of blur scores."""
    frames, truth = scenario.generate_session(FUZZ_SPEC)
    blurred = {t.frame_id for t in truth if t.reason is IllPosedReason.BLURRED}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with open(root / "frames.jsonl", "w", encoding="utf-8") as fh:
            frameio.save_features(frameio.write_frames_jsonl(frames, fh), root / "feat.bin")
        with open(root / "imaged.jsonl", "w", encoding="utf-8") as fh:
            frameio.write_frames_jsonl([dataclasses.replace(r, blur_variance=None, features=None) for r in frames], fh)
        for rec in frames:
            frameio.save_pgm(scenario.frame_image(rec.frame_id, rec.frame_id in blurred), root / f"{rec.frame_id}.pgm")
        return {p.name: p.read_bytes() for p in root.iterdir()}


FUZZ_FILES = fuzz_files()
# "{d}" is the run's directory, which holds the images too.
FUZZ_COMMANDS = {
    "gen": ["gen", "--spec", "{d}/spec.json", "--out", "{d}/out.jsonl", "--features", "{d}/out.bin"],
    "gen-images": ["gen", "--spec", "{d}/spec.json", "--out", "{d}/out.jsonl", "--images", "{d}/out"],
    "filter": ["filter", "--frames", "{d}/frames.jsonl", "--out", "{d}/out.jsonl", "--report", "{d}/report.json"],
    "filter-images": ["filter", "--frames", "{d}/imaged.jsonl", "--images", "{d}", "--out", "{d}/out.jsonl", "--report", "{d}/report.json"],
    "summarize": ["summarize", "--frames", "{d}/frames.jsonl", "--features", "{d}/feat.bin", "--k", "3", "--out", "{d}/summary.json"],
    "uniform": ["baseline", "--method", "uniform", "--frames", "{d}/frames.jsonl", "--out", "{d}/summary.json"],
    "kmeans": ["baseline", "--method", "kmeans", "--frames", "{d}/frames.jsonl", "--features", "{d}/feat.bin", "--out", "{d}/summary.json"],
    "simulate": ["simulate", "--frames", "{d}/frames.jsonl", "--out", "{d}/trace.jsonl"],
}
# The subcommands that read each mutated input.
FUZZ_READERS = {
    "frames": [name for name in FUZZ_COMMANDS if not name.startswith("gen")],
    "config": list(FUZZ_COMMANDS),
    "spec": ["gen", "gen-images"],
    "features": ["summarize", "kmeans"],
    "pgm": ["filter-images"],
}
JSON_VALUES = st.sampled_from(
    [None, True, False, -1, 0, 0.5, 7, 2**64, 10**400, 1e308, -1e308, math.nan, math.inf, "", "x", [], [0.5, 0.5, 0.9], {}, {"x": 1}]
)
PGM_TOKENS = st.sampled_from([b"", b"0", b"1", b"-1", b"+32", b"3_2", b"31", b"33", b"1024", b"9" * 5000, b"65535", b"x", b"P2"])


@st.composite
def mutated(draw, obj):
    """A copy of the JSON object or array ``obj`` with one field, at some depth, replaced, dropped or added."""
    obj = dict(obj) if isinstance(obj, dict) else list(obj)
    keys = list(obj) if isinstance(obj, dict) else list(range(len(obj)))
    how = draw(st.sampled_from(["replace", "drop", "add", "descend"] if keys else ["add"]))
    if how == "add":
        if isinstance(obj, dict):
            obj["extra"] = draw(JSON_VALUES)
        else:
            obj.append(draw(JSON_VALUES))
        return obj
    key = draw(st.sampled_from(keys))
    if how == "drop":
        del obj[key]
    elif how == "descend" and isinstance(obj[key], (dict, list)):
        obj[key] = draw(mutated(obj[key]))
    else:
        obj[key] = draw(JSON_VALUES)
    return obj


@st.composite
def fuzz_runs(draw):
    """A subcommand's argv and its input files by name, one input mutated."""
    files, config, spec = dict(FUZZ_FILES), FUZZ_CONFIG, spec_to_dict(FUZZ_SPEC)
    target = draw(st.sampled_from(sorted(FUZZ_READERS)))
    argv = FUZZ_COMMANDS[draw(st.sampled_from(FUZZ_READERS[target]))]
    if target == "frames":
        name = argv[argv.index("--frames") + 1].removeprefix("{d}/")
        lines = files[name].splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = json.dumps(draw(mutated(json.loads(lines[i])))).encode() + b"\n"
        files[name] = b"".join(lines)
    elif target == "config":
        config = draw(mutated(config))
    elif target == "spec":
        spec = draw(mutated(spec))
    elif target == "features":
        files["feat.bin"] = files["feat.bin"][: draw(st.integers(0, len(files["feat.bin"]) - 1))]
    else:
        name = f"{draw(st.integers(0, FUZZ_SPEC.frame_count - 1))}.pgm"
        assert files[name].startswith(FUZZ_PGM_HEADER)
        if draw(st.booleans()):
            files[name] = files[name][: draw(st.integers(0, len(files[name]) - 1))]
        else:
            tokens = FUZZ_PGM_HEADER.split()
            tokens[draw(st.integers(0, 3))] = draw(PGM_TOKENS)
            files[name] = b"%s\n%s %s\n%s\n" % tuple(tokens) + files[name][len(FUZZ_PGM_HEADER) :]
    files["config.json"] = json.dumps(config).encode()
    files["spec.json"] = json.dumps(spec).encode()
    return ["--config", "{d}/config.json", *argv], files


@settings(max_examples=200, deadline=None)
@given(fuzz_runs())
def test_no_input_escapes_main(run):
    # A fresh directory per example: Hypothesis runs every example in one call of the test.
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        assert main([a.replace("{d}", tmp) for a in argv]) in (0, 1, 2)
