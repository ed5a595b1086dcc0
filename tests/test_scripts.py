"""The scripts under ``scripts/`` run end to end on a small input."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="the script reads VmHWM from /proc/self/status")
def test_stage_memory_prints_its_three_tables():
    # The script reaches into service.Session, service._answer and perfbench's batch pass, so this runs all three.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(ROOT / "scripts" / "stage_memory.py"), "--segments", "1"]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    tables = run.stdout.strip().split("\n\n")
    titles = [re.match(r"\| stage \| VmHWM \(MiB\), (\w+ \w+)", table).group(1) for table in tables]
    assert titles == ["batch pass", "server session", "batch pass"]
    stages = [re.findall(r"^\| (\w+) \| \d+\.\d \|$", table, re.MULTILINE) for table in tables]
    batch = ["imports", "parse", "load_features", "attach", "filter", "summarize", "simulate"]
    assert stages == [batch, ["imports", "last_frame", "end_session"], batch]
