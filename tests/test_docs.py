"""The README's examples stay in step with the code."""

import json
import re
from dataclasses import fields
from pathlib import Path

from robosum.cli import load_app_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_example_lists_exactly_the_defaults(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Configuration file") :]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "config.json"
    path.write_text(block)
    # Unknown keys are usage errors, so a key the code no longer has fails here.
    defaults = load_app_config(None)
    assert load_app_config(str(path)) == defaults
    # And every key the code has is listed.
    listed = {name: set(section) for name, section in json.loads(block).items()}
    assert listed == {f.name: {g.name for g in fields(getattr(defaults, f.name))} for f in fields(defaults)}
