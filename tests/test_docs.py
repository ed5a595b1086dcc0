"""The README's examples stay in step with the code."""

import json
import re
from dataclasses import fields
from pathlib import Path

from robosum.cli import load_app_config
from robosum.scenario import ActivitySegment, Injection, ScenarioSpec, Waypoint, spec_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def json_block_under(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"```json\n(.*?)```", text[text.index(heading) :], re.DOTALL).group(1)


def test_readme_config_example_lists_exactly_the_defaults(tmp_path):
    block = json_block_under("### Configuration file")
    path = tmp_path / "config.json"
    path.write_text(block)
    # Unknown keys are usage errors, so a key the code no longer has fails here.
    defaults = load_app_config(None)
    assert load_app_config(str(path)) == defaults
    # And every key the code has is listed.
    listed = {name: set(section) for name, section in json.loads(block).items()}
    assert listed == {f.name: {g.name for g in fields(getattr(defaults, f.name))} for f in fields(defaults)}


def test_readme_spec_example_loads_and_lists_every_field():
    obj = json.loads(json_block_under("### Scenario spec schema"))
    # Unknown keys are data errors, so a key the code no longer has fails here.
    spec_from_dict(obj)
    # And every field the code has is listed.
    assert set(obj) == {f.name for f in fields(ScenarioSpec)}
    parts = {"activity_segments": ActivitySegment, "ill_posed_injections": Injection, "person_trajectory": Waypoint}
    for key, cls in parts.items():
        assert obj[key] and all(set(item) == {f.name for f in fields(cls)} for item in obj[key]), key
