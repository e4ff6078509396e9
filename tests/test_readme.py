"""The README's example spec is a valid spec and its library quick start
runs, so a deleted key or result field cannot linger in the docs."""

import contextlib
import io
import json
import re
import warnings
from pathlib import Path

from clfgame.config import serialize_spec, spec_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_spec_parses_and_round_trips():
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    data = json.loads(block)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bundled matrix dips on type 0
        spec = spec_from_dict(data)
        dumped = serialize_spec(spec)
        assert serialize_spec(spec_from_dict(json.loads(json.dumps(dumped)))) == dumped
    # every value the example sets is what the spec carries
    for section in ("game", "run"):
        for key, value in data[section].items():
            assert dumped[section][key] == value, f"{section}.{key}"
    for key in ("repetitions", "output_dir", "preset"):
        assert dumped[key] == data[key], key


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), {})
