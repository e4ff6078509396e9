"""The README's example spec is a valid spec, its library quick start
runs, its quoted errors are the ones raised and its module table names
only what each module holds, so a deleted key, result field, message or
public name cannot linger in the docs."""

import contextlib
import importlib
import io
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from clfgame import ConfigurationError, PayoffConfig, SelfPlayConfig
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


#: Each error the README quotes, with the spec or call that raises it.
QUOTED_ERRORS = {
    "game.accuracy: accuracy out of [0,1], got [[0.5, 1.2], [0.4, 0.6]]":
        lambda: spec_from_dict({"game": {"accuracy": [[0.5, 1.2], [0.4, 0.6]]}}),
    "run.depth: unknown key": lambda: spec_from_dict({"run": {"depth": 3}}),
    "h: must be >= 1, got 0": lambda: SelfPlayConfig(h=0),
    "run.h: must be >= 1, got 0": lambda: spec_from_dict({"run": {"h": 0}}),
    "game.n_classifiers: unknown key": lambda: spec_from_dict({"game": {"n_classifiers": 3}}),
    "v_learner: entries must be numbers, got '20'":
        lambda: replace(PayoffConfig.unit(1, 1), v_learner="20"),
}


def test_readme_quotes_every_checked_error():
    """Every quoted `key: message` in the README is one of QUOTED_ERRORS."""
    quoted = re.findall(r"`((?:game\.|run\.)?\w+: [^`]+)`",
                        " ".join(README.read_text(encoding="utf-8").split()))
    assert sorted(quoted) == sorted(QUOTED_ERRORS)


@pytest.mark.parametrize("message", QUOTED_ERRORS)
def test_readme_quoted_error_is_raised(message):
    with pytest.raises(ConfigurationError) as err:
        QUOTED_ERRORS[message]()
    assert str(err.value) == message


def module_table_rows():
    """(modules, names) per row of the "What's inside" table: the row's
    backticked module names and the undotted identifiers its text quotes,
    alone (`self_play`) or called (`self_play(cfg, run)`)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.strip().strip("|").split("|")
        modules = re.findall(r"`(clfgame(?:\.\w+)?)`", cells[0])
        if len(cells) == 2 and modules:
            names = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*)?`", cells[1])
            rows.append((modules, names))
    return rows


def test_module_table_names_exist():
    """Every identifier a row of the module table quotes is an attribute of
    one of that row's modules; dotted names (`numpy.random.Generator`,
    `Generator.random((h, k))`) are skipped."""
    rows = module_table_rows()
    assert len(rows) >= 7, rows
    for modules, names in rows:
        loaded = [importlib.import_module(name) for name in modules]
        for name in names:
            assert any(hasattr(module, name) for module in loaded), (modules, name)
