"""Experiment configuration: JSON in, validated spec out, and back again.

A spec file is a JSON object with optional `game` and `run` sections plus
experiment-level keys; anything omitted, or set to null, takes the
documented default (bundled 3x4 accuracy matrix, unit values, zero costs,
h=20 plays per trial, n_trials=10, q=10, exploration constant ucb_c=2,
uniform prior).  Each setting has one key: the game's dimensions are the
accuracy matrix's shape.

Validation errors name the offending key.  This module checks only what
is about JSON: unknown keys, object sections, integral numbers, numeric
arrays, enum values, a scalar `ucb_c`, a string `output_dir` and the
file's decoding.  Every other rule is the domain type's (`GameConfig`,
`SelfPlayConfig`, ...), whose error names the field; this module puts the
section (`game.`, `run.`) or the key (`game.accuracy: `) in front.  The
accuracy matrix's monotonicity warning gets the same `game.accuracy: `.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .game import (
    REPR_LIMIT,  # noqa: F401  (re-exported: callers read config.REPR_LIMIT)
    AccuracyMatrix,
    ConfigurationError,
    DEFAULT_ACCURACY,
    GameConfig,
    PayoffConfig,
    TypeDistribution,
    _shown,
)
from .oracle import ClassificationMode
from .selection import SelectionMethod
from .selfplay import SelfPlayConfig
from .tree import AdversaryMode

PRESETS = ("selection_table", "kl_convergence", "utility_comparison", "accuracy_check")

#: The keys each part of a spec may set; any other key is refused.
_GAME_KEYS = {"accuracy", "v_learner", "v_adversary", "c_classifier", "c_type"}
_RUN_KEYS = {"h", "n_trials", "q", "ucb_c", "selection", "adversary_mode",
             "classification_mode", "true_p", "seed"}
_SPEC_KEYS = {"game", "run", "repetitions", "output_dir", "preset"}

#: Enum-valued run keys; a spec gives the value in any letter case.
_ENUM_KEYS = {
    "selection": SelectionMethod,
    "adversary_mode": AdversaryMode,
    "classification_mode": ClassificationMode,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one experiment invocation."""

    game: GameConfig
    run: SelfPlayConfig
    repetitions: int = 10
    output_dir: Path = Path("reports")
    preset: Optional[str] = None

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions: must be >= 1, got {_shown(self.repetitions)}")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigurationError(
                f"preset: must be one of {PRESETS}, got {_shown(self.preset)}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{key}: {message}")


@contextmanager
def _prefixed(prefix: str):
    """Put the spec's key path in front of a domain type's error."""
    try:
        yield
    except ConfigurationError as err:
        raise ConfigurationError(f"{prefix}{err}") from err


def _present(section: dict, prefix: str, known: set[str]) -> dict:
    """The keys a section sets: each must be known, and a null value means
    the key is absent."""
    for key in section:
        _require(key in known, prefix + key, "unknown key")
    return {key: value for key, value in section.items() if value is not None}


def _section(data: dict, key: str) -> dict:
    """A JSON object section; only an absent key (or null) means defaults."""
    section = data.get(key, {})
    _require(isinstance(section, dict), key,
             f"must be a JSON object, got {_shown(section)}")
    return section


def _integer(value: Any, key: str) -> int:
    """An integral JSON number (20 or 20.0, not 20.7, "20" or true)."""
    integral = (isinstance(value, (int, float)) and not isinstance(value, bool)
                and float(value).is_integer())
    _require(integral, key, f"must be an integer, got {_shown(value)}")
    return int(value)


def _reals(data: Any, key: str) -> np.ndarray:
    """A number or (nested) array of numbers, as floats."""
    try:
        arr = np.asarray(data)
    except ValueError:  # ragged nesting
        arr = None
    _require(arr is not None and arr.dtype.kind in "iuf", key,
             "must be a number or an array of numbers")
    return arr.astype(float)


def _game_from_dict(section: dict) -> GameConfig:
    """The game; its dimensions are the accuracy matrix's shape.  A payoff
    key set to a number means that number in every entry."""
    section = _present(section, "game.", _GAME_KEYS)
    raw = (_reals(section["accuracy"], "game.accuracy") if "accuracy" in section
           else DEFAULT_ACCURACY)
    with _prefixed("game.accuracy: "), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        accuracy = AccuracyMatrix(raw)
    # the bundled matrix's known dip stays silent, left out or given in full
    if not np.array_equal(raw, DEFAULT_ACCURACY):
        for warning in caught:
            warnings.warn(f"game.accuracy: {warning.message}", warning.category, stacklevel=3)
    n_classifiers, n_types = accuracy.acc.shape
    payoff_kwargs = {}
    for key, shape, default in (
        ("v_learner", (n_classifiers, n_types), 1.0),
        ("v_adversary", (n_classifiers, n_types), 1.0),
        ("c_classifier", (n_classifiers,), 0.0),
        ("c_type", (n_types,), 0.0),
    ):
        value = _reals(section[key], f"game.{key}") if key in section else default
        payoff_kwargs[key] = np.full(shape, value) if np.ndim(value) == 0 else value
    with _prefixed("game."):
        return GameConfig(accuracy, PayoffConfig(**payoff_kwargs))


def _run_from_dict(section: dict, game: GameConfig) -> SelfPlayConfig:
    section = _present(section, "run.", _RUN_KEYS)
    kwargs: dict[str, Any] = {}
    for key in ("h", "n_trials", "q", "seed"):
        if key in section:
            kwargs[key] = _integer(section[key], f"run.{key}")
    if "ucb_c" in section:
        ucb_c = _reals(section["ucb_c"], "run.ucb_c")
        _require(ucb_c.ndim == 0, "run.ucb_c", "must be a number")
        kwargs["ucb_c"] = float(ucb_c)
    for key, enum_cls in _ENUM_KEYS.items():
        if key in section:
            values = sorted(member.value for member in enum_cls)
            raw = str(section[key]).lower()
            _require(raw in values, f"run.{key}", f"must be one of {values}")
            kwargs[key] = enum_cls(raw)
    if "true_p" in section:
        probs = _reals(section["true_p"], "run.true_p")
        with _prefixed("run.true_p: "):
            kwargs["true_p"] = TypeDistribution(probs)
    with _prefixed("run."):
        run = SelfPlayConfig(**kwargs)
        run.resolved(game)  # checks true_p's length; the spec keeps None
    return run


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build a validated spec from a parsed JSON object."""
    data = _present(data, "", _SPEC_KEYS)
    game = _game_from_dict(_section(data, "game"))
    run = _run_from_dict(_section(data, "run"), game)
    kwargs: dict[str, Any] = {}
    if "repetitions" in data:
        kwargs["repetitions"] = _integer(data["repetitions"], "repetitions")
    if "output_dir" in data:
        _require(isinstance(data["output_dir"], str), "output_dir", "must be a string")
        kwargs["output_dir"] = Path(data["output_dir"])
    if "preset" in data:
        kwargs["preset"] = str(data["preset"])
    return ExperimentSpec(game=game, run=run, **kwargs)


def load_spec(path: str | Path) -> ExperimentSpec:
    """Parse and validate a JSON spec file; missing keys take defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text) if text.strip() else {}
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"{path}: not UTF-8 text ({err})") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"{path}: not valid JSON ({err})") from err
    except RecursionError as err:
        raise ConfigurationError(f"{path}: JSON nested too deeply ({err})") from err
    _require(isinstance(data, dict), str(path), "top level must be a JSON object")
    return spec_from_dict(data)


def serialize_spec(spec: ExperimentSpec) -> dict:
    """JSON-ready dict that round-trips through `spec_from_dict`."""
    run = spec.run
    return {
        "game": {
            "accuracy": spec.game.accuracy.acc.tolist(),
            "v_learner": spec.game.payoff.v_learner.tolist(),
            "v_adversary": spec.game.payoff.v_adversary.tolist(),
            "c_classifier": spec.game.payoff.c_classifier.tolist(),
            "c_type": spec.game.payoff.c_type.tolist(),
        },
        "run": {
            "h": run.h,
            "n_trials": run.n_trials,
            "q": run.q,
            "ucb_c": run.ucb_c,
            "selection": run.selection.value,
            "adversary_mode": run.adversary_mode.value,
            "classification_mode": run.classification_mode.value,
            "true_p": None if run.true_p is None else run.true_p.probs.tolist(),
            "seed": run.seed,
        },
        "repetitions": spec.repetitions,
        "output_dir": str(spec.output_dir),
        "preset": spec.preset,
    }


def with_overrides(spec: ExperimentSpec, seed: Optional[int] = None,
                   output_dir: Optional[str] = None,
                   repetitions: Optional[int] = None) -> ExperimentSpec:
    """Apply command-line overrides on top of a loaded spec."""
    if seed is not None:
        with _prefixed("run."):
            spec = replace(spec, run=replace(spec.run, seed=seed))
    if output_dir is not None:
        spec = replace(spec, output_dir=Path(output_dir))
    if repetitions is not None:
        spec = replace(spec, repetitions=repetitions)
    return spec
