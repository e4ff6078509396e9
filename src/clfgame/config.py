"""Experiment configuration: JSON in, validated spec out, and back again.

A spec file is a JSON object with optional `game` and `run` sections plus
experiment-level keys; anything omitted, or set to null, takes the
documented default (bundled 3x4 accuracy matrix, unit values, zero costs,
h=20 plays per trial, n_trials=10, q=10, exploration constant ucb_c=2,
uniform prior).  Each setting has one key: the game's dimensions are the
accuracy matrix's shape; the other keys are the domain types' fields.

Validation errors name the offending key.  This module checks only what
is about JSON: unknown keys, object sections and the file's decoding; an
integral JSON float is read as an int (20.0 is 20).  Every other rule,
types, number arrays, ranges and enum values included, is the domain
type's (`GameConfig`, `SelfPlayConfig`, `ExperimentSpec`, ...), whose
error names the field; this module puts the section (`game.`, `run.`)
or the key (`game.accuracy: `) in front.  The accuracy matrix's
monotonicity warning gets the same `game.accuracy: `.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from enum import Enum
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
    _check_instance,
    _check_integer,
    _shown,
)
from .selfplay import SelfPlayConfig

PRESETS = ("selection_table", "kl_convergence", "utility_comparison", "accuracy_check")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one experiment invocation; each field
    is checked like `SelfPlayConfig`'s."""

    game: GameConfig
    run: SelfPlayConfig
    repetitions: int = 10
    output_dir: Path = Path("reports")
    preset: Optional[str] = None

    def __post_init__(self):
        _check_instance(self.game, GameConfig, "game")
        _check_instance(self.run, SelfPlayConfig, "run")
        object.__setattr__(self, "repetitions",
                           _check_integer(self.repetitions, 1, "repetitions"))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigurationError(
                f"output_dir: must be a string, got {_shown(self.output_dir)}")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigurationError(
                f"preset: must be one of {PRESETS}, got {_shown(self.preset)}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


#: The keys each part of a spec may set; any other key is refused.
_GAME_KEYS = {"accuracy"} | {field.name for field in fields(PayoffConfig)}
_RUN_KEYS = {field.name for field in fields(SelfPlayConfig)}
_SPEC_KEYS = {field.name for field in fields(ExperimentSpec)}


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
    the key is absent.  An integral JSON float is read as an int (20.0 is
    20); every other value is handed on for the domain type to check."""
    for key in section:
        _require(key in known, prefix + key, "unknown key")
    return {key: int(value) if isinstance(value, float) and value.is_integer() else value
            for key, value in section.items() if value is not None}


def _section(data: dict, key: str) -> dict:
    """A JSON object section; only an absent key (or null) means defaults."""
    section = data.get(key, {})
    _require(isinstance(section, dict), key,
             f"must be a JSON object, got {_shown(section)}")
    return section


def _game_from_dict(section: dict) -> GameConfig:
    """The game; its dimensions are the accuracy matrix's shape.  A payoff
    key set to a number means that number in every entry; a payoff key
    left out takes `PayoffConfig.unit`'s entries."""
    section = _present(section, "game.", _GAME_KEYS)
    with _prefixed("game.accuracy: "), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        accuracy = AccuracyMatrix(section.pop("accuracy", DEFAULT_ACCURACY))
    for warning in caught:
        warnings.warn(f"game.accuracy: {warning.message}", warning.category, stacklevel=3)
    unit = PayoffConfig.unit(*accuracy.acc.shape)
    with _prefixed("game."):
        payoff = replace(unit, **section)
        filled = {key: np.full(getattr(unit, key).shape, getattr(payoff, key))
                   for key in section if getattr(payoff, key).ndim == 0}
        return GameConfig(accuracy, replace(payoff, **filled))


def _run_from_dict(section: dict, game: GameConfig) -> SelfPlayConfig:
    section = _present(section, "run.", _RUN_KEYS)
    if "true_p" in section:
        with _prefixed("run.true_p: "):
            section["true_p"] = TypeDistribution(section["true_p"])
    with _prefixed("run."):
        run = SelfPlayConfig(**section)
        run.resolved(game)  # checks true_p's length; the spec keeps None
    return run


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build a validated spec from a parsed JSON object."""
    data = _present(data, "", _SPEC_KEYS)
    game = _game_from_dict(_section(data, "game"))
    run = _run_from_dict(_section(data, "run"), game)
    return ExperimentSpec(**{**data, "game": game, "run": run})


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


def _as_json(value: Any) -> Any:
    """A field's value in JSON: an array or a distribution as a list, an
    enum member as its value, a path as a string."""
    if isinstance(value, TypeDistribution):
        value = value.probs
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    return str(value) if isinstance(value, Path) else value


def _fields_as_json(obj: Any) -> dict:
    return {field.name: _as_json(getattr(obj, field.name)) for field in fields(obj)}


def serialize_spec(spec: ExperimentSpec) -> dict:
    """JSON-ready dict that round-trips through `spec_from_dict`."""
    game = {"accuracy": spec.game.accuracy.acc.tolist(), **_fields_as_json(spec.game.payoff)}
    return {**_fields_as_json(spec), "game": game, "run": _fields_as_json(spec.run)}


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
