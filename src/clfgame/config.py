"""Experiment configuration: JSON in, validated spec out, and back again.

A spec file is a JSON object with optional `game` and `run` sections plus
experiment-level keys; anything omitted, or set to null, takes the
documented default (bundled 3x4 accuracy matrix, unit values, zero costs,
h=20 plays per trial, n_trials=10, q=10, exploration constant ucb_c=2,
uniform prior).  Each setting has one key: the game's dimensions are the
accuracy matrix's shape.  Validation errors name the offending key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .game import (
    AccuracyMatrix,
    ConfigurationError,
    DEFAULT_ACCURACY,
    GameConfig,
    PayoffConfig,
    TypeDistribution,
)
from .oracle import ClassificationMode
from .selection import SelectionMethod
from .selfplay import SelfPlayConfig
from .tree import AdversaryMode

PRESETS = ("selection_table", "kl_convergence", "utility_comparison", "accuracy_check")

#: Characters of a refused value's repr that an error message shows.
REPR_LIMIT = 80

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
            raise ConfigurationError("repetitions: must be >= 1")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigurationError(
                f"preset: must be one of {PRESETS}, got {_shown(self.preset)}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{key}: {message}")


def _shown(value: Any) -> str:
    """A refused value's repr for an error message, cut to REPR_LIMIT
    characters plus "..." so a deeply nested value keeps the line short."""
    text = repr(value)
    return text if len(text) <= REPR_LIMIT else text[:REPR_LIMIT] + "..."


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


def _integer(value: Any, key: str, minimum: int) -> int:
    """An integral JSON number (20 or 20.0, not 20.7, "20" or true)."""
    integral = (isinstance(value, (int, float)) and not isinstance(value, bool)
                and float(value).is_integer())
    _require(integral, key, f"must be an integer, got {_shown(value)}")
    _require(value >= minimum, key, f"must be >= {minimum}, got {_shown(value)}")
    return int(value)


def _reals(data: Any, key: str) -> np.ndarray:
    """A finite number or (nested) array of finite numbers, as floats."""
    try:
        arr = np.asarray(data)
    except ValueError:  # ragged nesting
        arr = None
    _require(arr is not None and arr.dtype.kind in "iuf", key,
             "must be a number or an array of numbers")
    arr = arr.astype(float)
    _require(bool(np.isfinite(arr).all()), key, "entries must be finite")
    return arr


def _broadcast(data: Any, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """A number broadcast to `shape`, or an array that has that shape."""
    arr = _reals(data, key)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    _require(arr.shape == shape, key,
             f"expected shape {shape}, got {arr.shape}")
    return arr


def _game_from_dict(section: dict) -> GameConfig:
    """The game; its dimensions are the accuracy matrix's shape."""
    section = _present(section, "game.", _GAME_KEYS)
    user_matrix = "accuracy" in section
    if user_matrix:
        raw = _reals(section["accuracy"], "game.accuracy")
        _require(raw.ndim == 2, "game.accuracy", "must be a 2-d matrix")
        _require(min(raw.shape) >= 1, "game.accuracy",
                 f"must have a row and a column, got shape {raw.shape}")
    else:
        raw = DEFAULT_ACCURACY
    n_classifiers, n_types = raw.shape

    try:
        import warnings
        with warnings.catch_warnings():
            if not user_matrix:
                # the bundled defaults are known to dip on the clean column
                warnings.simplefilter("ignore")
            accuracy = AccuracyMatrix(raw)
    except ConfigurationError as err:
        raise ConfigurationError(f"game.accuracy: {err}") from err

    payoff_kwargs = {}
    for key, shape in (
        ("v_learner", (n_classifiers, n_types)),
        ("v_adversary", (n_classifiers, n_types)),
        ("c_classifier", (n_classifiers,)),
        ("c_type", (n_types,)),
    ):
        default = np.ones(shape) if key.startswith("v_") else np.zeros(shape)
        payoff_kwargs[key] = (
            _broadcast(section[key], f"game.{key}", shape) if key in section else default
        )
    try:
        payoff = PayoffConfig(**payoff_kwargs)
        return GameConfig(accuracy, payoff)
    except ConfigurationError as err:
        raise ConfigurationError(f"game: {err}") from err


def _run_from_dict(section: dict, n_types: int) -> SelfPlayConfig:
    section = _present(section, "run.", _RUN_KEYS)
    kwargs: dict[str, Any] = {}
    for key in ("h", "n_trials", "q", "seed"):
        if key in section:
            kwargs[key] = _integer(section[key], f"run.{key}", 0 if key == "seed" else 1)
    if "ucb_c" in section:
        ucb_c = _reals(section["ucb_c"], "run.ucb_c")
        _require(ucb_c.ndim == 0 and ucb_c >= 0, "run.ucb_c", "must be a number >= 0")
        kwargs["ucb_c"] = float(ucb_c)
    for key, enum_cls in _ENUM_KEYS.items():
        if key in section:
            values = sorted(member.value for member in enum_cls)
            raw = str(section[key]).lower()
            _require(raw in values, f"run.{key}", f"must be one of {values}")
            kwargs[key] = enum_cls(raw)
    if "true_p" in section:
        probs = _reals(section["true_p"], "run.true_p")
        _require(probs.shape == (n_types,), "run.true_p",
                 f"expected {n_types} entries, got shape {probs.shape}")
        # the simplex check tolerates -1e-9, but a draw refuses any negative
        _require(bool((probs >= 0).all()), "run.true_p",
                 f"entries must be >= 0, got {probs.tolist()}")
        try:
            kwargs["true_p"] = TypeDistribution(probs)
        except ConfigurationError as err:
            raise ConfigurationError(f"run.true_p: {err}") from err
    try:
        return SelfPlayConfig(**kwargs)
    except ConfigurationError as err:
        raise ConfigurationError(f"run: {err}") from err


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build a validated spec from a parsed JSON object."""
    data = _present(data, "", _SPEC_KEYS)
    game = _game_from_dict(_section(data, "game"))
    run = _run_from_dict(_section(data, "run"), game.n_types)
    kwargs: dict[str, Any] = {}
    if "repetitions" in data:
        kwargs["repetitions"] = _integer(data["repetitions"], "repetitions", 1)
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
        _require(seed >= 0, "run.seed", f"must be >= 0, got {seed}")
        spec = replace(spec, run=replace(spec.run, seed=seed))
    if output_dir is not None:
        spec = replace(spec, output_dir=Path(output_dir))
    if repetitions is not None:
        _require(repetitions >= 1, "repetitions", f"must be >= 1, got {repetitions}")
        spec = replace(spec, repetitions=repetitions)
    return spec
