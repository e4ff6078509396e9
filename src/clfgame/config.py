"""Experiment configuration: JSON in, validated spec out, and back again.

A spec file is a JSON object with optional `game` and `run` sections plus
experiment-level keys; anything omitted takes the documented default
(bundled 3x4 accuracy matrix, unit values, zero costs, h=20, n_trials=10,
q=10, exploration constant 2, uniform prior).  Validation errors name the
offending key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .belief import UpdateRule
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

#: Aliases accepted in spec files for enum-valued run keys.
_ENUM_KEYS = {
    "selection": (SelectionMethod, {"bne": "bne", "ucb": "ucb"}),
    "update_rule": (UpdateRule, {"fp": "fp", "fictitious_play": "fp",
                                 "bu": "bu", "bayesian_update": "bu"}),
    "adversary_mode": (AdversaryMode, {"sampled": "sampled",
                                       "best_response": "best_response"}),
    "classification_mode": (ClassificationMode, {"stochastic": "stochastic",
                                                 "expectation": "expectation"}),
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
                f"preset: must be one of {PRESETS}, got {self.preset!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{key}: {message}")


def _section(data: dict, key: str) -> dict:
    section = data.get(key) or {}
    _require(isinstance(section, dict), key, "must be a JSON object")
    return section


def _integer(value: Any, key: str, minimum: int) -> int:
    """An integral JSON number (20 or 20.0, not 20.7, "20" or true)."""
    integral = (isinstance(value, (int, float)) and not isinstance(value, bool)
                and float(value).is_integer())
    _require(integral, key, f"must be an integer, got {value!r}")
    _require(value >= minimum, key, f"must be >= {minimum}, got {value!r}")
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
    known = {"n_classifiers", "n_types", "accuracy",
             "v_learner", "v_adversary", "c_classifier", "c_type"}
    for key in section:
        _require(key in known, f"game.{key}", "unknown key")

    user_matrix = "accuracy" in section
    if user_matrix:
        raw = _reals(section["accuracy"], "game.accuracy")
        _require(raw.ndim == 2, "game.accuracy", "must be a 2-d matrix")
        n_classifiers = _integer(section.get("n_classifiers", raw.shape[0]),
                                 "game.n_classifiers", 1)
        n_types = _integer(section.get("n_types", raw.shape[1]), "game.n_types", 1)
        _require(raw.shape == (n_classifiers, n_types), "game.accuracy",
                 f"dimension mismatch: matrix {raw.shape} vs "
                 f"({n_classifiers}, {n_types})")
    else:
        n_classifiers = _integer(section.get("n_classifiers", DEFAULT_ACCURACY.shape[0]),
                                 "game.n_classifiers", 1)
        n_types = _integer(section.get("n_types", DEFAULT_ACCURACY.shape[1]),
                           "game.n_types", 1)
        _require((n_classifiers, n_types) == DEFAULT_ACCURACY.shape,
                 "game.accuracy",
                 "required when dimensions differ from the bundled 3x4 default")
        raw = DEFAULT_ACCURACY

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
        return GameConfig(n_classifiers, n_types, accuracy, payoff)
    except ConfigurationError as err:
        raise ConfigurationError(f"game: {err}") from err


def _run_from_dict(section: dict, n_types: int) -> SelfPlayConfig:
    known = {"h", "n_trials", "q", "ucb_c", "C", "selection", "update_rule",
             "adversary_mode", "classification_mode", "true_p", "seed",
             "traversals_per_trial"}
    for key in section:
        _require(key in known, f"run.{key}", "unknown key")

    kwargs: dict[str, Any] = {}
    for key in ("h", "n_trials", "q", "seed", "traversals_per_trial"):
        if section.get(key) is not None:
            kwargs[key] = _integer(section[key], f"run.{key}", 0 if key == "seed" else 1)
    ucb_key = "C" if "C" in section and "ucb_c" not in section else "ucb_c"
    if ucb_key in section:
        ucb_c = _reals(section[ucb_key], f"run.{ucb_key}")
        _require(ucb_c.ndim == 0 and ucb_c >= 0, f"run.{ucb_key}",
                 "must be a number >= 0")
        kwargs["ucb_c"] = float(ucb_c)
    for key, (enum_cls, aliases) in _ENUM_KEYS.items():
        if key in section:
            raw = str(section[key]).lower()
            _require(raw in aliases, f"run.{key}",
                     f"must be one of {sorted(set(aliases))}")
            kwargs[key] = enum_cls(aliases[raw])
    if section.get("true_p") is not None:
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
    known = {"game", "run", "repetitions", "output_dir", "preset"}
    for key in data:
        _require(key in known, key, "unknown key")
    game = _game_from_dict(_section(data, "game"))
    run = _run_from_dict(_section(data, "run"), game.n_types)
    kwargs: dict[str, Any] = {}
    if data.get("repetitions") is not None:
        kwargs["repetitions"] = _integer(data["repetitions"], "repetitions", 1)
    if data.get("output_dir") is not None:
        _require(isinstance(data["output_dir"], str), "output_dir", "must be a string")
        kwargs["output_dir"] = Path(data["output_dir"])
    if data.get("preset") is not None:
        kwargs["preset"] = str(data["preset"])
    return ExperimentSpec(game=game, run=run, **kwargs)


def load_spec(path: str | Path) -> ExperimentSpec:
    """Parse and validate a JSON spec file; missing keys take defaults."""
    text = Path(path).read_text()
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"{path}: not valid JSON ({err})") from err
    _require(isinstance(data, dict), str(path), "top level must be a JSON object")
    return spec_from_dict(data)


def serialize_spec(spec: ExperimentSpec) -> dict:
    """JSON-ready dict that round-trips through `spec_from_dict`."""
    run = spec.run
    return {
        "game": {
            "n_classifiers": spec.game.n_classifiers,
            "n_types": spec.game.n_types,
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
            "update_rule": run.update_rule.value,
            "adversary_mode": run.adversary_mode.value,
            "classification_mode": run.classification_mode.value,
            "true_p": None if run.true_p is None else run.true_p.probs.tolist(),
            "seed": run.seed,
            "traversals_per_trial": run.traversals_per_trial,
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
