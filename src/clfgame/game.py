"""Core domain types for the classifier-selection game.

A learner owns a pool of classifiers hardened at increasing levels and must
answer query batches sent by an adversary whose private "type" is the
perturbation strength of its queries (type 0 = clean data).  Everything the
game needs to know about a classifier/type pair is a single number: the
probability that the classifier answers such a query correctly.  This module
holds the configuration types built around that accuracy matrix, whose
shape gives the game's numbers of classifiers and types, and both sides'
expected-utility functions.  A `TypeDistribution` is immutable, so it
caches the sampling CDF its draws search.  The types compare by identity
(`eq=False`): numpy's `==` on their array fields has no truth value.

Each type checks its own validity rules when it is built, once, and its
`ConfigurationError` names the refused field and shows the value on one
line; `clfgame.config` adds the spec key's path in front.

A realized play takes the per-play path in `clfgame.tree`: `game_play`
picks the learner's classifier and the type, and `play_batch` classifies
the batch with that classifier and gathers both sides' utilities with one
`take` and one `sum` from the per-type utility tables `GameConfig` caches
(`realized_utilities`, `expected_utilities`).  `tree.proportional_choice`
searches a sampled type's double on the type distribution's cached CDF.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Classifier and adversary-type identifiers are plain non-negative indices
# into the active GameConfig; validation happens at the config boundary.
ClassifierId = int
AdversaryTypeId = int

#: Tolerance for "this probability vector sums to one".
SIMPLEX_ATOL = 1e-9

#: Largest payoff magnitude: with `selfplay.MAX_RUN_QUERIES` queries per run,
#: every utility sum stays below about 1e20, far from float64 overflow.
MAX_PAYOFF = 1e12


class ConfigurationError(ValueError):
    """Raised when a config, strategy or belief has inconsistent dimensions
    or out-of-range entries.

    The message starts with the name of the refused field (`h: must be >=
    1, got 0`), or of the value type itself (`accuracy out of [0,1], ...`),
    and shows the refused value through `_shown`, so it is one line."""


#: Characters of a refused value's repr that an error message shows.
REPR_LIMIT = 80


def _shown(value) -> str:
    """A refused value's repr for an error message, cut to REPR_LIMIT
    characters plus "..." so a long or nested value keeps the line short.
    Pass an array as `tolist()`: numpy's repr spans lines."""
    text = repr(value)
    return text if len(text) <= REPR_LIMIT else text[:REPR_LIMIT] + "..."


def _as_readonly_array(values, ndim: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ConfigurationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _validate_simplex(probs: np.ndarray, name: str) -> None:
    """Refuse a vector unless every entry lies in [0, 1] and the entries sum
    to one within SIMPLEX_ATOL.  A negative entry is refused outright, so
    every distribution is one `Generator.choice` accepts."""
    # phrased so that NaN entries fail too; the range test runs on Python
    # floats, the sum stays numpy's (pairwise from 8 entries up)
    if not all(0.0 <= p <= 1 + SIMPLEX_ATOL for p in probs.tolist()):
        raise ConfigurationError(
            f"{name} entries must lie in [0, 1], got {_shown(probs.tolist())}")
    total = float(probs.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise ConfigurationError(
            f"{name} entries must sum to 1, got {_shown(probs.tolist())} (sum {total!r})")


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF `Generator.choice(len(probs), p=probs / probs.sum())` samples.

    Built with choice's own arithmetic, so `cdf.searchsorted(u,
    side="right")` on the double u that choice would draw returns choice's
    index.  Only vectors that passed `_validate_simplex` reach it, so the
    NaN, negative and sum refusals of choice cannot apply and none is made.
    """
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True, eq=False)
class Strategy:
    """Probability distribution over the learner's classifier pool."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_readonly_array(self.probs, 1, "Strategy"))
        _validate_simplex(self.probs, "Strategy")

    @classmethod
    def pure(cls, action: ClassifierId, n_classifiers: int) -> "Strategy":
        """Strategy placing all mass on one classifier.

        One validated instance per (action, n_classifiers) is built and then
        shared; that is safe because a Strategy is frozen and its `probs`
        are read-only.
        """
        key = (cls, operator.index(action), operator.index(n_classifiers))
        strategy = _PURE_STRATEGIES.get(key)
        if strategy is None:
            probs = np.zeros(n_classifiers)
            probs[action] = 1.0
            strategy = _PURE_STRATEGIES.setdefault(key, cls(probs))
        return strategy

    @classmethod
    def uniform(cls, n_classifiers: int) -> "Strategy":
        return cls(np.full(n_classifiers, 1.0 / n_classifiers))

    @cached_property
    def argmax(self) -> ClassifierId:
        """The classifier with the most mass (the lowest index on ties)."""
        return int(np.argmax(self.probs))

    def __len__(self) -> int:
        return len(self.probs)


#: `Strategy.pure`'s shared instances, keyed by (class, action, n_classifiers).
_PURE_STRATEGIES: dict[tuple, Strategy] = {}


@dataclass(frozen=True, eq=False)
class TypeDistribution:
    """Probability distribution over adversary types."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_readonly_array(self.probs, 1, "TypeDistribution"))
        _validate_simplex(self.probs, "TypeDistribution")

    @classmethod
    def degenerate(cls, type_id: AdversaryTypeId, n_types: int) -> "TypeDistribution":
        probs = np.zeros(n_types)
        probs[type_id] = 1.0
        return cls(probs)

    @classmethod
    def uniform(cls, n_types: int) -> "TypeDistribution":
        return cls(np.full(n_types, 1.0 / n_types))

    @cached_property
    def cdf(self) -> np.ndarray:
        """Read-only `Generator.choice` CDF of `probs`, built on first use.

        The probabilities never change, so one CDF serves every draw.  The
        constructor's simplex check has refused every vector choice refuses,
        so building it raises nothing.
        """
        cdf = _choice_cdf(self.probs)
        cdf.flags.writeable = False
        return cdf

    @classmethod
    def concentrated(cls, type_id: AdversaryTypeId, n_types: int,
                     mass: float = 0.98) -> "TypeDistribution":
        """Distribution with `mass` on one type and the remainder split
        uniformly; the last non-focus entry absorbs rounding so the vector
        sums to one exactly (e.g. (0.98, 0.00667, 0.00667, 0.00666)).

        The split is rounded to 5 decimals.  Where rounding up would leave
        the last entry negative (71 types is the first such count), the
        split is not rounded, so the last entry stays near the others.
        """
        if n_types == 1:
            return cls(np.ones(1))
        share = round((1.0 - mass) / (n_types - 1), 5)
        if share * (n_types - 2) > 1.0 - mass:
            share = (1.0 - mass) / (n_types - 1)
        probs = np.full(n_types, share)
        probs[type_id] = mass
        others = [i for i in range(n_types) if i != type_id]
        probs[others[-1]] = 1.0 - mass - share * (len(others) - 1)
        return cls(probs)

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True, eq=False)
class AccuracyMatrix:
    """P(correct prediction | classifier j, adversary type i), indexed [j][i].

    Ground truth for the whole simulation: classifiers have no behavior
    beyond these per-type correctness probabilities.  A higher hardening
    level is normally at least as accurate on every type; violations are
    reported as a warning only, since measured accuracy tables can dip
    (the bundled defaults do, on the clean column).
    """

    acc: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "acc", _as_readonly_array(self.acc, 2, "accuracy"))
        if not np.all((self.acc >= 0) & (self.acc <= 1)):  # NaN fails too
            raise ConfigurationError(
                f"accuracy out of [0,1], got {_shown(self.acc.tolist())}")
        drops = np.diff(self.acc, axis=0) < 0
        if drops.any():
            cells = [f"L{j + 1}<L{j} on type {i}" for j, i in zip(*np.nonzero(drops))]
            warnings.warn(
                "hardening monotonicity violated: " + ", ".join(cells),
                stacklevel=3,  # the caller of the generated __init__
            )


@dataclass(frozen=True, eq=False)
class PayoffConfig:
    """Values and costs entering the utility functions.

    v_learner[j][i]: learner's value for a correct prediction by classifier j
    on a type-i query.  v_adversary[j][i]: adversary's value for a
    misclassification.  c_classifier[j]: cost of deploying classifier j.
    c_type[i]: adversary's cost of generating a type-i query.
    Their shapes are checked against the accuracy matrix by `GameConfig`.
    """

    v_learner: np.ndarray
    v_adversary: np.ndarray
    c_classifier: np.ndarray
    c_type: np.ndarray

    def __post_init__(self):
        for name in ("v_learner", "v_adversary", "c_classifier", "c_type"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            if not np.isfinite(arr).all():
                raise ConfigurationError(
                    f"{name}: entries must be finite, got {_shown(arr.tolist())}")
            if (np.abs(arr) > MAX_PAYOFF).any():
                raise ConfigurationError(
                    f"{name}: magnitudes must be <= {MAX_PAYOFF:g}, got {_shown(arr.tolist())}")
            if name.startswith("c_") and (arr < 0).any():
                raise ConfigurationError(
                    f"{name}: entries must be >= 0, got {_shown(arr.tolist())}")

    @classmethod
    def unit(cls, n_classifiers: int, n_types: int) -> "PayoffConfig":
        """All-ones values, zero costs (the documented default)."""
        return cls(
            v_learner=np.ones((n_classifiers, n_types)),
            v_adversary=np.ones((n_classifiers, n_types)),
            c_classifier=np.zeros(n_classifiers),
            c_type=np.zeros(n_types),
        )


@dataclass(frozen=True, eq=False)
class GameConfig:
    """Accuracy matrix and payoffs for one game instance.

    The numbers of classifiers and of types are the accuracy matrix's
    shape; the payoffs must have matching shapes.
    """

    accuracy: AccuracyMatrix
    payoff: PayoffConfig

    def __post_init__(self):
        shape = self.accuracy.acc.shape
        if min(shape) < 1:
            raise ConfigurationError(
                f"accuracy: must have a row and a column, got shape {shape}")
        for name, want in (("v_learner", shape), ("v_adversary", shape),
                           ("c_classifier", shape[:1]), ("c_type", shape[1:])):
            got = getattr(self.payoff, name).shape
            if got != want:
                raise ConfigurationError(f"{name}: expected shape {want}, got {got}")

    @property
    def n_classifiers(self) -> int:
        return self.accuracy.acc.shape[0]

    @property
    def n_types(self) -> int:
        return self.accuracy.acc.shape[1]

    def check_classifier(self, j: ClassifierId) -> None:
        if not 0 <= j < self.n_classifiers:
            raise ConfigurationError(f"classifier index {j} out of range")

    def check_type(self, i: AdversaryTypeId) -> None:
        if not 0 <= i < self.n_types:
            raise ConfigurationError(f"type index {i} out of range")

    @cached_property
    def realized_utilities(self) -> tuple[np.ndarray, ...]:
        """Per adversary type theta, the utilities of one stochastically
        answered query: a read-only [2, 2 * n_classifiers] table whose row
        0 is the learner's and row 1 the adversary's, and whose column
        `2*j + b` is classifier j answering with correctness b (0 or 1).

        The learner's entry is `b * v_learner[j, theta] - c_classifier[j]`
        and the adversary's `(1.0 - b) * v_adversary[j, theta] -
        c_type[theta]`, with b a float: the expressions a play once
        evaluated query by query, so each entry is that query's term bit
        for bit, `-0.0` included.  A play's two utilities are one `take`
        of its columns and one `sum` along the rows.  Built on first use.
        """
        b = np.array([0.0, 1.0])
        payoff = self.payoff
        learner = b * payoff.v_learner.T[:, :, None] - payoff.c_classifier[:, None]
        adversary = ((1.0 - b) * payoff.v_adversary.T[:, :, None]
                     - payoff.c_type[:, None, None])
        return _tables(learner.reshape(self.n_types, -1), adversary.reshape(self.n_types, -1))

    @cached_property
    def expected_utilities(self) -> tuple[np.ndarray, ...]:
        """Per adversary type theta, the utilities of one query answered in
        expectation: a read-only [2, n_classifiers] table whose column j
        holds classifier j's learner entry `acc[j, theta] * v_learner[j,
        theta] - c_classifier[j]` and adversary entry `(1.0 - acc[j,
        theta]) * v_adversary[j, theta] - c_type[theta]`.  Built on first
        use, like `realized_utilities`.
        """
        acc, payoff = self.accuracy.acc.T, self.payoff
        learner = acc * payoff.v_learner.T - payoff.c_classifier
        adversary = (1.0 - acc) * payoff.v_adversary.T - payoff.c_type[:, None]
        return _tables(learner, adversary)


def _tables(learner: np.ndarray, adversary: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stack two [n_types, n] utility tables into one contiguous read-only
    [2, n] table per type: learner row first, adversary row second."""
    tables = np.ascontiguousarray(np.stack([learner, adversary], axis=1))
    tables.flags.writeable = False
    return tuple(tables)


#: Measured test accuracy of three increasingly hardened classifiers
#: (rows) on clean data and attacks of strength 1-3 (columns).  Bundled
#: default for every experiment that does not configure its own matrix.
DEFAULT_ACCURACY = np.array([
    [0.9392, 0.8684, 0.7706, 0.6814],  # L0: trained on clean data only
    [0.9426, 0.8800, 0.7922, 0.7056],  # L1: hardened at strength 1
    [0.9400, 0.8782, 0.8152, 0.7502],  # L2: hardened at strength 2
])


def default_config(c_classifier=None) -> GameConfig:
    """Bundled 3-classifier / 4-type game with unit values.

    Costs default to zero; pass `c_classifier` to price classifier
    deployment (e.g. increasing in hardening level).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # default matrix dips on the clean column
        accuracy = AccuracyMatrix(DEFAULT_ACCURACY)
    payoff = PayoffConfig.unit(3, 4)
    if c_classifier is not None:
        payoff = PayoffConfig(
            v_learner=payoff.v_learner,
            v_adversary=payoff.v_adversary,
            c_classifier=np.asarray(c_classifier, dtype=float),
            c_type=payoff.c_type,
        )
    return GameConfig(accuracy, payoff)


def _check_strategy(s: Strategy, cfg: GameConfig) -> None:
    if len(s) != cfg.n_classifiers:
        raise ConfigurationError(
            f"strategy has {len(s)} entries for {cfg.n_classifiers} classifiers"
        )


def _check_distribution(d: TypeDistribution, cfg: GameConfig) -> None:
    if len(d) != cfg.n_types:
        raise ConfigurationError(
            f"type distribution has {len(d)} entries for {cfg.n_types} types"
        )


def learner_utility(s: Strategy, theta: AdversaryTypeId, cfg: GameConfig) -> float:
    """Learner's expected utility against a realized adversary type.

    sum_j s(j) * (acc[j][theta] * v_learner[j][theta] - c_classifier[j]);
    linear in the strategy.
    """
    _check_strategy(s, cfg)
    cfg.check_type(theta)
    gains = cfg.accuracy.acc[:, theta] * cfg.payoff.v_learner[:, theta]
    return float(s.probs @ (gains - cfg.payoff.c_classifier))


def pure_learner_utilities(belief: TypeDistribution, cfg: GameConfig) -> np.ndarray:
    """Expected utility of each pure classifier choice under a type belief."""
    _check_distribution(belief, cfg)
    gains = (cfg.accuracy.acc * cfg.payoff.v_learner) @ belief.probs
    return gains - cfg.payoff.c_classifier


def expected_learner_utility(s: Strategy, belief: TypeDistribution, cfg: GameConfig) -> float:
    """Learner's utility in expectation over adversary types.

    Bilinear in (strategy, belief): the belief-weighted average of
    `learner_utility` across types.
    """
    _check_strategy(s, cfg)
    return float(s.probs @ pure_learner_utilities(belief, cfg))


def adversary_utility(s: Strategy, theta: AdversaryTypeId, cfg: GameConfig) -> float:
    """Adversary's utility for sending type-theta queries against strategy s.

    sum_j s(j) * ((1 - acc[j][theta]) * v_adversary[j][theta] - c_type[theta]).
    """
    _check_strategy(s, cfg)
    cfg.check_type(theta)
    miss = (1.0 - cfg.accuracy.acc[:, theta]) * cfg.payoff.v_adversary[:, theta]
    return float(s.probs @ (miss - cfg.payoff.c_type[theta]))


def adversary_utilities(s: Strategy, cfg: GameConfig) -> np.ndarray:
    """Adversary utility of each type against strategy s, as a vector."""
    _check_strategy(s, cfg)
    miss = (1.0 - cfg.accuracy.acc) * cfg.payoff.v_adversary
    return s.probs @ miss - cfg.payoff.c_type
