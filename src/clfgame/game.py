"""Core domain types for the classifier-selection game.

A learner owns a pool of classifiers hardened at increasing levels and must
answer query batches sent by an adversary whose private "type" is the
perturbation strength of its queries (type 0 = clean data).  Everything the
game needs to know about a classifier/type pair is a single number: the
probability that the classifier answers such a query correctly.  This module
holds the configuration types built around that accuracy matrix, whose
shape gives the game's numbers of classifiers and types, and both sides'
payoffs.  A `TypeDistribution` is immutable, so it caches the sampling CDF
its draws search.  The types compare by identity (`eq=False`): numpy's `==`
on their array fields has no truth value.

Each type checks its own validity rules when it is built, once, and its
`ConfigurationError` names the refused field and shows the value on one
line; `clfgame.config` adds the spec key's path in front.

Every move is pure: a play's learner uses one classifier and its adversary
one type.  Both utilities are linear in a mixed strategy, so a pure one
maximizes.  The payoffs are written out once, per pure pair, in the tables
`GameConfig` caches (`realized_utilities`, `expected_utilities`,
`best_response_types`) and, under a belief, `pure_learner_utilities`.
A play (`clfgame.tree.play_batch`) takes both sides' utilities from the
tables with one `take` and one `sum`.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

# Classifier and adversary-type identifiers are plain non-negative indices
# into the active GameConfig; `_check_index` is their one validity rule.
ClassifierId = int
AdversaryTypeId = int

#: Tolerance for "this probability vector sums to one".
SIMPLEX_ATOL = 1e-9

#: Share of the focus type in `TypeDistribution.concentrated`.
CONCENTRATED_MASS = 0.98

#: Largest payoff magnitude: with `selfplay.MAX_RUN_QUERIES` queries per run,
#: every utility sum stays below about 1e20, far from float64 overflow.
MAX_PAYOFF = 1e12


class ConfigurationError(ValueError):
    """Raised when a config, belief or index has inconsistent dimensions
    or out-of-range entries.

    The message starts with the name of the refused field (`h: must be >=
    1, got 0`), or of the value type itself (`accuracy out of [0,1], ...`),
    and shows the refused value through `_shown`, so it is one line."""


#: Characters of a refused value's repr that an error message shows.
REPR_LIMIT = 80


def _shown(value) -> str:
    """A refused value's repr for an error message, cut to REPR_LIMIT
    characters plus "..." so a long or nested value keeps the line short.
    An array is shown as its `tolist()`: numpy's repr spans lines."""
    text = repr(value.tolist() if isinstance(value, np.ndarray) else value)
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


def _check_index(index, n: int, name: str) -> None:
    """Refuse `index` in one line unless it is a Python or numpy integer in
    [0, n): `classifier: must be an integer in [0, 3), got 1.5`.  A `bool`,
    which numpy reads as a mask, and a negative index, which numpy counts
    from the end, are refused too."""
    if isinstance(index, bool) or not (isinstance(index, numbers.Integral) and 0 <= index < n):
        raise ConfigurationError(f"{name}: must be an integer in [0, {n}), got {_shown(index)}")


def _check_integer(value, minimum: int, name: str) -> int:
    """`value` as a Python int, refused in one line unless it is a Python
    or numpy integer (not a `bool`) of at least `minimum`: `h: must be an
    integer, got 2.5`, `h: must be >= 1, got 0`.  A plain int skips the
    slower abstract-class test."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ConfigurationError(f"{name}: must be an integer, got {_shown(value)}")
    if value < minimum:
        raise ConfigurationError(f"{name}: must be >= {minimum}, got {_shown(value)}")
    return int(value)


def _check_length(dist: "TypeDistribution", n: int, name: str) -> None:
    """Refuse a distribution over other than `n` types in one line:
    `true_p: expected 4 entries, got 2`."""
    if len(dist) != n:
        raise ConfigurationError(f"{name}: expected {n} entries, got {len(dist)}")


def _one_hot(index, n: int, name: str) -> np.ndarray:
    """A length-n vector with 1.0 at `index`, which `_check_index` checks."""
    _check_index(index, n, name)
    probs = np.zeros(n)
    probs[index] = 1.0
    return probs


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
class TypeDistribution:
    """Probability distribution over adversary types."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_readonly_array(self.probs, 1, "TypeDistribution"))
        _validate_simplex(self.probs, "TypeDistribution")

    @classmethod
    def degenerate(cls, type_id: AdversaryTypeId, n_types: int) -> "TypeDistribution":
        return cls(_one_hot(type_id, n_types, "type_id"))

    @classmethod
    def uniform(cls, n_types: int) -> "TypeDistribution":
        n_types = _check_integer(n_types, 1, "n_types")
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
    def concentrated(cls, type_id: AdversaryTypeId, n_types: int) -> "TypeDistribution":
        """Distribution with `CONCENTRATED_MASS` on one type and the
        remainder split uniformly; the last non-focus entry absorbs
        rounding so the vector sums to one exactly (e.g. (0.98, 0.00667,
        0.00667, 0.00666)).

        The split is rounded to 5 decimals.  Where rounding up would leave
        the last entry negative (71 types is the first such count), the
        split is not rounded, so the last entry stays near the others.
        """
        focus = _one_hot(type_id, n_types, "type_id")
        if n_types == 1:
            return cls(focus)
        rest = 1.0 - CONCENTRATED_MASS
        share = round(rest / (n_types - 1), 5)
        if share * (n_types - 2) > rest:
            share = rest / (n_types - 1)
        probs = np.where(focus == 1.0, CONCENTRATED_MASS, share)
        others = [i for i in range(n_types) if i != type_id]
        probs[others[-1]] = rest - share * (len(others) - 1)
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

    @cached_property
    def best_response_types(self) -> tuple[AdversaryTypeId, ...]:
        """Per classifier j, the type that best responds to it: the argmax
        of j's adversary entries in `expected_utilities`, the lowest type
        on ties.  Against a pure strategy these entries are the adversary's
        whole utility, so no mixed strategy is needed.  Built on first
        use."""
        adversary = np.array(self.expected_utilities)[:, 1]  # [n_types, n_classifiers]
        return tuple(adversary.argmax(axis=0).tolist())


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
    payoff = PayoffConfig.unit(*accuracy.acc.shape)
    if c_classifier is not None:
        payoff = replace(payoff, c_classifier=c_classifier)
    return GameConfig(accuracy, payoff)


def pure_learner_utilities(belief: TypeDistribution, cfg: GameConfig) -> np.ndarray:
    """Expected utility of each pure classifier choice under a type belief:
    entry j is `sum_theta belief(theta) * acc[j, theta] * v_learner[j,
    theta] - c_classifier[j]`, the belief-weighted learner entries of
    `GameConfig.expected_utilities`."""
    _check_length(belief, cfg.n_types, "belief")
    gains = (cfg.accuracy.acc * cfg.payoff.v_learner) @ belief.probs
    return gains - cfg.payoff.c_classifier
