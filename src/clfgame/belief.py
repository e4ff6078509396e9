"""Belief tracking over adversary types.

The learner never observes the adversary's type directly at decision time;
it accumulates (classifier played, type realized) pairs from finished plays
and summarizes them into a marginal type distribution `p_hat`, the
empirical type distribution.  Two rules give per-action type conditionals:
fictitious play (per-action empirical frequencies) and a Bayes-rule
reconstruction from action-given-type likelihoods.  They are diagnostics,
not a setting: both mix into the same marginal, so no run depends on the
rule.  `UpdateRule` names the rule whose conditional a report shows.  KL
divergence against the adversary's actual distribution is the convergence
metric.  UCB's visit counts are the belief's row and column count sums.

A run keeps one `BeliefState`, validated once and updated in place by
`record_observation` and `refresh_marginal`.  With no observations the
marginal is uniform, as is each conditional's fallback.

`record_observation` runs once per play and `refresh_marginal` once per
trial, on vectors of a few entries, so their checks run on Python
numbers.  The refresh only records the type counts as they stand; `p_hat`
is built from them, validated, the first time it is read.  A run that
never reads it inside its loop (UCB) builds no distribution per trial,
and one that reads it once per trial (BNE) builds the one it reads.

KL divergence and max componentwise error have one formula, `_curves`,
over the rows of a `[n, T]` array of beliefs: `trial_curves` hands it a
run's belief at each trial's end, after the run's loop, and
`kl_divergence` and `max_componentwise_error` measure a single belief
(the presets' baseline and conditional rows) as its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .game import (
    AdversaryTypeId,
    ClassifierId,
    ConfigurationError,
    TypeDistribution,
    _check_index,
    _check_integer,
    _check_length,
    _shown,
)


class UpdateRule(str, Enum):
    """Which per-action conditional a report shows: `fp_conditional` or
    `bu_conditional`."""

    FICTITIOUS_PLAY = "fp"
    BAYESIAN_UPDATE = "bu"


@dataclass(eq=False)
class BeliefState:
    """Current marginal belief plus the count statistics that feed updates.

    joint_counts[j][i] counts how often type i was realized in a play where
    the learner had selected classifier j; its row sums (action_counts) and
    column sums (type_counts) are the visit counts UCB scores.  It keeps
    its own int64 copy of the counts, which the updates change in place;
    each count must be whole, non-negative and within int64 (`2.0` is 2).
    Two beliefs are equal only when they are the same object: a mutable
    state with array fields has no element-wise `==` worth defining.

    `p_hat` is a property over the field: after `refresh_marginal` it is
    `_empirical` of the type counts that refresh recorded, built the first
    time it is read.  A `p_hat` given to the constructor or assigned later
    is kept as given, once its length is checked.
    """

    p_hat: TypeDistribution
    joint_counts: np.ndarray

    def __post_init__(self):
        try:
            counts = np.asarray(self.joint_counts)
        except ValueError:  # ragged rows: no int64 matrix holds them
            counts = np.empty((0, 0), dtype=object)
        if counts.ndim != 2:
            raise ConfigurationError(f"joint_counts: must be a 2-d matrix, got {counts.ndim}-d")
        if counts.dtype.kind not in "iuf" or not all(
                0 <= c < 2**63 and c % 1 == 0 for c in counts.ravel().tolist()):
            raise ConfigurationError(
                "joint_counts: must be whole, finite, non-negative numbers within "
                f"int64, got {_shown(self.joint_counts)}")
        _check_length(self.p_hat, counts.shape[1], "p_hat")
        self.joint_counts = counts.astype(np.int64)

    def _get_p_hat(self) -> TypeDistribution:
        if self._p_hat is None:
            self._p_hat = _empirical(self._refreshed_counts)
        return self._p_hat

    def _set_p_hat(self, value: TypeDistribution) -> None:
        # The generated __init__ assigns p_hat before joint_counts;
        # __post_init__ checks the constructor's.
        if "joint_counts" in vars(self):
            _check_length(value, self.joint_counts.shape[1], "p_hat")
        self._p_hat = value

    @classmethod
    def fresh(cls, n_classifiers: int, n_types: int) -> "BeliefState":
        """Observation-free state; the belief starts uniform."""
        n_classifiers = _check_integer(n_classifiers, 0, "n_classifiers")
        return cls(TypeDistribution.uniform(n_types),
                   np.zeros((n_classifiers, n_types), dtype=np.int64))

    @property
    def action_counts(self) -> np.ndarray:
        """Times each classifier was selected; row sums of joint_counts.
        `np.add.reduce` skips `ndarray.sum`'s Python wrapper; the int64
        sums are the same."""
        return np.add.reduce(self.joint_counts, axis=1)

    @property
    def type_counts(self) -> np.ndarray:
        """Times each type was realized; column sums of joint_counts."""
        return np.add.reduce(self.joint_counts, axis=0)


BeliefState.p_hat = property(
    BeliefState._get_p_hat, BeliefState._set_p_hat,
    doc="The marginal belief over types (see `BeliefState`).")


def record_observation(b: BeliefState, action: ClassifierId,
                       theta: AdversaryTypeId) -> None:
    """Count one realized (classifier, type) pair into `b`; p_hat is
    untouched until `refresh_marginal` is called.

    A run passes Python ints, which the plain comparison admits; any other
    pair goes to `_check_index`, which refuses it in one line or admits a
    numpy integer."""
    n_classifiers, n_types = b.joint_counts.shape
    if not (type(action) is int and type(theta) is int
            and 0 <= action < n_classifiers and 0 <= theta < n_types):
        _check_index(action, n_classifiers, "classifier")
        _check_index(theta, n_types, "type")
    b.joint_counts[action, theta] += 1


def fp_conditional(b: BeliefState, action: ClassifierId) -> TypeDistribution:
    """Empirical type frequencies among plays of one classifier.

    Falls back to uniform for a classifier that was never selected.
    """
    _check_index(action, b.joint_counts.shape[0], "classifier")
    return _empirical(b.joint_counts[action])


def bu_conditional(b: BeliefState, action: ClassifierId) -> TypeDistribution:
    """Bayes-rule type posterior for one classifier.

    Likelihood P(action | type) is the fraction of type-i observations in
    which this classifier was the one selected; the prior over types is the
    current `p_hat`.  A zero denominator (classifier absent from every
    type's history) falls back to uniform.
    """
    _check_index(action, b.joint_counts.shape[0], "classifier")
    type_totals = b.type_counts
    with np.errstate(invalid="ignore"):
        likelihood = np.where(type_totals > 0, b.joint_counts[action] / np.maximum(type_totals, 1), 0.0)
    weighted = likelihood * b.p_hat.probs
    denom = weighted.sum()
    if denom <= 0.0:
        return TypeDistribution.uniform(len(weighted))
    return TypeDistribution(weighted / denom)


def refresh_marginal(b: BeliefState) -> None:
    """Make `b.p_hat` the empirical type distribution of the counts as they
    stand.  The counts are recorded now and the distribution is built
    from them when `p_hat` is next read, so later observations do not move
    it.

    Both conditional rules give this marginal.  Each defines it as the
    action-frequency-weighted mixture of per-action conditionals,
    sum_j w(j) * P(type | action j) with w(j) = n_j / N.  Under fictitious
    play P(i | j) = n_ji / n_j, so the mixture is n_i / N.  Under the Bayes
    rule, with likelihood n_ji / n_i and the count-consistent type prior
    n_i / N, the posterior is again n_ji / n_j.  (A stale p_hat as the
    prior would stall the update: the learner moves before the type is
    realized, so the likelihoods carry no information of their own.)  The
    conditionals stay available as diagnostics (`fp_conditional`,
    `bu_conditional`).  With no observations the belief is uniform.
    """
    b._p_hat, b._refreshed_counts = None, b.type_counts


def _empirical(counts: np.ndarray) -> TypeDistribution:
    """The counts over their integer total; uniform when all are zero."""
    total = sum(counts.tolist())
    return TypeDistribution(counts / total) if total else TypeDistribution.uniform(len(counts))


def kl_divergence(p_hat: TypeDistribution, p: TypeDistribution) -> float:
    """D_KL(p_hat || p) = sum_i p_hat(i) * ln(p_hat(i) / p(i)).

    Zero-probability p_hat entries contribute nothing; p_hat mass on a type
    with p(i) = 0 yields the +infinity sentinel so convergence curves stay
    plottable instead of raising.  The one-row case of `_curves`.
    """
    _check_length(p, len(p_hat), "p")
    return float(_curves(p_hat.probs[None], p)[0][0])


def max_componentwise_error(p_hat: TypeDistribution, p: TypeDistribution) -> float:
    """Largest per-type absolute gap; reported alongside KL.  The one-row
    case of `_curves`."""
    _check_length(p, len(p_hat), "p")
    return float(_curves(p_hat.probs[None], p)[1][0])


def trial_curves(types: np.ndarray, h: int,
                 true_p: TypeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """A run's per-trial KL and max-error curves from its realized types,
    `h` plays per trial: entry t is `kl_divergence` and
    `max_componentwise_error` of the belief `refresh_marginal` leaves at
    trial t's end, against `true_p`, bit for bit.

    The cumulative type counts at the trial ends are one `bincount` keyed
    on (trial, type) and a `cumsum`; row t of `p_hat` divides them by the
    int (t + 1) * h, as the refresh does.
    """
    n_trials, n_types = len(types) // h, len(true_p)
    trial = np.arange(len(types)) // h
    counts = np.bincount(trial * n_types + types, minlength=n_trials * n_types)
    counts = counts.reshape(n_trials, n_types).cumsum(axis=0)
    return _curves(counts / ((np.arange(n_trials) + 1) * h)[:, None], true_p)


def _curves(p_hat: np.ndarray, true_p: TypeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """KL divergence and max componentwise error of each row of the `[n, T]`
    beliefs `p_hat` against `true_p`; a row with mass on a type `true_p`
    gives zero holds +inf.  The logarithm is `np.log` (`math.log` differs
    in the last bit on about 1 % of ratios).  Numpy sums 8 or more entries
    pairwise, so with 8 or more types a row with a zero entry is summed
    over its support alone, where a zero term cannot move the rounding.
    """
    p = true_p.probs
    support = p_hat > 0
    ratios = np.divide(p_hat, p, out=np.ones_like(p_hat), where=support & (p > 0))
    terms = np.log(ratios) * p_hat
    kl = terms.sum(axis=1)
    if len(p) >= 8:
        for t in np.flatnonzero(~support.all(axis=1)).tolist():
            kl[t] = terms[t, support[t]].sum()
    kl[(support & (p == 0)).any(axis=1)] = np.inf
    return kl, np.abs(p_hat - p).max(axis=1)
