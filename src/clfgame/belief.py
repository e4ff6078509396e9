"""Belief tracking over adversary types.

The learner never observes the adversary's type directly at decision time;
it accumulates (classifier played, type realized) pairs from finished plays
and summarizes them into a marginal type distribution `p_hat`.  Two update
rules define per-action type conditionals: fictitious play (per-action
empirical frequencies) and a Bayes-rule reconstruction from
action-given-type likelihoods.  Both mix into the same marginal, the
empirical type distribution; the conditionals are reported as diagnostics.
KL divergence against the adversary's actual distribution is the
convergence metric.
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
)


class UpdateRule(str, Enum):
    FICTITIOUS_PLAY = "fp"
    BAYESIAN_UPDATE = "bu"


@dataclass(frozen=True)
class BeliefState:
    """Current marginal belief plus the count statistics that feed updates.

    joint_counts[j][i] counts how often type i was realized in a play where
    the learner had selected classifier j; action_counts derives from it.
    Updates return new states, so a BeliefState can be shared freely.
    """

    p_hat: TypeDistribution
    joint_counts: np.ndarray
    update_rule: UpdateRule
    prior: TypeDistribution

    def __post_init__(self):
        counts = np.asarray(self.joint_counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ConfigurationError("joint_counts must be a 2-d matrix")
        if counts.size and counts.min() < 0:
            raise ConfigurationError("counts must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "joint_counts", counts)
        if len(self.p_hat) != counts.shape[1] or len(self.prior) != counts.shape[1]:
            raise ConfigurationError("belief dimensions do not match count matrix")

    @classmethod
    def fresh(cls, n_classifiers: int, n_types: int,
              update_rule: UpdateRule = UpdateRule.FICTITIOUS_PLAY,
              prior: TypeDistribution | None = None) -> "BeliefState":
        """Observation-free state; the belief starts at the prior
        (uniform unless one is supplied)."""
        prior = prior if prior is not None else TypeDistribution.uniform(n_types)
        return cls(
            p_hat=prior,
            joint_counts=np.zeros((n_classifiers, n_types), dtype=np.int64),
            update_rule=update_rule,
            prior=prior,
        )

    @property
    def action_counts(self) -> np.ndarray:
        """Times each classifier was selected; row sums of joint_counts."""
        return self.joint_counts.sum(axis=1)

    @property
    def total_observations(self) -> int:
        return int(self.joint_counts.sum())


def record_observation(b: BeliefState, action: ClassifierId,
                       theta: AdversaryTypeId) -> BeliefState:
    """Count one realized (classifier, type) pair; p_hat is untouched until
    `refresh_marginal` is called."""
    n_classifiers, n_types = b.joint_counts.shape
    if not 0 <= action < n_classifiers:
        raise ConfigurationError(f"classifier index {action} out of range")
    if not 0 <= theta < n_types:
        raise ConfigurationError(f"type index {theta} out of range")
    counts = b.joint_counts.copy()
    counts[action, theta] += 1
    return BeliefState(b.p_hat, counts, b.update_rule, b.prior)


def fp_conditional(b: BeliefState, action: ClassifierId) -> TypeDistribution:
    """Empirical type frequencies among plays of one classifier.

    Falls back to the prior for a classifier that was never selected.
    """
    row = b.joint_counts[action]
    total = int(row.sum())
    if total == 0:
        return b.prior
    return TypeDistribution(row / total)


def bu_conditional(b: BeliefState, action: ClassifierId) -> TypeDistribution:
    """Bayes-rule type posterior for one classifier.

    Likelihood P(action | type) is the fraction of type-i observations in
    which this classifier was the one selected; the prior over types is the
    current `p_hat`.  A zero denominator (classifier absent from every
    type's history) falls back to the prior.
    """
    type_totals = b.joint_counts.sum(axis=0)
    with np.errstate(invalid="ignore"):
        likelihood = np.where(type_totals > 0, b.joint_counts[action] / np.maximum(type_totals, 1), 0.0)
    weighted = likelihood * b.p_hat.probs
    denom = weighted.sum()
    if denom <= 0.0:
        return b.prior
    return TypeDistribution(weighted / denom)


def refresh_marginal(b: BeliefState) -> BeliefState:
    """Recompute p_hat from the counts: the empirical type distribution.

    Both update rules give this marginal.  Each defines it as the
    action-frequency-weighted mixture of per-action conditionals,
    sum_j w(j) * P(type | action j) with w(j) = n_j / N.  Under fictitious
    play P(i | j) = n_ji / n_j, so the mixture is n_i / N.  Under the Bayes
    rule, with likelihood n_ji / n_i and the count-consistent type prior
    n_i / N, the posterior is again n_ji / n_j.  (A stale p_hat as the
    prior would stall the update: the learner moves before the type is
    realized, so the likelihoods carry no information of their own.)  The
    conditionals stay available as diagnostics (`fp_conditional`,
    `bu_conditional`).  With no observations the belief stays at the prior.
    """
    type_totals = b.joint_counts.sum(axis=0)
    total = int(type_totals.sum())
    p_hat = b.prior if total == 0 else TypeDistribution(type_totals / total)
    return BeliefState(p_hat, b.joint_counts, b.update_rule, b.prior)


def kl_divergence(p_hat: TypeDistribution, p: TypeDistribution) -> float:
    """D_KL(p_hat || p) = sum_i p_hat(i) * ln(p_hat(i) / p(i)).

    Zero-probability p_hat entries contribute nothing; p_hat mass on a type
    with p(i) = 0 yields the +infinity sentinel so convergence curves stay
    plottable instead of raising.
    """
    if len(p_hat) != len(p):
        raise ConfigurationError("distributions have different lengths")
    ph, q = p_hat.probs, p.probs
    support = ph > 0
    if np.any(support & (q == 0)):
        return float("inf")
    terms = ph[support] * np.log(ph[support] / q[support])
    return float(terms.sum())


def max_componentwise_error(p_hat: TypeDistribution, p: TypeDistribution) -> float:
    """Largest per-type absolute gap; reported alongside KL."""
    if len(p_hat) != len(p):
        raise ConfigurationError("distributions have different lengths")
    return float(np.max(np.abs(p_hat.probs - p.probs)))
