"""Closed-form outcome laws: run metrics whose law needs no random stream.

A run pinned to classifier a against a sampled adversary plays i.i.d.
plays.  A play's type theta follows `true_p`, and its correctness sum C is
Binomial(q, acc[a, theta]) in stochastic mode and exactly
q * acc[a, theta] in expectation mode.  A play's accuracy X = C / q gives
its utilities: the learner's is X * v_learner[a, theta] - c_classifier[a]
and the adversary's (1 - X) * v_adversary[a, theta] - c_type[theta].
`overall_accuracy` and the two mean utilities of a run of P plays are the
means of these over its plays, so each has the per-play mean and 1 / P of
the per-play variance.  Unlike a comparison of a new variant with an old
one, the law needs no old code and no random stream, and a fault both
variants share still shows against it.

`empirical_accuracy(j, i, n, ...)` is the fraction correct of n
stochastic classifications, each correct with probability acc[j, i], so
it is Binomial(n, acc[j, i]) / n.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from clfgame import ClassificationMode, GameConfig, SelfPlayConfig


@dataclass(frozen=True)
class Moments:
    """The exact mean and variance of one metric."""

    mean: float
    var: float

    def z(self, observed: float) -> float:
        """The standardized distance of `observed` from the mean."""
        return (observed - self.mean) / sqrt(self.var)


def _mixture(p: np.ndarray, means: np.ndarray, variances: np.ndarray) -> Moments:
    """Moments of a value whose law given type theta has `means[theta]` and
    `variances[theta]`, with theta drawn from `p`."""
    mean = float(p @ means)
    return Moments(mean, float(p @ (variances + means ** 2) - mean ** 2))


def pinned_run_moments(cfg: GameConfig, run: SelfPlayConfig,
                       classifier: int) -> dict[str, Moments]:
    """The exact moments of `overall_accuracy`, `mean_learner_utility` and
    `mean_adversary_utility` of `self_play(cfg, run, classifier)` under a
    sampled adversary, keyed by the `SelfPlayResult` field."""
    run = run.resolved(cfg)
    payoff, p = cfg.payoff, run.true_p.probs
    acc = cfg.accuracy.acc[classifier]
    var_x = (acc * (1.0 - acc) / run.q
             if run.classification_mode is ClassificationMode.STOCHASTIC
             else np.zeros_like(acc))
    v_learner, v_adversary = payoff.v_learner[classifier], payoff.v_adversary[classifier]
    per_play = {
        "overall_accuracy": _mixture(p, acc, var_x),
        "mean_learner_utility": _mixture(
            p, acc * v_learner - payoff.c_classifier[classifier], v_learner ** 2 * var_x),
        "mean_adversary_utility": _mixture(
            p, (1.0 - acc) * v_adversary - payoff.c_type, v_adversary ** 2 * var_x),
    }
    n_plays = run.n_trials * run.h
    return {name: Moments(m.mean, m.var / n_plays) for name, m in per_play.items()}


def empirical_accuracy_moments(acc: float, n: int) -> Moments:
    """The exact moments of `empirical_accuracy` over n samples of a cell
    of accuracy `acc`: those of Binomial(n, acc) / n."""
    return Moments(acc, acc * (1.0 - acc) / n)
