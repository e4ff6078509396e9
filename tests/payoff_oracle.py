"""Both sides' payoffs against a mixed strategy: the reference the package's
pure-strategy tables are checked against.

The package plays pure strategies only and writes each payoff once, per
(classifier, type) pair, in `GameConfig`'s cached tables.  This module keeps
the paper's formulas in their mixed-strategy form, one function per side,
so a test can evaluate them on the pure strategy that matches a table entry
and compare.  Tests import it (`from tests.payoff_oracle import ...`, with
the repository root on the path); the package and the demos never do.
"""

from dataclasses import dataclass

import numpy as np

from clfgame import ConfigurationError, GameConfig, TypeDistribution, pure_learner_utilities
from clfgame.game import _as_readonly_array, _check_index, _one_hot, _validate_simplex


@dataclass(frozen=True, eq=False)
class Strategy:
    """Probability distribution over the learner's classifier pool."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_readonly_array(self.probs, 1, "Strategy"))
        _validate_simplex(self.probs, "Strategy")

    @classmethod
    def pure(cls, action: int, n_classifiers: int) -> "Strategy":
        """Strategy placing all mass on one classifier."""
        return cls(_one_hot(action, n_classifiers, "action"))

    def __len__(self) -> int:
        return len(self.probs)


def _check_strategy(s: Strategy, cfg: GameConfig) -> None:
    if len(s) != cfg.n_classifiers:
        raise ConfigurationError(
            f"strategy has {len(s)} entries for {cfg.n_classifiers} classifiers"
        )


def learner_utility(s: Strategy, theta: int, cfg: GameConfig) -> float:
    """Learner's expected utility against a realized adversary type.

    sum_j s(j) * (acc[j][theta] * v_learner[j][theta] - c_classifier[j]);
    linear in the strategy.
    """
    _check_strategy(s, cfg)
    _check_index(theta, cfg.n_types, "theta")
    gains = cfg.accuracy.acc[:, theta] * cfg.payoff.v_learner[:, theta]
    return float(s.probs @ (gains - cfg.payoff.c_classifier))


def expected_learner_utility(s: Strategy, belief: TypeDistribution, cfg: GameConfig) -> float:
    """Learner's utility in expectation over adversary types.

    Bilinear in (strategy, belief): the belief-weighted average of
    `learner_utility` across types.
    """
    _check_strategy(s, cfg)
    return float(s.probs @ pure_learner_utilities(belief, cfg))


def adversary_utility(s: Strategy, theta: int, cfg: GameConfig) -> float:
    """Adversary's utility for sending type-theta queries against strategy s.

    sum_j s(j) * ((1 - acc[j][theta]) * v_adversary[j][theta] - c_type[theta]).
    """
    _check_strategy(s, cfg)
    _check_index(theta, cfg.n_types, "theta")
    miss = (1.0 - cfg.accuracy.acc[:, theta]) * cfg.payoff.v_adversary[:, theta]
    return float(s.probs @ (miss - cfg.payoff.c_type[theta]))


def adversary_utilities(s: Strategy, cfg: GameConfig) -> np.ndarray:
    """Adversary utility of each type against strategy s, as a vector."""
    _check_strategy(s, cfg)
    miss = (1.0 - cfg.accuracy.acc) * cfg.payoff.v_adversary
    return s.probs @ miss - cfg.payoff.c_type
