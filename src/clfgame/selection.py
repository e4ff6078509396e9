"""Action-selection heuristics: best response under a belief, and UCB.

Both sides pick actions with one of two rules.  `bne_select` maximizes
expected utility given the learner's current belief over adversary types
(the maximizer over mixed strategies is attained at a pure one because the
objective is linear).  The `ucb_select_*` pair scores actions by accumulated
utility plus an exploration bonus over visit counts.

The UCB score uses each action's utility *sum*, where UCB1 (Auer,
Cesa-Bianchi & Fischer, 2002) uses the *mean*.  With sums, the first action
to pull ahead tends to keep winning: against 98 % type-2 traffic with costs
[0, 0.01, 0.02], 100 seeds of the default run put 0.98 of the queries on
one classifier, but that classifier is the type-2 hardened L2 in about a
third of the runs in stochastic classification mode (near chance) and in
nearly all of them in expectation mode.  PAPER.md carries only the paper's
abstract, which does not say whether the paper scores with sums or means,
so the sum form is kept as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .game import (
    AdversaryTypeId,
    ClassifierId,
    ConfigurationError,
    GameConfig,
    Strategy,
    TypeDistribution,
    adversary_utilities,
    pure_learner_utilities,
)


class SelectionMethod(str, Enum):
    """Which rule picks actions during play."""

    BNE = "bne"
    UCB = "ucb"


@dataclass
class NodeStats:
    """Visit counts and accumulated utility sums for one mover's actions.

    `value_sums[a]` accumulates the mean-per-query utility of every play
    through action `a`, so the exploration constant works on the same scale
    regardless of batch size.
    """

    parent_visits: int
    action_visits: np.ndarray
    action_value_sums: np.ndarray

    def __post_init__(self):
        self.action_visits = np.asarray(self.action_visits, dtype=np.int64)
        self.action_value_sums = np.asarray(self.action_value_sums, dtype=float)
        if self.action_visits.shape != self.action_value_sums.shape:
            raise ConfigurationError("visit and value vectors must have equal length")
        if self.parent_visits < 0 or np.any(self.action_visits < 0):
            raise ConfigurationError("visit counts must be non-negative")
        if len(self.action_visits) and self.parent_visits < int(self.action_visits.max()):
            raise ConfigurationError("parent visits below an action's visit count")

    @classmethod
    def fresh(cls, n_actions: int) -> "NodeStats":
        return cls(0, np.zeros(n_actions, dtype=np.int64), np.zeros(n_actions))

    def record(self, action: int, value: float) -> None:
        """Fold one play's utility into the running sums."""
        self.parent_visits += 1
        self.action_visits[action] += 1
        self.action_value_sums[action] += value


def bne_select(belief: TypeDistribution, cfg: GameConfig) -> tuple[Strategy, AdversaryTypeId]:
    """Mutual best responses under the learner's belief.

    Returns the learner's utility-maximizing strategy (pure, by linearity;
    ties broken toward the lowest classifier index) and the adversary type
    that best responds to it (ties toward the lowest type index).
    """
    utilities = pure_learner_utilities(belief, cfg)
    best_action = int(np.argmax(utilities))
    strategy = Strategy.pure(best_action, cfg.n_classifiers)
    best_type = int(np.argmax(adversary_utilities(strategy, cfg)))
    return strategy, best_type


def _ucb_argmax(stats: NodeStats, c: float) -> int:
    """The UCB pick, scored on Python floats.

    The 3-4 entry vectors of a game cost no numpy calls this way, and the
    scores are bit for bit those of the numpy expression
    `value_sums + c * np.sqrt(2.0 * math.log(parent) / visits)`: each step
    is the same IEEE double operation on the same operands, and
    `math.sqrt`, like `np.sqrt`, is correctly rounded.  `index(max(...))`
    breaks ties toward the lowest index, as `np.argmax` does.
    """
    visits = stats.action_visits.tolist()
    if 0 in visits:
        # Never prefer a visited action while an unexplored one exists.
        return visits.index(0)
    if stats.parent_visits == 0:
        raise RuntimeError("all actions visited but parent visit count is zero")
    log_parent = 2.0 * math.log(stats.parent_visits)
    scores = [value + c * math.sqrt(log_parent / n)
              for value, n in zip(stats.action_value_sums.tolist(), visits)]
    return scores.index(max(scores))


def ucb_select_learner(stats: NodeStats, c: float) -> ClassifierId:
    """UCB pick over classifier actions: argmax of value sum plus
    c * sqrt(2 ln(parent visits) / action visits), unvisited first."""
    return _ucb_argmax(stats, c)


def ucb_select_adversary(stats: NodeStats, c: float) -> AdversaryTypeId:
    """UCB pick over adversary types; same scoring as the learner side."""
    return _ucb_argmax(stats, c)
