"""Action-selection heuristics: best response under a belief, and UCB.

Both sides pick actions with one of two rules.  `bne_select` maximizes
expected utility given the learner's current belief over adversary types
(the maximizer over mixed strategies is attained at a pure one because the
objective is linear), so it returns two indices: the classifier and the
type that best responds to it.  The `ucb_select_*` pair scores actions by
accumulated utility plus an exploration bonus over visit counts.  The
visit counts are the belief's (`BeliefState.action_counts` and
`type_counts`); the sums are two lists a run keeps, one per mover, of
mean-per-query utilities, so the exploration constant works on one scale
at every batch size.

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
from enum import Enum

import numpy as np

from .game import (
    AdversaryTypeId,
    ClassifierId,
    GameConfig,
    TypeDistribution,
    pure_learner_utilities,
)


class SelectionMethod(str, Enum):
    """Which rule picks actions during play."""

    BNE = "bne"
    UCB = "ucb"


def bne_select(belief: TypeDistribution,
               cfg: GameConfig) -> tuple[ClassifierId, AdversaryTypeId]:
    """Mutual best responses under the learner's belief.

    Returns the learner's utility-maximizing classifier (a pure strategy
    maximizes, by linearity; ties broken toward the lowest classifier
    index) and the adversary type that best responds to it, read from
    `cfg.best_response_types` (ties toward the lowest type index).
    """
    action = int(np.argmax(pure_learner_utilities(belief, cfg)))
    return action, cfg.best_response_types[action]


def _ucb_argmax(visits: list[int], value_sums: list[float], c: float) -> int:
    """The UCB pick, scored on Python floats, with parent count `sum(visits)`.

    The 3-4 entry vectors of a game cost no numpy calls this way, and the
    scores are bit for bit those of the numpy expression
    `value_sums + c * np.sqrt(2.0 * math.log(parent) / visits)`: each step
    is the same IEEE double operation on the same operands, and
    `math.sqrt`, like `np.sqrt`, is correctly rounded.  `index(max(...))`
    breaks ties toward the lowest index, as `np.argmax` does.
    """
    if 0 in visits:
        # Never prefer a visited action while an unexplored one exists.
        return visits.index(0)
    log_parent = 2.0 * math.log(sum(visits))
    scores = [value + c * math.sqrt(log_parent / n)
              for value, n in zip(value_sums, visits)]
    return scores.index(max(scores))


def ucb_select_learner(visits: list[int], value_sums: list[float], c: float) -> ClassifierId:
    """UCB pick over classifier actions: argmax of value sum plus
    c * sqrt(2 ln(total visits) / action visits), unvisited first."""
    return _ucb_argmax(visits, value_sums, c)


def ucb_select_adversary(visits: list[int], value_sums: list[float], c: float) -> AdversaryTypeId:
    """UCB pick over adversary types; same scoring as the learner side."""
    return _ucb_argmax(visits, value_sums, c)
