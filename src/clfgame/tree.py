"""Plays of the repeated game.

A play is one game instance: the learner picks a classifier, its action,
with the configured selection rule, the adversary's type is realized, and
that classifier answers a batch of q queries of that type.  A query is its
type id, so a play reads one double for the type (when sampled) and, in
stochastic mode, one per query for its correctness, and is handed only
those.  Every play of a run takes that same number of doubles, so the
caller draws a block of plays' doubles with one `Generator.random((P, k))`
call and hands each play its row, the doubles k single draws would give in
the same order.

A run writes its plays into one `Plays` record, one entry per play, so its
memory grows with its plays, not its queries.  `tree_traverse` is one
self-play step: it realizes a play with `game_play` and counts the play's
(classifier, type) pair into the belief, in place.  Under UCB selection a
play scores the belief's counts and the run's two utility-sum lists, which
`game_play` adds to.  A (classifier, type) move the caller gives is played
as it is: the BNE pick `self_play` computes once per trial, or a pinned
classifier and its entry of `GameConfig.best_response_types`.  A play's
two utilities are one `take` and one `sum` on a cached utility table.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .belief import BeliefState, record_observation
from .game import AdversaryTypeId, ClassifierId, GameConfig, TypeDistribution
from .oracle import ClassificationMode, classify, generate_queries
from .selection import ucb_select_adversary, ucb_select_learner

if TYPE_CHECKING:
    from .selfplay import SelfPlayConfig


class AdversaryMode(str, Enum):
    """How the adversary's type is realized in a play: drawn from its actual
    distribution, or best-responding to the learner's observed strategy."""

    SAMPLED = "sampled"
    BEST_RESPONSE = "best_response"


@dataclass(frozen=True)
class Plays:
    """A run's plays as arrays, one entry per play, written by `play_batch`:
    the action (the classifier that answered the play's q queries), the
    realized type, the correctness sum (correct answers in stochastic
    mode, the sum of the q accuracies in expectation mode) and the two
    mean-per-query utilities."""

    action: np.ndarray       # [P] int64
    type: np.ndarray         # [P] int64
    correct: np.ndarray      # [P] float64
    u_learner: np.ndarray    # [P] float64
    u_adversary: np.ndarray  # [P] float64

    @classmethod
    def empty(cls, n_plays: int) -> "Plays":
        """Unwritten entries for `n_plays` plays."""
        return cls(np.empty(n_plays, np.int64), np.empty(n_plays, np.int64),
                   np.empty(n_plays), np.empty(n_plays), np.empty(n_plays))

    def __len__(self) -> int:
        return len(self.action)


def proportional_choice(u: float, dist: TypeDistribution) -> int:
    """The type the uniform double `u` draws from `dist`: each type is
    drawn with probability equal to its mass.

    Zero-mass types are never drawn.  The index is `u` searched on the
    distribution's cached `cdf`, which is the draw
    `Generator.choice(len(dist), p=dist.probs)` makes from the double it
    would draw.  The search is `bisect_right` on the CDF's Python floats:
    it returns the index `cdf.searchsorted(u, side="right")` does, without
    numpy's per-call cost on a vector of a few entries.
    """
    return bisect_right(dist.cdf.tolist(), u)


def play_batch(action: ClassifierId, theta: int, cfg: GameConfig,
               run: "SelfPlayConfig", u: np.ndarray,
               plays: Plays, p: int) -> tuple[float, float]:
    """Send one batch of q type-theta queries to classifier `action`, write
    the play into entry `p` of `plays` and return its (learner, adversary)
    utilities, both means per query so results are invariant to q.

    `u` holds the play's uniform doubles after its type's: in stochastic
    mode the q doubles `classify` compares with the accuracies, else none.
    Each query's utility term is a column of the type's cached utility
    table: column `2*action + b` of `cfg.realized_utilities` for
    correctness b, column `action` of `cfg.expected_utilities` in
    expectation mode.  Those are the terms a per-query loop computed, in
    query order.  Each row of the taken [2, q] array is contiguous, so its
    `sum` is the pairwise sum a 1-d `sum()` makes, and each mean, that sum
    `/ q` as `np.mean` computes a float64 mean (a correctly rounded
    division, in Python as in numpy), is bit for bit the loop's.
    """
    q = run.q
    queries = generate_queries(theta, q)
    correct = classify(action, queries, cfg, run.classification_mode, u)
    if run.classification_mode is ClassificationMode.STOCHASTIC:
        pair = cfg.realized_utilities[theta][:, 2 * action:2 * action + 2]
        terms, n_correct = pair.take(correct, axis=1), np.count_nonzero(correct)
    else:
        column = cfg.expected_utilities[theta][:, action:action + 1]
        terms, n_correct = column.repeat(q, axis=1), correct.sum()
    learner_sum, adversary_sum = terms.sum(axis=1).tolist()
    u_learner, u_adversary = learner_sum / q, adversary_sum / q
    plays.action[p] = action
    plays.type[p] = theta
    plays.correct[p] = n_correct
    plays.u_learner[p] = u_learner
    plays.u_adversary[p] = u_adversary
    return u_learner, u_adversary


def game_play(cfg: GameConfig, run: "SelfPlayConfig", u: np.ndarray,
              belief: BeliefState, sums: tuple[list[float], list[float]],
              best_response: Optional[tuple[ClassifierId, AdversaryTypeId]],
              plays: Plays, p: int) -> tuple[float, float]:
    """Realize one game instance from its row `u` of uniform doubles into
    entry `p` of `plays` and return its (learner, adversary) utilities.

    The learner plays the classifier of `best_response` when it is given
    (a BNE pick the caller computes with `bne_select` from the belief, or
    a pinned classifier), else picks a classifier by UCB over the belief's
    action counts and `sums[0]`.  The adversary's type is sampled from its
    actual distribution with the row's first double, or best-responds to
    the learner: the type of `best_response`, or by UCB over the type
    counts and `sums[1]`.  The rest of the row is the batch's
    (`play_batch`).  The utilities are added to both movers' sums.
    """
    if best_response is not None:
        action, br_type = best_response
    else:
        action = ucb_select_learner(belief.action_counts.tolist(), sums[0], run.ucb_c)
        br_type = None

    if run.adversary_mode is AdversaryMode.SAMPLED:
        theta = proportional_choice(u.item(0), run.true_p)
        u = u[1:]
    elif br_type is not None:
        theta = br_type
    else:
        theta = ucb_select_adversary(belief.type_counts.tolist(), sums[1], run.ucb_c)

    u_learner, u_adversary = play_batch(action, theta, cfg, run, u, plays, p)
    sums[0][action] += u_learner
    sums[1][theta] += u_adversary
    return u_learner, u_adversary


def tree_traverse(cfg: GameConfig, run: "SelfPlayConfig", u: np.ndarray,
                  belief: BeliefState, sums: tuple[list[float], list[float]],
                  best_response: Optional[tuple[ClassifierId, AdversaryTypeId]],
                  plays: Plays, p: int) -> None:
    """One self-play step: realize play `p` from its row `u` of uniform
    doubles with `game_play` and count its (classifier, type) pair into
    `belief`.

    The count leaves `p_hat` as it is until the trial's refresh, so every
    play of a trial sees the marginal the trial started with.  The function
    keeps its name, as does this module, because the benchmark
    (`bench/tracer.py`, `bench/workloads.py`) counts `tree_traverse` calls
    as one per play and times the `tree` layer by them.
    """
    game_play(cfg, run, u, belief, sums, best_response, plays, p)
    record_observation(belief, int(plays.action[p]), int(plays.type[p]))
