"""Plays of the repeated game.

A play is one game instance: the learner picks a strategy with the
configured selection rule, the adversary's type is realized, and a batch
of q queries of that type is answered.  A query is its type id, so a play
draws only what decides an outcome: the type (when sampled), the q
classifiers and, in stochastic mode, their q correctness draws, all from
one `numpy.random.Generator`.

A run writes its plays into one `Plays` record, one row per play.
`tree_traverse` is one self-play step: it realizes a play with
`game_play` and counts the play's (classifier, type) pair into the belief.
Under UCB selection a play scores the belief's counts and the run's two
utility-sum lists, which `game_play` adds to.  Under BNE selection the
learner's best response depends on the belief's marginal only, which
changes once per trial, at the refresh; `self_play` computes it at the
start of each trial and `game_play` takes it from its caller.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .belief import BeliefState, record_observation
from .game import AdversaryTypeId, GameConfig, Strategy, TypeDistribution
from .oracle import classify, generate_queries
from .selection import SelectionMethod, ucb_select_adversary, ucb_select_learner

if TYPE_CHECKING:
    from .selfplay import SelfPlayConfig


class AdversaryMode(str, Enum):
    """How the adversary's type is realized in a play: drawn from its actual
    distribution, or best-responding to the learner's observed strategy."""

    SAMPLED = "sampled"
    BEST_RESPONSE = "best_response"


@dataclass(frozen=True)
class Plays:
    """A run's plays as arrays, one row per play.

    Row p holds the learner's chosen action (the strategy's argmax), the
    realized type, the q per-query classifiers and correctness values, and
    the two mean-per-query utilities.  `play_batch` writes one row.
    """

    action: np.ndarray       # [P] int64
    type: np.ndarray         # [P] int64
    classifier: np.ndarray   # [P, q] int64
    correct: np.ndarray      # [P, q] float64
    u_learner: np.ndarray    # [P] float64
    u_adversary: np.ndarray  # [P] float64

    @classmethod
    def empty(cls, n_plays: int, q: int) -> "Plays":
        """Unwritten rows for `n_plays` plays of q queries each."""
        return cls(np.empty(n_plays, np.int64), np.empty(n_plays, np.int64),
                   np.empty((n_plays, q), np.int64), np.empty((n_plays, q)),
                   np.empty(n_plays), np.empty(n_plays))

    def __len__(self) -> int:
        return len(self.action)


def proportional_choice(rng: np.random.Generator,
                        dist: Strategy | TypeDistribution) -> int:
    """Draw an index of `dist` with probability equal to its mass.

    Zero-mass entries are never drawn.  The draw is one `random()` double
    searched on the distribution's cached `cdf`, which is the draw
    `Generator.choice(len(dist), p=dist.probs)` makes.  The search is
    `bisect_right` on the CDF's Python floats: it returns the index
    `cdf.searchsorted(u, side="right")` does, without numpy's per-call cost
    on a vector of a few entries.
    """
    return bisect_right(dist.cdf.tolist(), rng.random())


def play_batch(strategy: Strategy, theta: int, cfg: GameConfig,
               run: "SelfPlayConfig", rng: np.random.Generator,
               plays: Plays, p: int) -> tuple[float, float]:
    """Send one batch of q type-theta queries against a strategy, write the
    play into row `p` of `plays` and return its (learner, adversary)
    utilities.

    Each query is answered by a classifier drawn from the strategy; both
    sides receive mean-per-query utilities so results are invariant to the
    batch size.

    The draw order is pinned: one `random(q)` call for the q classifiers,
    searched on the strategy's cached `cdf` (the CDF `proportional_choice`
    draws on), then one `classify` call for correctness.  These are the
    doubles a per-query loop of q `proportional_choice` and q single-query
    classifications drew.  Each mean is `sum() / q`, which is how `np.mean`
    computes a float64 mean, so the utilities are bit for bit the same.
    The values are gathered with `take` from the payoff's cached per-type
    rows, the entries `v[chosen, theta]` would index.
    """
    q = run.q
    queries = generate_queries(theta, q)
    chosen = strategy.cdf.searchsorted(rng.random(q), side="right")
    correct = classify(chosen, queries, cfg, run.classification_mode, rng)
    payoff = cfg.payoff
    v_learner, v_adversary, c_type = payoff.by_type[theta]
    u_learner = float((
        correct * v_learner.take(chosen) - payoff.c_classifier[chosen]
    ).sum() / q)
    u_adversary = float((
        (1.0 - correct) * v_adversary.take(chosen) - c_type
    ).sum() / q)
    plays.action[p] = strategy.argmax
    plays.type[p] = theta
    plays.classifier[p] = chosen
    plays.correct[p] = correct
    plays.u_learner[p] = u_learner
    plays.u_adversary[p] = u_adversary
    return u_learner, u_adversary


def game_play(cfg: GameConfig, run: "SelfPlayConfig", rng: np.random.Generator,
              belief: BeliefState, sums: tuple[list[float], list[float]],
              best_response: Optional[tuple[Strategy, AdversaryTypeId]],
              plays: Plays, p: int) -> tuple[float, float]:
    """Realize one game instance into row `p` of `plays` and return its
    (learner, adversary) utilities.

    The learner plays `best_response` (BNE selection; the caller computes
    it with `bne_select` from the belief) or picks a classifier by UCB over
    the belief's action counts and `sums[0]`.  The adversary's type is
    sampled from its actual distribution or best-responds to the observed
    strategy (by UCB over the type counts and `sums[1]` under UCB
    selection).  The utilities are added to both movers' sums.
    """
    if run.selection is SelectionMethod.BNE:
        strategy, br_type = best_response
    else:
        action = ucb_select_learner(belief.action_counts.tolist(), sums[0], run.ucb_c)
        strategy = Strategy.pure(action, cfg.n_classifiers)
        br_type = None

    if run.adversary_mode is AdversaryMode.SAMPLED:
        theta = proportional_choice(rng, run.true_p)
    elif br_type is not None:
        theta = br_type
    else:
        theta = ucb_select_adversary(belief.type_counts.tolist(), sums[1], run.ucb_c)

    u_learner, u_adversary = play_batch(strategy, theta, cfg, run, rng, plays, p)
    sums[0][strategy.argmax] += u_learner
    sums[1][theta] += u_adversary
    return u_learner, u_adversary


def tree_traverse(cfg: GameConfig, run: "SelfPlayConfig", rng: np.random.Generator,
                  belief: BeliefState, sums: tuple[list[float], list[float]],
                  best_response: Optional[tuple[Strategy, AdversaryTypeId]],
                  plays: Plays, p: int) -> BeliefState:
    """One self-play step: realize play `p` with `game_play` and return the
    belief with its (classifier, type) pair counted.

    The count leaves `p_hat` as it is until the trial's refresh, so every
    play of a trial sees the belief the trial started with.  The function
    keeps its name, as does this module, because the benchmark
    (`bench/tracer.py`, `bench/workloads.py`) counts `tree_traverse` calls
    as one per play and times the `tree` layer by them.
    """
    game_play(cfg, run, rng, belief, sums, best_response, plays, p)
    return record_observation(belief, int(plays.action[p]), int(plays.type[p]))
