"""Plays of the repeated game.

A play is one game instance: the learner picks a strategy with the
configured selection rule, the adversary's type is realized, and a batch
of q queries of that type is answered.  A query is its type id, so a play
draws only what decides an outcome: the type (when sampled), the q
classifiers and, in stochastic mode, their q correctness draws, all from
one `numpy.random.Generator`.  `tree_traverse` realizes one play and logs
it on the search context, so the caller feeds belief updates from realized
plays only.

Under BNE selection the learner's best response depends on the belief's
marginal only, which changes once per trial, at the refresh.  `self_play`
computes it with `bne_select` at the start of each trial and keeps it on
the search context; `game_play` computes it itself only when it is called
without one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .belief import BeliefState
from .game import AdversaryTypeId, GameConfig, Strategy, TypeDistribution, UtilityPair
from .oracle import classify, generate_queries
from .selection import (
    NodeStats,
    SelectionMethod,
    bne_select,
    ucb_select_adversary,
    ucb_select_learner,
)

if TYPE_CHECKING:
    from .selfplay import SelfPlayConfig


class AdversaryMode(str, Enum):
    """How the adversary's type is realized in a play: drawn from its actual
    distribution, or best-responding to the learner's observed strategy."""

    SAMPLED = "sampled"
    BEST_RESPONSE = "best_response"


@dataclass(frozen=True)
class PlayRecord:
    """Outcome of one realized game instance (a batch of q queries)."""

    chosen_strategy: Strategy
    realized_type: int
    per_query_classifier: np.ndarray
    per_query_correct: np.ndarray
    utilities: UtilityPair

    @property
    def chosen_action(self) -> int:
        return self.chosen_strategy.argmax


@dataclass
class PlayStats:
    """Running per-action statistics across the plays of a run; these are
    the visit counts and utility sums the UCB rule scores against."""

    learner: NodeStats
    adversary: NodeStats

    @classmethod
    def fresh(cls, cfg: GameConfig) -> "PlayStats":
        return cls(NodeStats.fresh(cfg.n_classifiers), NodeStats.fresh(cfg.n_types))


@dataclass
class SearchContext:
    """Everything a play step needs: game config, run parameters, the
    learner's current belief, the random stream, play-level statistics and
    the log of realized plays.

    `best_response` is None or `bne_select(belief.p_hat, cfg)` for the
    current belief; `self_play` sets it at the start of each BNE trial.
    """

    cfg: GameConfig
    run: "SelfPlayConfig"
    belief: BeliefState
    rng: np.random.Generator
    stats: PlayStats
    plays: list[PlayRecord] = field(default_factory=list)
    best_response: Optional[tuple[Strategy, AdversaryTypeId]] = None


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
               run: "SelfPlayConfig", rng: np.random.Generator) -> PlayRecord:
    """Send one batch of q type-theta queries against a strategy.

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
    return PlayRecord(
        chosen_strategy=strategy,
        realized_type=int(theta),
        per_query_classifier=chosen,
        per_query_correct=correct,
        utilities=UtilityPair(u_learner, u_adversary),
    )


def game_play(belief: BeliefState, cfg: GameConfig, run: "SelfPlayConfig",
              rng: np.random.Generator, stats: PlayStats,
              best_response: Optional[tuple[Strategy, AdversaryTypeId]] = None,
              ) -> PlayRecord:
    """Realize one game instance.

    The learner picks its strategy with the configured selection rule (best
    response under the current belief, or UCB over the running play
    statistics); the adversary's type is sampled from its actual
    distribution or best-responds to the observed strategy.  The realized
    utilities are folded back into the play statistics.  `best_response`
    is `bne_select(belief.p_hat, cfg)` if the caller already holds it; it
    is computed here otherwise.
    """
    if run.selection is SelectionMethod.BNE:
        strategy, br_type = best_response or bne_select(belief.p_hat, cfg)
    else:
        action = ucb_select_learner(stats.learner, run.ucb_c)
        strategy = Strategy.pure(action, cfg.n_classifiers)
        br_type = None

    if run.adversary_mode is AdversaryMode.SAMPLED:
        theta = proportional_choice(rng, run.true_p)
    elif br_type is not None:
        theta = br_type
    else:
        theta = ucb_select_adversary(stats.adversary, run.ucb_c)

    record = play_batch(strategy, int(theta), cfg, run, rng)
    stats.learner.record(record.chosen_action, record.utilities.u_learner)
    stats.adversary.record(record.realized_type, record.utilities.u_adversary)
    return record


def tree_traverse(ctx: SearchContext) -> UtilityPair:
    """Realize one play and log its record on `ctx.plays`.

    This is the whole of a self-play step: one `game_play` call on the
    context's belief, best response, play statistics and random stream.
    It replaces a game-tree traversal whose descent and random-walk draws
    never reached the play.  The name stays, as does this module's, because
    the benchmark (`bench/tracer.py`, `bench/workloads.py`) counts
    `tree_traverse` calls as one per play and times the `tree` layer by
    them.
    """
    record = game_play(ctx.belief, ctx.cfg, ctx.run, ctx.rng, ctx.stats,
                       ctx.best_response)
    ctx.plays.append(record)
    return record.utilities
