"""Plays of the repeated game.

A play is one game instance: the learner picks a strategy with the
configured selection rule, the adversary's type is realized, and a batch
of q queries of that type is answered.  `tree_traverse` realizes one play
and logs it on the search context, so the caller feeds belief updates from
realized plays only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .belief import BeliefState
from .game import GameConfig, Strategy, TypeDistribution, UtilityPair, _choice_cdf
from .oracle import RandomSource, classify, generate_queries
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
    the log of realized plays."""

    cfg: GameConfig
    run: "SelfPlayConfig"
    belief: BeliefState
    rng: RandomSource
    stats: PlayStats
    plays: list[PlayRecord] = field(default_factory=list)


def proportional_choice(rng: RandomSource,
                        weights: np.ndarray | Strategy | TypeDistribution) -> int:
    """Draw an index with probability proportional to its weight.

    Zero-weight entries are never drawn; an all-zero vector falls back to a
    uniform draw.  The draw is the one `Generator.choice(p=weights / total)`
    makes, one `random()` double on choice's CDF, with choice's errors, so
    seeds reproduce the reports of code that called choice directly.

    `weights` may also be a `Strategy` or `TypeDistribution`.  Its total is
    one, so the draw is the one its `probs` array gives, but it searches the
    distribution's cached `cdf` instead of building the CDF again.
    """
    if isinstance(weights, (Strategy, TypeDistribution)):
        cdf = weights.cdf
    else:
        weights = np.asarray(weights, dtype=float)
        total = weights.sum()
        if total <= 0.0:
            return int(rng.generator.integers(len(weights)))
        cdf = _choice_cdf(weights, total)
    return int(cdf.searchsorted(rng.generator.random(), side="right"))


def play_batch(strategy: Strategy, theta: int, cfg: GameConfig,
               run: "SelfPlayConfig", rng: RandomSource) -> PlayRecord:
    """Send one batch of q type-theta queries against a strategy.

    Each query is answered by a classifier drawn from the strategy; both
    sides receive mean-per-query utilities so results are invariant to the
    batch size.

    The draw order is pinned: the query labels, then one `random(q)` call
    for the q classifiers, searched on the strategy's cached `cdf` (the CDF
    `proportional_choice` draws on), then one batch `classify` call for
    correctness.  These are the doubles the per-query loop of q
    `proportional_choice` and q `classify` calls drew, so a seed reproduces
    that loop's reports byte for byte.  The query batch is lazy: only its
    first query is built, to tell `classify` the batch's type.  Each mean is
    `sum() / q`, which is how `np.mean` computes a float64 mean, so the
    utilities are bit for bit the same.
    """
    queries = generate_queries(theta, run.q, rng)
    q = len(queries)
    chosen = strategy.cdf.searchsorted(rng.generator.random(q), side="right")
    correct = classify(chosen, queries[0], cfg, run.classification_mode, rng)
    payoff = cfg.payoff
    u_learner = float((
        correct * payoff.v_learner[chosen, theta] - payoff.c_classifier[chosen]
    ).sum() / q)
    u_adversary = float((
        (1.0 - correct) * payoff.v_adversary[chosen, theta] - payoff.c_type[theta]
    ).sum() / q)
    return PlayRecord(
        chosen_strategy=strategy,
        realized_type=int(theta),
        per_query_classifier=chosen,
        per_query_correct=correct,
        utilities=UtilityPair(u_learner, u_adversary),
    )


def game_play(belief: BeliefState, cfg: GameConfig, run: "SelfPlayConfig",
              rng: RandomSource, stats: PlayStats) -> PlayRecord:
    """Realize one game instance.

    The learner picks its strategy with the configured selection rule (best
    response under the current belief, or UCB over the running play
    statistics); the adversary's type is sampled from its actual
    distribution or best-responds to the observed strategy.  The realized
    utilities are folded back into the play statistics.
    """
    if run.selection is SelectionMethod.BNE:
        strategy, br_type = bne_select(belief.p_hat, cfg)
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
    context's belief, play statistics and random stream.  It replaces a
    game-tree traversal whose descent and random-walk draws never reached
    the play.  The name stays, as does this module's, because the benchmark
    (`bench/tracer.py`, `bench/workloads.py`) counts `tree_traverse` calls
    as one per play and times the `tree` layer by them.
    """
    record = game_play(ctx.belief, ctx.cfg, ctx.run, ctx.rng, ctx.stats)
    ctx.plays.append(record)
    return record.utilities
