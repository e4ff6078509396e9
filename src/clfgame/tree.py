"""Repeated-game tree: plays, traversal, best-child selection and rollout.

The learner and adversary move alternately (learner first); a pair of moves
is one game instance.  A traversal descends the tree along best children
where it is fully expanded, expands the frontier by one node otherwise, and
finishes with a rollout whose terminal performs an actual play of the game.
Every play's realized (classifier, type) pair is logged on the search
context so the caller can feed belief updates from realized plays only,
never from counterfactual branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .belief import BeliefState
from .game import (
    GameConfig,
    Strategy,
    UtilityPair,
    pure_learner_utilities,
)
from .oracle import ClassificationMode, RandomSource, classify, generate_queries
from .selection import (
    NodeStats,
    SelectionMethod,
    bne_select,
    ucb_select_adversary,
    ucb_select_learner,
)

if TYPE_CHECKING:
    from .selfplay import SelfPlayConfig

#: Keeps rollout move weights strictly positive when all utilities tie.
ROLLOUT_SHIFT_EPS = 1e-6


class Mover(Enum):
    LEARNER = "learner"
    ADVERSARY = "adversary"

    def other(self) -> "Mover":
        return Mover.ADVERSARY if self is Mover.LEARNER else Mover.LEARNER


class AdversaryMode(str, Enum):
    """How the adversary's type is realized in a play: drawn from its actual
    distribution, or best-responding to the learner's observed strategy."""

    SAMPLED = "sampled"
    BEST_RESPONSE = "best_response"


class ExpansionState(Enum):
    UNVISITED = "unvisited"
    VISITED = "visited"
    FULLY_EXPANDED = "fully_expanded"


class GameTreeNode:
    """One move point in the alternating game tree."""

    __slots__ = ("depth", "mover", "incoming_action", "visit_count",
                 "value_learner", "value_adversary", "children", "expansion_state")

    def __init__(self, depth: int, mover: Mover,
                 incoming_action: Optional[int] = None):
        self.depth = depth
        self.mover = mover
        self.incoming_action = incoming_action
        self.visit_count = 0
        self.value_learner = 0.0
        self.value_adversary = 0.0
        self.children: dict[int, GameTreeNode] = {}
        self.expansion_state = ExpansionState.UNVISITED

    @property
    def value_sum(self) -> UtilityPair:
        return UtilityPair(self.value_learner, self.value_adversary)

    def add_value(self, value: UtilityPair) -> None:
        self.value_learner += value.u_learner
        self.value_adversary += value.u_adversary

    def expand(self, cfg: GameConfig) -> None:
        """Create one child per action available to this node's mover."""
        n_actions = cfg.n_classifiers if self.mover is Mover.LEARNER else cfg.n_types
        self.children = {
            a: GameTreeNode(self.depth + 1, self.mover.other(), incoming_action=a)
            for a in range(n_actions)
        }
        self.expansion_state = ExpansionState.FULLY_EXPANDED

    def __repr__(self) -> str:
        return (f"GameTreeNode(depth={self.depth}, mover={self.mover.name}, "
                f"visits={self.visit_count}, state={self.expansion_state.name})")


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
        return int(np.argmax(self.chosen_strategy.probs))


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
    """Everything a traversal needs: game config, run parameters, the
    learner's current belief, the random stream, play-level statistics and
    the log of realized plays."""

    cfg: GameConfig
    run: "SelfPlayConfig"
    belief: BeliefState
    rng: RandomSource
    stats: PlayStats
    plays: list[PlayRecord] = field(default_factory=list)


#: `Generator.choice`'s tolerance on the sum of its probabilities.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _choice_cdf(weights: np.ndarray, total: float) -> np.ndarray:
    """The CDF `Generator.choice(len(weights), p=weights / total)` samples.

    Built with choice's own arithmetic, so `cdf.searchsorted(u,
    side="right")` on the double u that choice would draw returns choice's
    index.  Raises ValueError where choice does: on NaN or negative
    probabilities, or ones that do not sum to one.
    """
    p = weights / total
    if not p.min() >= 0.0:  # NaN compares false
        raise ValueError(f"probabilities must be non-negative, not NaN: {p}")
    cdf = p.cumsum()
    if abs(cdf[-1] - 1.0) > _CHOICE_ATOL:
        raise ValueError(f"probabilities do not sum to 1: {p}")
    cdf /= cdf[-1]
    return cdf


def proportional_choice(rng: RandomSource, weights: np.ndarray) -> int:
    """Draw an index with probability proportional to its weight.

    Zero-weight entries are never drawn; an all-zero vector falls back to a
    uniform draw.  The draw is the one `Generator.choice(p=weights / total)`
    makes, one `random()` double on choice's CDF, with choice's errors, so
    seeds reproduce the reports of code that called choice directly.
    """
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
    for the q classifiers (on the strategy's `proportional_choice` CDF),
    then one batch `classify` call for correctness.  These are the doubles
    the per-query loop of q `proportional_choice` and q `classify` calls
    drew, so a seed reproduces that loop's reports byte for byte.
    """
    queries = generate_queries(theta, run.q, rng)
    # a Strategy is a validated distribution, so its total is positive
    cdf = _choice_cdf(strategy.probs, strategy.probs.sum())
    chosen = cdf.searchsorted(rng.generator.random(len(queries)), side="right")
    correct = classify(chosen, queries[0], cfg, run.classification_mode, rng)
    payoff = cfg.payoff
    u_learner = float(np.mean(
        correct * payoff.v_learner[chosen, theta] - payoff.c_classifier[chosen]
    ))
    u_adversary = float(np.mean(
        (1.0 - correct) * payoff.v_adversary[chosen, theta] - payoff.c_type[theta]
    ))
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
        theta = proportional_choice(rng, run.true_p.probs)
    elif br_type is not None:
        theta = br_type
    else:
        theta = ucb_select_adversary(stats.adversary, run.ucb_c)

    record = play_batch(strategy, int(theta), cfg, run, rng)
    stats.learner.record(record.chosen_action, record.utilities.u_learner)
    stats.adversary.record(record.realized_type, record.utilities.u_adversary)
    return record


def _terminal_play(ctx: SearchContext) -> UtilityPair:
    record = game_play(ctx.belief, ctx.cfg, ctx.run, ctx.rng, ctx.stats)
    ctx.plays.append(record)
    return record.utilities


def select_best_child(node: GameTreeNode, ctx: SearchContext) -> GameTreeNode:
    """Best child under the configured rule.

    BNE: the child whose incoming action matches the best response for this
    node's mover.  UCB: score the children's own visit counts and
    accumulated value sums (each mover reads its own utility component).
    """
    if node.expansion_state is not ExpansionState.FULLY_EXPANDED:
        raise RuntimeError("select_best_child requires a fully expanded node")
    if ctx.run.selection is SelectionMethod.BNE:
        strategy, br_type = bne_select(ctx.belief.p_hat, ctx.cfg)
        action = int(np.argmax(strategy.probs)) if node.mover is Mover.LEARNER else br_type
        return node.children[action]
    actions = sorted(node.children)
    stats = NodeStats(
        parent_visits=node.visit_count,
        action_visits=np.array([node.children[a].visit_count for a in actions]),
        action_value_sums=np.array([
            node.children[a].value_learner if node.mover is Mover.LEARNER
            else node.children[a].value_adversary
            for a in actions
        ]),
    )
    if node.mover is Mover.LEARNER:
        return node.children[actions[ucb_select_learner(stats, ctx.run.ucb_c)]]
    return node.children[actions[ucb_select_adversary(stats, ctx.run.ucb_c)]]


def rollout(node: GameTreeNode, ctx: SearchContext) -> UtilityPair:
    """Walk from a node to the cutoff depth and play the game there.

    Learner moves are drawn proportionally to the immediate expected
    utilities of the pure strategies under the current belief (shifted
    positive, since proportional selection is undefined for negative
    utilities); adversary moves are drawn from the opponent model, i.e. the
    actual type distribution, or the belief when configured.  The walk
    touches no tree state; the terminal play's value is returned unchanged.
    """
    run = ctx.run
    depth, mover = node.depth, node.mover
    while depth < run.h:
        # The drawn move fixes the walked path only; the terminal play is
        # self-contained, so no per-step utility is accumulated.
        if mover is Mover.LEARNER:
            utilities = pure_learner_utilities(ctx.belief.p_hat, ctx.cfg)
            weights = utilities - utilities.min() + ROLLOUT_SHIFT_EPS
            _ = proportional_choice(ctx.rng, weights)
        else:
            model = ctx.belief.p_hat if run.rollout_uses_belief else run.true_p
            _ = proportional_choice(ctx.rng, model.probs)
        depth += 1
        mover = mover.other()
    return _terminal_play(ctx)


def tree_traverse(node: GameTreeNode, ctx: SearchContext) -> UtilityPair:
    """One traversal: descend, expand or roll out, then backtrack the value.

    At the cutoff depth the node realizes a play and returns its utilities.
    A fully expanded node recurses into its best child; a visited node
    generates all children and rolls out from a uniformly random one; an
    unvisited node rolls out from itself.  The returned value is added into
    every node the traversal passed through.
    """
    if node.depth == ctx.run.h:
        value = _terminal_play(ctx)
        node.add_value(value)
        node.visit_count += 1
        return value

    state = node.expansion_state
    if state is ExpansionState.FULLY_EXPANDED:
        child = select_best_child(node, ctx)
        value = tree_traverse(child, ctx)
    elif state is ExpansionState.VISITED:
        node.expand(ctx.cfg)
        actions = sorted(node.children)
        child = node.children[actions[int(ctx.rng.generator.integers(len(actions)))]]
        value = rollout(child, ctx)
        child.add_value(value)
        child.visit_count += 1
        child.expansion_state = ExpansionState.VISITED
    else:
        value = rollout(node, ctx)
        node.expansion_state = ExpansionState.VISITED

    node.add_value(value)
    node.visit_count += 1
    return value
