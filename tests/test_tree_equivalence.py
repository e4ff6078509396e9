"""The flat play loop realizes exactly the plays the game tree realized.

The game tree that `self_play` used to build around its plays never fed
back into them: a traversal ended in one play that read the belief, the
run-wide play statistics and the random stream, but not the node or the
path.  The tree's own draws (the expansion pick and the rollout steps) only
advanced the stream.  So did the q binary query labels each play drew and
nothing read, and the q classifier draws on the play's pure strategy, which
always gave the play's action.  This module keeps that traversal and that
play as a reference, with the tree draws, the label draws and the
classifier draws on a separate `tree_rng`, and checks that `self_play`
realizes the same plays, byte for byte.  With `tree_rng` set to the run's own stream, the reference
reproduces the selection counts the tree-based `self_play` produced, pinned
below.  The reference keeps its own per-mover play statistics
(`NodeStats`) and scores them with the numpy UCB expression, as the
tree-based loop did; `self_play` reads its visit counts off the belief.
The reference keeps its plays as records of its own, with a classifier and
a correctness value per query; `self_play` keeps one entry per play in a
`Plays` record.  Every field of every entry is compared: each reference
query's classifier with the entry's action, the reference's 1-d
correctness sum with the entry's, and the rest field by field.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest

from clfgame import (
    AdversaryMode,
    BeliefState,
    ClassificationMode,
    SelectionMethod,
    SelfPlayConfig,
    TypeDistribution,
    bne_select,
    default_config,
    kl_divergence,
    pure_learner_utilities,
    record_observation,
    refresh_marginal,
    self_play,
)
from tests.payoff_oracle import Strategy

ROLLOUT_SHIFT_EPS = 1e-6


@dataclass(frozen=True)
class PlayRecord:
    """One realized play, as the tree-based loop recorded it."""

    chosen_strategy: Strategy
    realized_type: int
    per_query_classifier: np.ndarray
    per_query_correct: np.ndarray
    u_learner: float
    u_adversary: float

    @property
    def chosen_action(self):
        return int(np.argmax(self.chosen_strategy.probs))


class NodeStats:
    """Visit counts and utility sums of one mover's actions, with a parent
    visit count of their own."""

    def __init__(self, parent_visits, action_visits, action_value_sums):
        self.parent_visits = parent_visits
        self.action_visits = np.asarray(action_visits, dtype=np.int64)
        self.action_value_sums = np.asarray(action_value_sums, dtype=float)

    @classmethod
    def fresh(cls, n_actions):
        return cls(0, np.zeros(n_actions, dtype=np.int64), np.zeros(n_actions))

    def record(self, action, value):
        self.parent_visits += 1
        self.action_visits[action] += 1
        self.action_value_sums[action] += value


def ucb_pick(stats, c):
    """The UCB pick as a numpy expression: the first unvisited action, else
    the argmax of value sum plus c * sqrt(2 ln(parent visits) / visits)."""
    unvisited = np.nonzero(stats.action_visits == 0)[0]
    if len(unvisited):
        return int(unvisited[0])
    bonus = c * np.sqrt(2.0 * math.log(stats.parent_visits) / stats.action_visits)
    return int(np.argmax(stats.action_value_sums + bonus))


class Context:
    """What a step of the tree-based loop read and wrote: the run, the
    belief, the random stream, both movers' play statistics and the log of
    realized plays."""

    def __init__(self, cfg, run, belief, rng):
        self.cfg, self.run, self.belief, self.rng = cfg, run, belief, rng
        self.learner = NodeStats.fresh(cfg.n_classifiers)
        self.adversary = NodeStats.fresh(cfg.n_types)
        self.plays = []


class Mover(Enum):
    LEARNER = "learner"
    ADVERSARY = "adversary"

    def other(self):
        return Mover.ADVERSARY if self is Mover.LEARNER else Mover.LEARNER


class Expansion(Enum):
    UNVISITED = "unvisited"
    VISITED = "visited"
    FULLY_EXPANDED = "fully_expanded"


class Node:
    def __init__(self, depth, mover):
        self.depth = depth
        self.mover = mover
        self.visit_count = 0
        self.value_learner = 0.0
        self.value_adversary = 0.0
        self.children = {}
        self.expansion_state = Expansion.UNVISITED

    def add_value(self, value):
        self.value_learner += value.u_learner
        self.value_adversary += value.u_adversary

    def expand(self, cfg):
        n_actions = cfg.n_classifiers if self.mover is Mover.LEARNER else cfg.n_types
        self.children = {a: Node(self.depth + 1, self.mover.other())
                         for a in range(n_actions)}
        self.expansion_state = Expansion.FULLY_EXPANDED


def choice(rng, probs):
    """One proportional draw, made the way the tree made it."""
    return int(rng.choice(len(probs), p=probs / probs.sum()))


def old_play_batch(strategy, theta, cfg, run, rng, side_rng):
    """`play_batch` as it was: q query labels drawn and never read, then one
    classifier draw per query on the play's pure strategy, which always
    gave its action, both on `side_rng`, then one correctness draw per
    query on `rng`."""
    side_rng.integers(0, 2, size=run.q)
    chosen = side_rng.choice(len(strategy), size=run.q, p=strategy.probs)
    p_correct = cfg.accuracy.acc[chosen, theta]
    if run.classification_mode is ClassificationMode.EXPECTATION:
        correct = p_correct
    else:
        correct = (rng.random(run.q) < p_correct).astype(float)
    payoff = cfg.payoff
    u_learner = float((
        correct * payoff.v_learner[chosen, theta] - payoff.c_classifier[chosen]
    ).sum() / run.q)
    u_adversary = float((
        (1.0 - correct) * payoff.v_adversary[chosen, theta] - payoff.c_type[theta]
    ).sum() / run.q)
    return PlayRecord(strategy, int(theta), chosen, correct, u_learner, u_adversary)


def terminal_play(ctx, tree_rng):
    """`game_play` as it was, with its label and classifier draws on
    `tree_rng`."""
    run = ctx.run
    if run.selection is SelectionMethod.BNE:
        action, br_type = bne_select(ctx.belief.p_hat, ctx.cfg)
    else:
        action = ucb_pick(ctx.learner, run.ucb_c)
        br_type = None
    strategy = Strategy.pure(action, ctx.cfg.n_classifiers)
    if run.adversary_mode is AdversaryMode.SAMPLED:
        theta = choice(ctx.rng, run.true_p.probs)
    elif br_type is not None:
        theta = br_type
    else:
        theta = ucb_pick(ctx.adversary, run.ucb_c)
    record = old_play_batch(strategy, theta, ctx.cfg, run, ctx.rng, tree_rng)
    ctx.learner.record(record.chosen_action, record.u_learner)
    ctx.adversary.record(record.realized_type, record.u_adversary)
    ctx.plays.append(record)
    return record


def select_best_child(node, ctx):
    if ctx.run.selection is SelectionMethod.BNE:
        action, br_type = bne_select(ctx.belief.p_hat, ctx.cfg)
        return node.children[action if node.mover is Mover.LEARNER else br_type]
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
    return node.children[actions[ucb_pick(stats, ctx.run.ucb_c)]]


def rollout(node, ctx, tree_rng):
    depth, mover = node.depth, node.mover
    while depth < ctx.run.h:
        if mover is Mover.LEARNER:
            utilities = pure_learner_utilities(ctx.belief.p_hat, ctx.cfg)
            weights = utilities - utilities.min() + ROLLOUT_SHIFT_EPS
            choice(tree_rng, weights)
        else:
            choice(tree_rng, ctx.run.true_p.probs)
        depth += 1
        mover = mover.other()
    return terminal_play(ctx, tree_rng)


def traverse(node, ctx, tree_rng):
    if node.depth == ctx.run.h:
        value = terminal_play(ctx, tree_rng)
        node.add_value(value)
        node.visit_count += 1
        return value
    state = node.expansion_state
    if state is Expansion.FULLY_EXPANDED:
        value = traverse(select_best_child(node, ctx), ctx, tree_rng)
    elif state is Expansion.VISITED:
        node.expand(ctx.cfg)
        actions = sorted(node.children)
        child = node.children[actions[int(tree_rng.integers(len(actions)))]]
        value = rollout(child, ctx, tree_rng)
        child.add_value(value)
        child.visit_count += 1
        child.expansion_state = Expansion.VISITED
    else:
        value = rollout(node, ctx, tree_rng)
        node.expansion_state = Expansion.VISITED
    node.add_value(value)
    node.visit_count += 1
    return value


def reference_self_play(cfg, run, shared_stream):
    """The tree-based self-play loop.  Its tree, label and classifier draws
    come from the run's own stream when `shared_stream` is set, else from a
    separate one."""
    run = run.resolved(cfg)
    rng = np.random.default_rng(run.seed)
    tree_rng = rng if shared_stream else np.random.default_rng(run.seed + 1_000_003)
    belief = BeliefState.fresh(cfg.n_classifiers, cfg.n_types)
    ctx = Context(cfg, run, belief, rng)
    kl_curve = []
    for _ in range(run.n_trials):
        root = Node(0, Mover.LEARNER)
        trial_start = len(ctx.plays)
        for _ in range(run.traversals_per_trial):
            traverse(root, ctx, tree_rng)
        for rec in ctx.plays[trial_start:]:
            record_observation(belief, rec.chosen_action, rec.realized_type)
        refresh_marginal(belief)
        kl_curve.append(kl_divergence(belief.p_hat, run.true_p))
    return ctx.plays, selection_counts(ctx.plays, cfg), kl_curve


def selection_counts(plays, cfg):
    counts = np.zeros((cfg.n_types, cfg.n_classifiers), dtype=np.int64)
    for rec in plays:
        counts[rec.realized_type] += np.bincount(rec.per_query_classifier,
                                                 minlength=cfg.n_classifiers)
    return counts


def play_bytes(rec):
    """The bytes of every field of a reference play, laid out as `row_bytes`
    lays out an entry: its per-query classifiers, and its per-query
    correctness reduced by a 1-d `sum`.  Plays under UCB and BNE are pure,
    so the action is the whole strategy."""
    n_classifiers = len(rec.chosen_strategy)
    assert rec.chosen_strategy.probs.tobytes() == \
        Strategy.pure(rec.chosen_action, n_classifiers).probs.tobytes()
    return (np.int64(rec.chosen_action).tobytes(), np.int64(rec.realized_type).tobytes(),
            rec.per_query_classifier.tobytes(), rec.per_query_correct.sum().tobytes(),
            np.float64(rec.u_learner).tobytes(), np.float64(rec.u_adversary).tobytes())


def row_bytes(plays, p, q):
    """The bytes of every field of entry p of a `Plays` record of q
    queries per play, whose q queries were all answered by its action."""
    return (plays.action[p].tobytes(), plays.type[p].tobytes(),
            np.full(q, plays.action[p], dtype=np.int64).tobytes(), plays.correct[p].tobytes(),
            plays.u_learner[p].tobytes(), plays.u_adversary[p].tobytes())


COSTS = [0.0, 0.01, 0.02]
GRID = [
    (seed, selection, adversary, mode, h)
    for seed in range(24)
    for selection in SelectionMethod
    for adversary in AdversaryMode
    for mode in ClassificationMode
    for h in (1, 4)
]


def grid_run(seed, selection, adversary, mode, h):
    return SelfPlayConfig(h=h, n_trials=4, q=3, selection=selection,
                          adversary_mode=adversary, classification_mode=mode,
                          true_p=TypeDistribution(np.array([0.1, 0.2, 0.3, 0.4])),
                          seed=seed)


class TestFlatLoopMatchesTree:
    def test_plays_counts_and_kl_are_byte_identical(self):
        cfg = default_config(c_classifier=COSTS)
        for config in GRID:
            run = grid_run(*config)
            plays, counts, kl_curve = reference_self_play(cfg, run, shared_stream=False)
            res = self_play(cfg, run)
            assert [row_bytes(res.plays, p, run.q) for p in range(len(res.plays))] == \
                [play_bytes(r) for r in plays], config
            np.testing.assert_array_equal(res.selection_counts, counts)
            assert res.per_trial_kl.tobytes() == np.array(kl_curve).tobytes(), config

    # selection_counts of the tree-based self_play, run before the tree
    # was replaced by the flat loop
    @pytest.mark.parametrize("seed, selection, expected", [
        (11, SelectionMethod.UCB, [[15, 0, 0], [15, 5, 0], [35, 0, 0], [45, 0, 5]]),
        (11, SelectionMethod.BNE, [[0, 5, 20], [0, 0, 30], [0, 5, 20], [0, 10, 30]]),
        (12, SelectionMethod.UCB, [[0, 0, 10], [0, 0, 40], [5, 0, 30], [5, 5, 25]]),
        (12, SelectionMethod.BNE, [[0, 0, 5], [0, 0, 35], [0, 0, 25], [0, 0, 55]]),
    ])
    def test_reference_on_shared_stream_reproduces_tree(self, seed, selection, expected):
        cfg = default_config(c_classifier=COSTS)
        run = SelfPlayConfig(h=4, n_trials=6, q=5, selection=selection,
                             true_p=TypeDistribution(np.array([0.1, 0.2, 0.3, 0.4])),
                             seed=seed)
        _, counts, _ = reference_self_play(cfg, run, shared_stream=True)
        assert counts.tolist() == expected
