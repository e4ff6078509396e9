"""Tree traversal state machine, plays, rollout and bookkeeping invariants."""

import numpy as np
import pytest

from clfgame import (
    AdversaryMode,
    BeliefState,
    ClassificationMode,
    ExpansionState,
    GameTreeNode,
    Mover,
    PayoffConfig,
    GameConfig,
    PlayStats,
    RandomSource,
    SearchContext,
    SelectionMethod,
    SelfPlayConfig,
    Strategy,
    TypeDistribution,
    UpdateRule,
    default_config,
    game_play,
    play_batch,
    proportional_choice,
    rollout,
    select_best_child,
    tree_traverse,
)


def make_ctx(cfg=None, seed=0, **run_kwargs):
    cfg = cfg or default_config()
    run_kwargs.setdefault("true_p", TypeDistribution.uniform(cfg.n_types))
    run = SelfPlayConfig(seed=seed, **run_kwargs).resolved(cfg)
    return SearchContext(
        cfg=cfg,
        run=run,
        belief=BeliefState.fresh(cfg.n_classifiers, cfg.n_types, run.update_rule),
        rng=RandomSource(seed),
        stats=PlayStats.fresh(cfg),
    )


def walk(node):
    yield node
    for child in node.children.values():
        yield from walk(child)


class TestGamePlay:
    def test_expectation_mode_pure_strategy_exact_utilities(self):
        cfg = default_config()
        ctx = make_ctx(cfg, classification_mode=ClassificationMode.EXPECTATION,
                       true_p=TypeDistribution.degenerate(0, 4))
        rec = game_play(ctx.belief, cfg, ctx.run, ctx.rng, ctx.stats)
        # UCB with fresh stats picks classifier 0; type is degenerate clean
        assert rec.chosen_action == 0
        assert rec.realized_type == 0
        assert rec.utilities.u_learner == pytest.approx(0.9392, abs=1e-12)
        assert rec.utilities.u_adversary == pytest.approx(0.0608, abs=1e-12)

    def test_certain_classifier_full_payoff(self):
        import warnings
        from clfgame import AccuracyMatrix
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            acc = AccuracyMatrix(np.ones((2, 2)))
        payoff = PayoffConfig(
            v_learner=np.full((2, 2), 0.7), v_adversary=np.ones((2, 2)),
            c_classifier=np.array([0.2, 0.0]), c_type=np.zeros(2),
        )
        cfg = GameConfig(2, 2, acc, payoff)
        ctx = make_ctx(cfg, q=1, true_p=TypeDistribution.uniform(2))
        rec = game_play(ctx.belief, cfg, ctx.run, ctx.rng, ctx.stats)
        assert rec.utilities.u_learner == pytest.approx(0.7 - 0.2, abs=1e-12)

    def test_cost_only_payoffs(self):
        cfg = default_config()
        payoff = PayoffConfig(
            v_learner=np.zeros((3, 4)), v_adversary=np.zeros((3, 4)),
            c_classifier=np.full(3, 0.05), c_type=np.full(4, 0.02),
        )
        cost_cfg = GameConfig(3, 4, cfg.accuracy, payoff)
        ctx = make_ctx(cost_cfg)
        rec = game_play(ctx.belief, cost_cfg, ctx.run, ctx.rng, ctx.stats)
        assert rec.utilities.u_learner == pytest.approx(-0.05, abs=1e-12)
        assert rec.utilities.u_adversary == pytest.approx(-0.02, abs=1e-12)

    def test_play_updates_running_stats(self):
        ctx = make_ctx()
        rec = game_play(ctx.belief, ctx.cfg, ctx.run, ctx.rng, ctx.stats)
        assert ctx.stats.learner.parent_visits == 1
        assert ctx.stats.learner.action_visits[rec.chosen_action] == 1
        assert ctx.stats.adversary.action_visits[rec.realized_type] == 1

    def test_batch_length_matches_q(self):
        ctx = make_ctx(q=7)
        rec = game_play(ctx.belief, ctx.cfg, ctx.run, ctx.rng, ctx.stats)
        assert len(rec.per_query_classifier) == 7
        assert len(rec.per_query_correct) == 7

    def test_best_response_adversary_targets_weak_spot(self):
        cfg = default_config()
        ctx = make_ctx(cfg, adversary_mode=AdversaryMode.BEST_RESPONSE,
                       selection=SelectionMethod.BNE)
        rec = game_play(ctx.belief, cfg, ctx.run, ctx.rng, ctx.stats)
        # uniform belief best response is the most hardened classifier; the
        # strongest perturbation then maximizes its miss probability
        assert rec.chosen_action == 2
        assert rec.realized_type == 3


class TestTreeTraverse:
    def test_depth_zero_cutoff_plays_immediately(self):
        ctx = make_ctx(h=1)
        node = GameTreeNode(1, Mover.ADVERSARY)
        value = tree_traverse(node, ctx)
        assert len(ctx.plays) == 1
        assert value == ctx.plays[0].utilities
        assert node.visit_count == 1

    def test_fresh_root_does_one_rollout(self):
        ctx = make_ctx(h=4)
        root = GameTreeNode(0, Mover.LEARNER)
        tree_traverse(root, ctx)
        assert root.visit_count == 1
        assert root.expansion_state is ExpansionState.VISITED
        assert root.children == {}
        assert len(ctx.plays) == 1

    def test_second_traversal_expands_all_children(self):
        ctx = make_ctx(h=4)
        root = GameTreeNode(0, Mover.LEARNER)
        tree_traverse(root, ctx)
        tree_traverse(root, ctx)
        assert root.expansion_state is ExpansionState.FULLY_EXPANDED
        assert sorted(root.children) == list(range(ctx.cfg.n_classifiers))
        visited = [c for c in root.children.values() if c.visit_count == 1]
        assert len(visited) == 1

    def test_mover_alternates_and_depth_increments(self):
        ctx = make_ctx(h=6)
        root = GameTreeNode(0, Mover.LEARNER)
        for _ in range(30):
            tree_traverse(root, ctx)
        for node in walk(root):
            assert node.depth <= ctx.run.h
            for child in node.children.values():
                assert child.depth == node.depth + 1
                assert child.mover is node.mover.other()
        assert root.mover is Mover.LEARNER

    def test_visit_and_value_accounting(self):
        """Every traversal adds its returned value to exactly the nodes it
        passed through (shadow accounting via per-traversal deltas)."""
        ctx = make_ctx(h=4, seed=3)
        root = GameTreeNode(0, Mover.LEARNER)
        for _ in range(60):
            before = {id(n): (n.visit_count, n.value_learner, n.value_adversary)
                      for n in walk(root)}
            value = tree_traverse(root, ctx)
            after = {id(n): n for n in walk(root)}
            touched = 0
            for key, node in after.items():
                prev = before.get(key, (0, 0.0, 0.0))
                dv = node.visit_count - prev[0]
                assert dv in (0, 1)
                if dv == 1:
                    touched += 1
                    assert node.value_learner - prev[1] == pytest.approx(
                        value.u_learner, abs=1e-12)
                    assert node.value_adversary - prev[2] == pytest.approx(
                        value.u_adversary, abs=1e-12)
                else:
                    assert node.value_learner == prev[1]
            assert touched >= 1
        assert root.visit_count == 60

    def test_root_value_sum_accumulates_returned_values(self):
        ctx = make_ctx(h=4, seed=5)
        root = GameTreeNode(0, Mover.LEARNER)
        total_l = total_a = 0.0
        for _ in range(40):
            value = tree_traverse(root, ctx)
            total_l += value.u_learner
            total_a += value.u_adversary
        assert root.value_learner == pytest.approx(total_l, abs=1e-9)
        assert root.value_adversary == pytest.approx(total_a, abs=1e-9)

    def test_expanded_node_visit_matches_children(self):
        ctx = make_ctx(h=6, seed=7)
        root = GameTreeNode(0, Mover.LEARNER)
        for _ in range(80):
            tree_traverse(root, ctx)
        for node in walk(root):
            if node.expansion_state is ExpansionState.FULLY_EXPANDED:
                child_visits = sum(c.visit_count for c in node.children.values())
                assert node.visit_count == child_visits + 1

    def test_every_root_child_visited_under_ucb(self):
        ctx = make_ctx(h=4, seed=11, selection=SelectionMethod.UCB)
        root = GameTreeNode(0, Mover.LEARNER)
        for _ in range(ctx.cfg.n_classifiers + 2):
            tree_traverse(root, ctx)
        assert all(c.visit_count >= 1 for c in root.children.values())

    def test_fixed_seed_reproduces_utilities(self):
        def run_once():
            ctx = make_ctx(h=4, seed=1234)
            root = GameTreeNode(0, Mover.LEARNER)
            return [tree_traverse(root, ctx) for _ in range(25)]

        first, second = run_once(), run_once()
        assert first == second


class TestSelectBestChild:
    def _expanded_root(self, ctx):
        root = GameTreeNode(0, Mover.LEARNER)
        tree_traverse(root, ctx)
        tree_traverse(root, ctx)
        assert root.expansion_state is ExpansionState.FULLY_EXPANDED
        return root

    def test_requires_fully_expanded(self):
        ctx = make_ctx()
        with pytest.raises(RuntimeError):
            select_best_child(GameTreeNode(0, Mover.LEARNER), ctx)

    def test_single_action_mover(self):
        import warnings
        from clfgame import AccuracyMatrix
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = GameConfig(1, 2, AccuracyMatrix(np.array([[0.8, 0.6]])),
                             PayoffConfig.unit(1, 2))
        ctx = make_ctx(cfg, h=4)
        root = self._expanded_root(ctx)
        assert select_best_child(root, ctx) is root.children[0]

    def test_ucb_prefers_unvisited_child(self):
        ctx = make_ctx(h=4, selection=SelectionMethod.UCB, seed=13)
        root = self._expanded_root(ctx)
        unvisited = [a for a, c in root.children.items() if c.visit_count == 0]
        chosen = select_best_child(root, ctx)
        assert chosen.incoming_action == unvisited[0]

    def test_bne_learner_mover_follows_best_response(self):
        ctx = make_ctx(h=4, selection=SelectionMethod.BNE, seed=17)
        from dataclasses import replace
        ctx.belief = replace(ctx.belief,
                             p_hat=TypeDistribution.degenerate(2, 4))
        root = self._expanded_root(ctx)
        # strength-2 column utilities: 0.7706, 0.7922, 0.8152
        assert select_best_child(root, ctx).incoming_action == 2

    def test_bne_adversary_mover_uses_best_response_type(self):
        ctx = make_ctx(h=4, selection=SelectionMethod.BNE, seed=19)
        root = self._expanded_root(ctx)
        adv = select_best_child(root, ctx)
        tree_traverse(adv, ctx)
        tree_traverse(adv, ctx)
        # uniform belief: learner best response is classifier 2, and the
        # adversary's best reply to it is the strongest perturbation
        assert select_best_child(adv, ctx).incoming_action == 3


class TestRollout:
    def test_terminal_node_plays_once(self):
        ctx = make_ctx(h=2)
        node = GameTreeNode(2, Mover.LEARNER)
        value = rollout(node, ctx)
        assert len(ctx.plays) == 1
        assert value == ctx.plays[0].utilities
        assert node.visit_count == 0  # rollout never touches tree state

    def test_walk_reaches_terminal_from_root(self):
        ctx = make_ctx(h=8, seed=23)
        value = rollout(GameTreeNode(0, Mover.LEARNER), ctx)
        assert len(ctx.plays) == 1
        assert value == ctx.plays[0].utilities

    def test_zero_weight_actions_never_drawn(self):
        rng = RandomSource(29)
        weights = np.array([0.0, 0.3, 0.7])
        draws = {proportional_choice(rng, weights) for _ in range(500)}
        assert draws == {1, 2}

    def test_all_zero_weights_fall_back_to_uniform(self):
        rng = RandomSource(31)
        draws = {proportional_choice(rng, np.zeros(3)) for _ in range(200)}
        assert draws == {0, 1, 2}

    def test_degenerate_opponent_model_pins_adversary_moves(self):
        ctx = make_ctx(h=2, seed=37, true_p=TypeDistribution.degenerate(0, 4))
        for _ in range(20):
            rollout(GameTreeNode(0, Mover.LEARNER), ctx)
        assert all(rec.realized_type == 0 for rec in ctx.plays)

    def test_rollout_uses_belief_switch(self):
        from dataclasses import replace
        ctx = make_ctx(h=2, seed=41, rollout_uses_belief=True,
                       true_p=TypeDistribution.degenerate(3, 4))
        ctx.belief = replace(ctx.belief, p_hat=TypeDistribution.degenerate(1, 4))
        # adversary move draws from the belief, but the terminal play still
        # samples the realized type from the actual distribution
        value = rollout(GameTreeNode(0, Mover.LEARNER), ctx)
        assert ctx.plays[0].realized_type == 3
        assert value == ctx.plays[0].utilities


class TestPlayBatch:
    def test_policy_with_zero_mass_never_uses_that_classifier(self):
        cfg = default_config()
        run = SelfPlayConfig(q=50, true_p=TypeDistribution.uniform(4)).resolved(cfg)
        policy = Strategy(np.array([0.5, 0.0, 0.5]))
        rec = play_batch(policy, 1, cfg, run, RandomSource(43))
        assert 1 not in set(rec.per_query_classifier.tolist())
        assert rec.realized_type == 1


def reference_choice(rng, weights):
    """`proportional_choice` as it was: a direct `Generator.choice` call."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0.0:
        return int(rng.generator.integers(len(weights)))
    return int(rng.generator.choice(len(weights), p=weights / total))


def reference_play_batch(strategy, theta, cfg, run, rng):
    """`play_batch` as it was: one choice draw and one classify call per query."""
    from clfgame import classify, generate_queries
    queries = generate_queries(theta, run.q, rng)
    chosen = np.array([
        reference_choice(rng, strategy.probs) for _ in queries
    ], dtype=np.int64)
    correct = np.array([
        classify(int(j), query, cfg, run.classification_mode, rng)
        for j, query in zip(chosen, queries)
    ])
    payoff = cfg.payoff
    u_learner = float(np.mean(
        correct * payoff.v_learner[chosen, theta] - payoff.c_classifier[chosen]
    ))
    u_adversary = float(np.mean(
        (1.0 - correct) * payoff.v_adversary[chosen, theta] - payoff.c_type[theta]
    ))
    return chosen, correct, (u_learner, u_adversary)


def random_weights(meta, n):
    """Weight vectors with zero entries, pure vectors, ties and wide scales."""
    kind = meta.integers(4)
    if kind == 0:
        weights = np.zeros(n)
        weights[meta.integers(n)] = meta.choice([1.0, 1e-12, 7e5])
        return weights
    if kind == 1:
        return np.full(n, meta.choice([1.0, 0.1, 1e-9, 3e8]))
    weights = meta.random(n) * 10.0 ** meta.integers(-9, 9)
    if kind == 2:
        weights[meta.random(n) < 0.4] = 0.0
        if not weights.any():
            weights[0] = 0.5
    else:
        weights[meta.integers(n, size=2)] = weights[0]  # ties
    return weights


class TestStreamEquivalence:
    """The vectorized draws return exactly what the per-query calls to
    `Generator.choice` returned, and leave the stream at the same place."""

    def test_proportional_choice_matches_generator_choice(self):
        meta = np.random.default_rng(2024)
        for case in range(1500):
            weights = random_weights(meta, int(meta.integers(1, 12)))
            ours, theirs = RandomSource(case), RandomSource(case)
            expected = int(theirs.generator.choice(len(weights),
                                                   p=weights / weights.sum()))
            assert proportional_choice(ours, weights) == expected, weights
            assert ours.generator.random() == theirs.generator.random()

    @pytest.mark.parametrize("weights", [
        [0.5, -0.1, 0.6],
        [1.0, np.nan, 0.0],
        [np.inf, 1.0, 0.0],
    ])
    def test_invalid_weights_still_raise(self, weights):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                proportional_choice(RandomSource(0), np.array(weights))
            with pytest.raises(ValueError):
                reference_choice(RandomSource(0), np.array(weights))

    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_play_batch_matches_per_query_loop(self, mode):
        cfg = default_config(c_classifier=[0.0, 0.01, 0.02])
        meta = np.random.default_rng(7)
        for seed in range(200):
            kind = seed % 3
            if kind == 0:
                strategy = Strategy.pure(int(meta.integers(3)), 3)
            elif kind == 1:
                strategy = Strategy(meta.dirichlet(np.ones(3)))
            else:
                probs = np.array([0.25, 0.0, 0.75])
                strategy = Strategy(meta.permutation(probs))
            theta = int(meta.integers(4))
            run = SelfPlayConfig(q=int(meta.integers(1, 60)), seed=seed,
                                 classification_mode=mode).resolved(cfg)
            ours, theirs = RandomSource(seed), RandomSource(seed)
            rec = play_batch(strategy, theta, cfg, run, ours)
            chosen, correct, utilities = reference_play_batch(
                strategy, theta, cfg, run, theirs)
            np.testing.assert_array_equal(rec.per_query_classifier, chosen)
            np.testing.assert_array_equal(rec.per_query_correct, correct)
            assert tuple(rec.utilities) == utilities
            assert ours.generator.random() == theirs.generator.random()
