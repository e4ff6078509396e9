"""Plays, the self-play step, proportional draws and their random stream."""

import numpy as np
import pytest

from clfgame import (
    AdversaryMode,
    BeliefState,
    ClassificationMode,
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


class TestTraverse:
    def test_each_step_logs_one_play(self):
        ctx = make_ctx(h=4, seed=3)
        for k in range(1, 6):
            value = tree_traverse(ctx)
            assert len(ctx.plays) == k
            assert value == ctx.plays[-1].utilities
        assert ctx.stats.learner.parent_visits == 5

    def test_fixed_seed_reproduces_utilities(self):
        def run_once():
            ctx = make_ctx(h=4, seed=1234)
            return [tree_traverse(ctx) for _ in range(25)]

        first, second = run_once(), run_once()
        assert first == second

    def test_degenerate_opponent_model_pins_adversary_moves(self):
        ctx = make_ctx(h=2, seed=37, true_p=TypeDistribution.degenerate(0, 4))
        for _ in range(20):
            tree_traverse(ctx)
        assert len(ctx.plays) == 20
        assert all(rec.realized_type == 0 for rec in ctx.plays)


class TestProportionalChoice:
    def test_zero_weight_actions_never_drawn(self):
        rng = RandomSource(29)
        weights = np.array([0.0, 0.3, 0.7])
        draws = {proportional_choice(rng, weights) for _ in range(500)}
        assert draws == {1, 2}

    def test_all_zero_weights_fall_back_to_uniform(self):
        rng = RandomSource(31)
        draws = {proportional_choice(rng, np.zeros(3)) for _ in range(200)}
        assert draws == {0, 1, 2}


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


class TestCachedSampling:
    """Distributions cache the CDF and argmax their draws need; the draws
    are the ones `_choice_cdf` and `Generator.choice` give."""

    def test_pure_strategy_is_one_shared_read_only_object(self):
        first = Strategy.pure(1, 3)
        assert Strategy.pure(1, 3) is first
        assert Strategy.pure(np.int64(1), 3) is first
        assert Strategy.pure(2, 3) is not first
        assert Strategy.pure(1, 4) is not first
        np.testing.assert_array_equal(first.probs, [0.0, 1.0, 0.0])
        assert first.argmax == 1
        for array in (first.probs, first.cdf):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_cached_cdfs_draw_what_choice_draws(self):
        from clfgame.tree import _choice_cdf
        meta = np.random.default_rng(2025)
        for case in range(1500):
            weights = random_weights(meta, int(meta.integers(1, 12)))
            for kind in (Strategy, TypeDistribution):
                dist = kind(weights / weights.sum())
                np.testing.assert_array_equal(
                    dist.cdf, _choice_cdf(dist.probs, dist.probs.sum()))
                assert dist.cdf is dist.cdf
                ours, raw, theirs = (RandomSource(case) for _ in range(3))
                drawn = proportional_choice(ours, dist)
                assert drawn == proportional_choice(raw, dist.probs), weights
                assert drawn == int(theirs.generator.choice(len(dist), p=dist.probs))
                after = ours.generator.random()
                assert after == raw.generator.random() == theirs.generator.random()

    def test_negative_entry_within_tolerance_raises_at_draw(self):
        probs = np.array([1.0000000005, -5e-10, 0.0, 0.0])
        for kind in (Strategy, TypeDistribution):
            dist = kind(probs)  # the simplex check tolerates it
            with pytest.raises(ValueError, match="non-negative"):
                proportional_choice(RandomSource(0), dist)
            with pytest.raises(ValueError, match="non-negative"):
                dist.cdf

    def test_argmax_breaks_ties_toward_the_lowest_index(self):
        assert Strategy(np.array([0.2, 0.4, 0.4])).argmax == 1
        assert Strategy.uniform(3).argmax == 0
        cfg = default_config()
        run = SelfPlayConfig(q=5, true_p=TypeDistribution.uniform(4)).resolved(cfg)
        rec = play_batch(Strategy(np.array([0.1, 0.2, 0.7])), 0, cfg, run, RandomSource(3))
        assert rec.chosen_action == 2
