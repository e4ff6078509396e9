"""Plays, the self-play step, proportional draws and the doubles they read."""

from types import SimpleNamespace

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    AdversaryMode,
    BeliefState,
    ClassificationMode,
    ConfigurationError,
    PayoffConfig,
    GameConfig,
    Plays,
    SelectionMethod,
    SelfPlayConfig,
    Strategy,
    TypeDistribution,
    bne_select,
    default_config,
    game_play,
    play_batch,
    proportional_choice,
    self_play,
    tree_traverse,
)


def make_ctx(cfg=None, seed=0, **run_kwargs):
    """A resolved run and the locals `self_play` keeps for it: every play's
    row of doubles, drawn from a fresh stream as its trials draw them, a
    fresh belief and utility sums, and room for the run's plays."""
    cfg = cfg or default_config()
    run_kwargs.setdefault("true_p", TypeDistribution.uniform(cfg.n_types))
    run = SelfPlayConfig(seed=seed, **run_kwargs).resolved(cfg)
    ctx = SimpleNamespace(
        draws=np.random.default_rng(seed).random(
            (run.n_trials * run.h, run.draws_per_play)),
        belief=BeliefState.fresh(cfg.n_classifiers, cfg.n_types),
        sums=([0.0] * cfg.n_classifiers, [0.0] * cfg.n_types),
        plays=Plays.empty(run.n_trials * run.h),
    )
    return cfg, run, ctx


def first_play(cfg, run, ctx):
    """`game_play` into entry 0, with the best response `self_play`
    computes for a fresh belief under BNE selection."""
    best = None
    if run.selection is SelectionMethod.BNE:
        best = bne_select(ctx.belief.p_hat, cfg)
    return game_play(cfg, run, ctx.draws[0], ctx.belief, ctx.sums, best, ctx.plays, 0)


def traverse(cfg, run, ctx, p):
    """`tree_traverse` of play `p` under UCB selection, counting into the
    belief in place, as `self_play` does."""
    tree_traverse(cfg, run, ctx.draws[p], ctx.belief, ctx.sums, None, ctx.plays, p)


class TestGamePlay:
    def test_expectation_mode_pure_strategy_exact_utilities(self):
        cfg, run, ctx = make_ctx(classification_mode=ClassificationMode.EXPECTATION,
                                 true_p=TypeDistribution.degenerate(0, 4))
        utilities = first_play(cfg, run, ctx)
        plays = ctx.plays
        # UCB with fresh stats picks classifier 0; type is degenerate clean
        assert plays.action[0] == 0
        assert plays.type[0] == 0
        assert plays.u_learner[0] == pytest.approx(0.9392, abs=1e-12)
        assert plays.u_adversary[0] == pytest.approx(0.0608, abs=1e-12)
        assert utilities == (plays.u_learner[0], plays.u_adversary[0])

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
        cfg, run, ctx = make_ctx(GameConfig(acc, payoff), q=1,
                                 true_p=TypeDistribution.uniform(2))
        u_learner, _ = first_play(cfg, run, ctx)
        assert u_learner == pytest.approx(0.7 - 0.2, abs=1e-12)

    def test_cost_only_payoffs(self):
        cfg = default_config()
        payoff = PayoffConfig(
            v_learner=np.zeros((3, 4)), v_adversary=np.zeros((3, 4)),
            c_classifier=np.full(3, 0.05), c_type=np.full(4, 0.02),
        )
        cost_cfg, run, ctx = make_ctx(GameConfig(cfg.accuracy, payoff))
        u_learner, u_adversary = first_play(cost_cfg, run, ctx)
        assert u_learner == pytest.approx(-0.05, abs=1e-12)
        assert u_adversary == pytest.approx(-0.02, abs=1e-12)

    def test_play_updates_running_stats(self):
        cfg, run, ctx = make_ctx()
        u_learner, u_adversary = first_play(cfg, run, ctx)
        learner, adversary = [0.0] * 3, [0.0] * 4
        learner[ctx.plays.action[0]] = u_learner
        adversary[ctx.plays.type[0]] = u_adversary
        assert ctx.sums == (learner, adversary)

    def test_batch_length_matches_q(self):
        """A play answers q queries: it is handed a type double and two
        doubles per query, its correctness sum counts at most q correct
        answers, and the run's record keeps one entry per play."""
        cfg, run, ctx = make_ctx(q=7)
        assert ctx.draws.shape == (run.n_trials * run.h, 1 + 2 * 7)
        first_play(cfg, run, ctx)
        assert ctx.plays.correct.shape == (run.n_trials * run.h,)
        assert ctx.plays.correct[0] in range(8)

    def test_best_response_adversary_targets_weak_spot(self):
        cfg, run, ctx = make_ctx(adversary_mode=AdversaryMode.BEST_RESPONSE,
                                 selection=SelectionMethod.BNE)
        first_play(cfg, run, ctx)
        # uniform belief best response is the most hardened classifier; the
        # strongest perturbation then maximizes its miss probability
        assert ctx.plays.action[0] == 2
        assert ctx.plays.type[0] == 3


class TestTraverse:
    def test_each_step_logs_one_play(self):
        cfg, run, ctx = make_ctx(h=4, seed=3)
        plays = ctx.plays
        start = ctx.belief.p_hat
        learner = [0.0] * 3
        for k in range(1, 6):
            traverse(cfg, run, ctx, k - 1)
            learner[plays.action[k - 1]] += plays.u_learner[k - 1]
            assert ctx.sums[0] == learner
            assert ctx.belief.total_observations == k
        recounted = np.zeros((3, 4), dtype=np.int64)
        np.add.at(recounted, (plays.action[:5], plays.type[:5]), 1)
        np.testing.assert_array_equal(ctx.belief.joint_counts, recounted)
        # the marginal moves only at the trial's refresh
        assert ctx.belief.p_hat is start
        assert sum(ctx.belief.action_counts.tolist()) == 5

    def test_fixed_seed_reproduces_utilities(self):
        def run_once():
            cfg, run, ctx = make_ctx(h=4, seed=1234)
            for p in range(25):
                traverse(cfg, run, ctx, p)
            return ctx.plays.u_learner[:25].tolist(), ctx.plays.u_adversary[:25].tolist()

        first, second = run_once(), run_once()
        assert first == second

    def test_degenerate_opponent_model_pins_adversary_moves(self):
        cfg, run, ctx = make_ctx(h=2, seed=37, true_p=TypeDistribution.degenerate(0, 4))
        for p in range(20):
            traverse(cfg, run, ctx, p)
        assert ctx.belief.total_observations == len(ctx.plays) == 20
        assert ctx.plays.type.tolist() == [0] * 20


class TestProportionalChoice:
    def test_zero_weight_actions_never_drawn(self):
        rng = np.random.default_rng(29)
        dist = TypeDistribution(np.array([0.0, 0.3, 0.7]))
        draws = {proportional_choice(u, dist) for u in rng.random(500).tolist()}
        assert draws == {1, 2}


class TestPlayBatch:
    def test_policy_with_zero_mass_never_uses_that_classifier(self):
        """A play's classifier is its action: a run pinned to one
        classifier puts every query on it and none on the others."""
        cfg = default_config()
        run = SelfPlayConfig(h=5, n_trials=4, q=50, seed=43)
        for action in range(cfg.n_classifiers):
            counts = self_play(cfg, run, action).selection_counts
            assert counts[:, action].sum() == counts.sum() == 20 * 50
        plays = Plays.empty(1)
        play_batch(2, 1, cfg, run.resolved(cfg), np.random.default_rng(43).random(2 * run.q),
                   plays, 0)
        assert (plays.action[0], plays.type[0]) == (2, 1)


def reference_choice(rng, weights):
    """A proportional draw made by a direct `Generator.choice` call."""
    weights = np.asarray(weights, dtype=float)
    return int(rng.choice(len(weights), p=weights / weights.sum()))


def reference_play_batch(action, theta, cfg, run, rng):
    """`play_batch` as a per-query loop: one choice draw per query on the
    action's pure strategy, then one correctness draw per query."""
    probs = Strategy.pure(action, cfg.n_classifiers).probs
    chosen = np.array([
        reference_choice(rng, probs) for _ in range(run.q)
    ], dtype=np.int64)
    acc = cfg.accuracy.acc
    if run.classification_mode is ClassificationMode.EXPECTATION:
        correct = np.array([acc[j, theta] for j in chosen])
    else:
        correct = np.array([1.0 if rng.random() < acc[j, theta] else 0.0
                            for j in chosen])
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


def batch_doubles(rng, run):
    """The doubles `play_batch` reads, as `self_play` draws them: one per
    query for its classifier and, in stochastic mode, one per query for its
    correctness."""
    per_query = 2 if run.classification_mode is ClassificationMode.STOCHASTIC else 1
    return rng.random(per_query * run.q)


def float_bits(values):
    """Floats as hex strings, which tell `-0.0` from `0.0`."""
    return [float(v).hex() for v in values]


class TestStreamEquivalence:
    """The vectorized draws return exactly what the per-query calls to
    `Generator.choice` returned, and leave the stream at the same place."""

    @pytest.mark.parametrize("weights", [
        [0.5, -0.1, 0.6],
        [1.0, np.nan, 0.0],
        [np.inf, 1.0, 0.0],
    ])
    def test_invalid_weights_still_raise(self, weights):
        """Weights `Generator.choice` refuses are refused when a distribution
        is built from them, naming the type, so no cached CDF is built from
        them."""
        for kind in (Strategy, TypeDistribution):
            with pytest.raises(ConfigurationError,
                               match=rf"^{kind.__name__} entries must lie in \[0, 1\], got "):
                kind(np.array(weights))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                reference_choice(np.random.default_rng(0), np.array(weights))

    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_play_batch_matches_per_query_loop(self, mode):
        """Every query of the loop is answered by the play's action, the
        loop's 1-d correctness sum is the play's, and the play leaves the
        stream where the loop does."""
        cfg = default_config(c_classifier=[0.0, 0.01, 0.02])
        meta = np.random.default_rng(7)
        for seed in range(200):
            action = int(meta.integers(3))
            theta = int(meta.integers(4))
            run = SelfPlayConfig(q=int(meta.integers(1, 60)), seed=seed,
                                 classification_mode=mode).resolved(cfg)
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            plays = Plays.empty(1)
            utilities = play_batch(action, theta, cfg, run, batch_doubles(ours, run),
                                   plays, 0)
            chosen, correct, want = reference_play_batch(
                action, theta, cfg, run, theirs)
            assert chosen.tolist() == [plays.action[0]] * run.q
            assert plays.correct[0].tobytes() == correct.sum().tobytes()
            assert float_bits(utilities) == float_bits(want)
            assert float_bits((plays.u_learner[0], plays.u_adversary[0])) == float_bits(want)
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_play_batch_matches_per_query_loop_on_random_payoffs(self, mode):
        """Every value and cost differs from the others, and some values are
        negative, so a table entry read from the wrong cell shows."""
        meta = np.random.default_rng(11)
        accuracy = default_config().accuracy
        for seed in range(60):
            payoff = PayoffConfig(
                v_learner=meta.normal(size=(3, 4)), v_adversary=meta.normal(size=(3, 4)),
                c_classifier=meta.random(3) / 10, c_type=meta.random(4) / 10,
            )
            cfg = GameConfig(accuracy, payoff)
            action = int(meta.integers(3))
            theta = int(meta.integers(4))
            # up to 400 queries: numpy's pairwise sum splits blocks above 128
            run = SelfPlayConfig(q=int(meta.integers(1, 400)), seed=seed,
                                 classification_mode=mode).resolved(cfg)
            plays = Plays.empty(1)
            utilities = play_batch(action, theta, cfg, run,
                                   batch_doubles(np.random.default_rng(seed), run), plays, 0)
            *_, want = reference_play_batch(action, theta, cfg, run,
                                            np.random.default_rng(seed))
            assert float_bits(utilities) == float_bits(want)

    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_negative_zero_terms_match_the_loop(self, mode):
        """A negative value, zero cost and an all-incorrect batch make every
        learner term `0.0 * v - 0.0`, which is `-0.0`.  The utility table's
        entries keep that sign, and the mean of those terms is the loop's,
        bit for bit."""
        acc = AccuracyMatrix(np.zeros((2, 2)))
        payoff = PayoffConfig(
            v_learner=np.full((2, 2), -1.5), v_adversary=np.full((2, 2), -2.0),
            c_classifier=np.zeros(2), c_type=np.zeros(2),
        )
        cfg = GameConfig(acc, payoff)
        if mode is ClassificationMode.STOCHASTIC:
            terms = [table[0, ::2] for table in cfg.realized_utilities]  # b = 0
        else:
            terms = [table[0] for table in cfg.expected_utilities]
        assert float_bits(np.concatenate(terms)) == [(-0.0).hex()] * 4
        for seed, action in enumerate([1, 0]):
            run = SelfPlayConfig(q=9, seed=seed, classification_mode=mode,
                                 true_p=TypeDistribution.uniform(2)).resolved(cfg)
            plays = Plays.empty(1)
            utilities = play_batch(action, 1, cfg, run,
                                   batch_doubles(np.random.default_rng(seed), run), plays, 0)
            _, correct, want = reference_play_batch(
                action, 1, cfg, run, np.random.default_rng(seed))
            assert not correct.any()
            assert float_bits(utilities) == float_bits(want)


class TestCachedSampling:
    """A type distribution caches the CDF its draws search; the draws are
    the ones `_choice_cdf` and `Generator.choice` give."""

    def test_cached_cdfs_draw_what_choice_draws(self):
        from clfgame.game import _choice_cdf
        meta = np.random.default_rng(2025)
        for case in range(1500):
            weights = random_weights(meta, int(meta.integers(1, 12)))
            dist = TypeDistribution(weights / weights.sum())
            np.testing.assert_array_equal(dist.cdf, _choice_cdf(dist.probs))
            assert dist.cdf is dist.cdf
            assert not dist.cdf.flags.writeable
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            drawn = proportional_choice(ours.random(), dist)
            assert drawn == int(theirs.choice(len(dist), p=dist.probs)), weights
            assert ours.random() == theirs.random()

    def test_draw_on_a_cdf_entry_matches_searchsorted(self):
        """A double equal to a CDF entry (zero-mass runs repeat entries)
        draws the index `searchsorted(side="right")` gives."""
        for probs in ([0.25, 0.0, 0.25, 0.0, 0.5], [0.0, 1.0, 0.0], [1.0],
                      [0.1, 0.2, 0.3, 0.4]):
            dist = TypeDistribution(np.array(probs))
            for u in [0.0, *dist.cdf.tolist(), float(np.nextafter(dist.cdf[0], 0))]:
                want = int(dist.cdf.searchsorted(u, side="right"))
                assert proportional_choice(u, dist) == want, (probs, u)

    def test_negative_entry_within_tolerance_is_refused(self):
        """An entry in [-SIMPLEX_ATOL, 0), which `Generator.choice` refuses,
        is refused when the distribution is built, not at its first draw."""
        probs = np.array([1.0000000005, -5e-10, 0.0, 0.0])
        for kind in (Strategy, TypeDistribution):
            with pytest.raises(ConfigurationError, match=(
                    rf"^{kind.__name__} entries must lie in \[0, 1\], "
                    r"got \[1.0000000005, -5e-10, 0.0, 0.0\]$")):
                kind(probs)
