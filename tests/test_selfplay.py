"""Self-play loop: belief convergence, bookkeeping, baselines, determinism."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    AdversaryMode,
    BeliefState,
    ClassificationMode,
    ConfigurationError,
    GameConfig,
    PayoffConfig,
    SelectionMethod,
    SelfPlayConfig,
    TypeDistribution,
    bne_select,
    default_config,
    generate_queries,
    kl_divergence,
    self_play,
)
from clfgame import selfplay
from tests.payoff_oracle import Strategy, adversary_utilities


class TestSelfPlayStructure:
    def test_kl_curve_has_one_entry_per_trial(self):
        run = SelfPlayConfig(h=1, n_trials=1, q=2, seed=0)
        res = self_play(default_config(), run)
        assert len(res.per_trial_kl) == 1
        assert len(res.plays) == 1

    def test_plays_per_trial_equals_traversal_budget(self):
        run = SelfPlayConfig(h=5, n_trials=3, q=2, seed=1)
        res = self_play(default_config(), run)
        assert len(res.plays) == 15

    @pytest.mark.parametrize("h", [1, 4, 20])
    def test_plays_per_trial_equals_h(self, h):
        """`h` is the one setting for plays per trial; the read-only
        `traversals_per_trial` returns it."""
        run = SelfPlayConfig(h=h, n_trials=3, q=1, seed=2)
        assert run.traversals_per_trial == h
        with pytest.raises(AttributeError):
            run.traversals_per_trial = h + 1
        with pytest.raises(TypeError):
            SelfPlayConfig(h=h, traversals_per_trial=h + 1)
        res = self_play(default_config(), run)
        fixed = self_play(default_config(), run, 1)
        assert len(res.plays) == len(fixed.plays) == 3 * h
        assert res.belief_state.joint_counts.sum() == 3 * h
        assert len(res.per_trial_kl) == 3

    def test_belief_starts_at_prior(self, monkeypatch):
        """A run's belief starts uniform: a BNE run's first pick is the best
        response to the uniform belief."""
        cfg = default_config()
        uniform, true_p = TypeDistribution.uniform(4), TypeDistribution.concentrated(3, 4)
        run = SelfPlayConfig(h=3, n_trials=4, q=2, true_p=true_p, seed=3,
                             selection=SelectionMethod.BNE,
                             adversary_mode=AdversaryMode.BEST_RESPONSE)
        picks = []

        def spy(belief, game):
            picks.append(belief.probs.tolist())
            return bne_select(belief, game)

        monkeypatch.setattr(selfplay, "bne_select", spy)
        res = self_play(cfg, run)
        assert picks[0] == uniform.probs.tolist()
        action, theta = bne_select(uniform, cfg)
        assert res.plays.action[:3].tolist() == [action] * 3
        assert res.plays.type[:3].tolist() == [theta] * 3

    @pytest.mark.parametrize("selection", list(SelectionMethod))
    def test_one_belief_per_run(self, monkeypatch, selection):
        """A run builds and validates one `BeliefState` and counts every
        play into it: its final counts are the plays' (action, type)
        tally."""
        built = []
        check = BeliefState.__post_init__

        def counted(b):
            built.append(b)
            check(b)

        monkeypatch.setattr(BeliefState, "__post_init__", counted)
        run = SelfPlayConfig(h=6, n_trials=5, q=3, selection=selection, seed=8)
        res = self_play(default_config(), run)
        assert len(built) == 1
        plays = res.plays
        tally = np.bincount(plays.action * 4 + plays.type, minlength=12).reshape(3, 4)
        assert res.belief_state.joint_counts.tolist() == tally.tolist()

    def test_selection_counts_cover_every_query(self):
        """Each play's action answers its q queries, so every query is
        counted once, under its type and the play's action."""
        run = SelfPlayConfig(h=5, n_trials=4, q=6, seed=4)
        res = self_play(default_config(), run)
        assert res.selection_counts.sum() == len(res.plays) * 6
        by_type = np.zeros(4, dtype=int)
        by_cell = np.zeros((4, 3), dtype=int)
        for theta, action in zip(res.plays.type, res.plays.action):
            for _ in range(run.q):
                by_type[theta] += 1
                by_cell[theta, action] += 1
        np.testing.assert_array_equal(res.selection_counts.sum(axis=1), by_type)
        np.testing.assert_array_equal(res.selection_counts, by_cell)

    def test_belief_counts_match_realized_plays(self):
        run = SelfPlayConfig(h=6, n_trials=5, q=3, seed=5)
        res = self_play(default_config(), run)
        recounted = np.zeros((3, 4), dtype=np.int64)
        for action, theta in zip(res.plays.action, res.plays.type):
            recounted[action, theta] += 1
        np.testing.assert_array_equal(res.belief_state.joint_counts, recounted)

    def test_same_seed_bit_identical(self):
        run = SelfPlayConfig(h=6, n_trials=4, q=5, seed=99)
        a = self_play(default_config(), run)
        b = self_play(default_config(), run)
        np.testing.assert_array_equal(a.per_trial_kl, b.per_trial_kl)
        np.testing.assert_array_equal(a.selection_counts, b.selection_counts)
        assert a.mean_learner_utility == b.mean_learner_utility
        assert a.belief_state.p_hat.probs.tolist() == b.belief_state.p_hat.probs.tolist()

    @pytest.mark.parametrize("selection", list(SelectionMethod))
    def test_zero_width_rows_run_and_reproduce(self, selection):
        """Expectation mode against a best-responding adversary reads no
        double, so every play's row is empty: the run still realizes all
        its plays, gives the same plays again, and its seed changes
        nothing."""
        run = SelfPlayConfig(h=6, n_trials=4, q=5, seed=99, selection=selection,
                             classification_mode=ClassificationMode.EXPECTATION,
                             adversary_mode=AdversaryMode.BEST_RESPONSE)
        assert run.draws_per_play == 0
        a, b, c = (self_play(default_config(), replace(run, seed=seed))
                   for seed in (99, 99, 100))
        assert len(a.plays) == 24
        for other in (b, c):
            for field in ("action", "type", "correct", "u_learner", "u_adversary"):
                assert getattr(a.plays, field).tobytes() == getattr(other.plays, field).tobytes()
            assert a.per_trial_kl.tobytes() == other.per_trial_kl.tobytes()

    def test_different_seeds_differ(self):
        base = dict(h=6, n_trials=4, q=5)
        a = self_play(default_config(), SelfPlayConfig(seed=1, **base))
        b = self_play(default_config(), SelfPlayConfig(seed=2, **base))
        assert not np.array_equal(a.per_trial_kl, b.per_trial_kl)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SelfPlayConfig(h=0)
        with pytest.raises(ConfigurationError):
            SelfPlayConfig(n_trials=0)
        with pytest.raises(ConfigurationError):
            SelfPlayConfig(ucb_c=-1.0)
        with pytest.raises(ConfigurationError):
            SelfPlayConfig(true_p=TypeDistribution.uniform(3)).resolved(default_config())

    @pytest.mark.parametrize("given, member", [
        (dict(selection="bne"), dict(selection=SelectionMethod.BNE)),
        (dict(selection="BNE", adversary_mode="best_response"),
         dict(selection=SelectionMethod.BNE, adversary_mode=AdversaryMode.BEST_RESPONSE)),
        (dict(adversary_mode="Best_Response"), dict(adversary_mode=AdversaryMode.BEST_RESPONSE)),
        (dict(classification_mode="expectation"),
         dict(classification_mode=ClassificationMode.EXPECTATION)),
    ])
    def test_enum_value_runs_the_named_rule(self, given, member):
        """An enum field given as its value plays exactly as the member
        does, and not as the default rule."""
        base = dict(h=5, n_trials=4, q=3, seed=11)
        got = self_play(default_config(), SelfPlayConfig(**base, **given))
        want = self_play(default_config(), SelfPlayConfig(**base, **member))
        default = self_play(default_config(), SelfPlayConfig(**base))
        for field in ("action", "type", "correct", "u_learner", "u_adversary"):
            np.testing.assert_array_equal(getattr(got.plays, field), getattr(want.plays, field))
        assert not all(np.array_equal(getattr(got.plays, field), getattr(default.plays, field))
                       for field in ("action", "type", "correct"))


class TestBeliefConvergence:
    def test_concentrated_distribution_recovered(self):
        """Against a 98%-one-type adversary the final belief puts at least
        0.9 on that type in nearly every seeded run."""
        true_p = TypeDistribution(np.array([0.98, 0.0067, 0.0067, 0.0066]))
        hits = 0
        for seed in range(10):
            run = SelfPlayConfig(true_p=true_p, seed=200 + seed)
            res = self_play(default_config(), run)
            hits += res.belief_state.p_hat.probs[0] >= 0.9
        assert hits >= 8

    @pytest.mark.parametrize("h", [20, 40])
    def test_random_distribution_recovered(self, h):
        rng = np.random.default_rng(303)
        final_kls = []
        for seed in range(5):
            raw = rng.random(4) + 0.05
            run = SelfPlayConfig(h=h, true_p=TypeDistribution(raw / raw.sum()),
                                 seed=400 + seed)
            res = self_play(default_config(), run)
            final_kls.append(res.per_trial_kl[-1])
        assert float(np.mean(final_kls)) <= 0.05


class TestSelectionBehavior:
    def test_dominant_classifier_takes_over_under_bne(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            acc = AccuracyMatrix(np.array([
                [0.70, 0.60, 0.55],
                [0.95, 0.90, 0.85],  # strictly dominant column-wise
                [0.72, 0.65, 0.60],
            ]))
        cfg = GameConfig(acc, PayoffConfig.unit(3, 3))
        run = SelfPlayConfig(selection=SelectionMethod.BNE, n_trials=6, h=6,
                             true_p=TypeDistribution.uniform(3), seed=17)
        res = self_play(cfg, run)
        late = res.plays.action[3 * run.h:]
        frac = np.mean(late == 1)
        assert frac >= 0.95

    def test_best_response_is_computed_once_per_trial(self, monkeypatch):
        import clfgame.selfplay
        import clfgame.tree
        assert not hasattr(clfgame.tree, "bne_select")  # plays take the caller's
        calls = []
        original = clfgame.selfplay.bne_select

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(clfgame.selfplay, "bne_select", counting)
        run = SelfPlayConfig(selection=SelectionMethod.BNE, n_trials=7, h=5, seed=3,
                             adversary_mode=AdversaryMode.BEST_RESPONSE)
        res = self_play(default_config(), run)
        assert len(calls) == 7
        assert len(res.plays) == 35

    def test_expectation_mode_utility_closed_form(self):
        """Zero costs, unit values, expectation mode: the mean learner
        utility is the selection-weighted average of accuracy entries."""
        run = SelfPlayConfig(classification_mode=ClassificationMode.EXPECTATION,
                             h=6, n_trials=3, q=4, seed=23)
        cfg = default_config()
        res = self_play(cfg, run)
        weighted = float(
            (res.selection_counts.T * cfg.accuracy.acc).sum() / res.selection_counts.sum()
        )
        assert res.mean_learner_utility == pytest.approx(weighted, abs=1e-9)

    def test_zero_cost_best_response_matches_fixed_hardened_baseline(self):
        """With zero costs and a degenerate strength-2 stream, best-response
        self-play concentrates on the most hardened classifier, so its mean
        utility sits within 0.02 of the fixed-policy baseline."""
        cfg = default_config()
        run = SelfPlayConfig(selection=SelectionMethod.BNE,
                             classification_mode=ClassificationMode.EXPECTATION,
                             true_p=TypeDistribution.degenerate(2, 4), seed=47)
        searched = self_play(cfg, run)
        fixed = self_play(cfg, run, 2)
        assert abs(searched.mean_learner_utility - fixed.mean_learner_utility) <= 0.02
        assert searched.mean_learner_utility == pytest.approx(0.8152, abs=0.02)


class TestFixedPolicy:
    def test_pure_hardened_accuracy_on_degenerate_type(self):
        run = SelfPlayConfig(classification_mode=ClassificationMode.EXPECTATION,
                             true_p=TypeDistribution.degenerate(2, 4), seed=29)
        res = self_play(default_config(), run, 2)
        assert res.per_type_accuracy[2] == pytest.approx(0.8152, abs=1e-12)
        assert res.overall_accuracy == pytest.approx(0.8152, abs=1e-12)

    def test_pure_baseline_utility_on_clean_stream(self):
        run = SelfPlayConfig(classification_mode=ClassificationMode.EXPECTATION,
                             true_p=TypeDistribution.degenerate(0, 4), seed=31)
        res = self_play(default_config(), run, 0)
        assert res.mean_learner_utility == pytest.approx(0.9392, abs=1e-12)

    def test_zero_payoffs_zero_utilities(self):
        cfg = default_config()
        payoff = PayoffConfig(
            v_learner=np.zeros((3, 4)), v_adversary=np.zeros((3, 4)),
            c_classifier=np.zeros(3), c_type=np.zeros(4),
        )
        zero_cfg = GameConfig(cfg.accuracy, payoff)
        run = SelfPlayConfig(seed=37)
        for classifier in range(3):
            res = self_play(zero_cfg, run, classifier)
            assert res.mean_learner_utility == 0.0
            assert res.mean_adversary_utility == 0.0

    @pytest.mark.parametrize("selection", list(SelectionMethod))
    def test_classifier_overrides_selection(self, monkeypatch, selection):
        """A pinned run plays its classifier under either selection rule,
        with no BNE pick, and counts its plays into its belief, whose
        divergence it reports after each trial's refresh."""
        monkeypatch.setattr(selfplay, "bne_select", None)
        true_p = TypeDistribution.concentrated(3, 4)
        run = SelfPlayConfig(n_trials=4, h=5, seed=41, selection=selection, true_p=true_p,
                             adversary_mode=AdversaryMode.BEST_RESPONSE)
        res = self_play(default_config(), run, 1)
        assert res.plays.action.tolist() == [1] * 20
        assert res.plays.type.tolist() == [default_config().best_response_types[1]] * 20
        assert res.belief_state.joint_counts[1].sum() == res.belief_state.joint_counts.sum() == 20
        assert res.per_trial_kl.tolist() == [kl_divergence(res.belief_state.p_hat, true_p)] * 4

    def test_policy_dimension_checked(self):
        for classifier in (3, -1):
            with pytest.raises(ConfigurationError, match=(
                    rf"^classifier: must be an integer in \[0, 3\), got {classifier}$")):
                self_play(default_config(), SelfPlayConfig(seed=1), classifier)


def reference_fixed_policy_rows(cfg, run, classifier):
    """The plays of `self_play` with a pinned classifier as a per-play loop of per-query draws,
    as the bytes of each play's fields, with its per-query correctness
    reduced by a 1-d `sum`.

    Per play: the type by one `Generator.choice` (sampled adversary) or the
    type that best responds to the classifier, then per query one
    classifier by `Generator.choice` on the classifier's pure policy, from
    a stream of its own, and, in stochastic mode, per query one
    correctness double.
    """
    run = run.resolved(cfg)
    rng, policy_rng = np.random.default_rng(run.seed), np.random.default_rng(run.seed)
    acc, payoff = cfg.accuracy.acc, cfg.payoff
    policy = Strategy.pure(classifier, cfg.n_classifiers)
    br_type = int(np.argmax(adversary_utilities(policy, cfg)))
    true_p = run.true_p.probs / run.true_p.probs.sum()
    weights = policy.probs / policy.probs.sum()
    rows = []
    for _ in range(run.n_trials * run.h):
        if run.adversary_mode is AdversaryMode.SAMPLED:
            theta = int(rng.choice(cfg.n_types, p=true_p))
        else:
            theta = br_type
        chosen = np.array([policy_rng.choice(len(weights), p=weights) for _ in range(run.q)],
                          dtype=np.int64)
        if run.classification_mode is ClassificationMode.EXPECTATION:
            correct = np.array([acc[j, theta] for j in chosen])
        else:
            correct = np.array([1.0 if rng.random() < acc[j, theta] else 0.0
                                for j in chosen])
        u_learner = np.mean(
            correct * payoff.v_learner[chosen, theta] - payoff.c_classifier[chosen])
        u_adversary = np.mean(
            (1.0 - correct) * payoff.v_adversary[chosen, theta] - payoff.c_type[theta])
        rows.append((np.int64(classifier).tobytes(), np.int64(theta).tobytes(),
                     chosen.tobytes(), correct.sum().tobytes(),
                     np.float64(u_learner).tobytes(), np.float64(u_adversary).tobytes()))
    return rows


def row_bytes(plays, p, q):
    """The bytes of every field of entry p of a `Plays` record of q queries
    per play, whose q queries were all answered by its action."""
    return (plays.action[p].tobytes(), plays.type[p].tobytes(),
            np.full(q, plays.action[p], dtype=np.int64).tobytes(), plays.correct[p].tobytes(),
            plays.u_learner[p].tobytes(), plays.u_adversary[p].tobytes())


class TestFixedPolicyRows:
    """Every entry a pinned `self_play` writes is the play a per-play
    loop realizes, byte for byte, so no entry keeps `np.empty`'s contents."""

    @pytest.mark.parametrize("q", [1, 3, 1000])
    @pytest.mark.parametrize("adversary", list(AdversaryMode))
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_rows_match_per_play_loop(self, q, adversary, mode):
        cfg = default_config(c_classifier=[0.0, 0.01, 0.02])
        h, n_trials = (2, 2) if q == 1000 else (5, 3)
        true_ps = [np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.0, 0.5, 0.0, 0.5])]
        for classifier in range(cfg.n_classifiers):
            run = SelfPlayConfig(h=h, n_trials=n_trials, q=q, seed=classifier,
                                 adversary_mode=adversary, classification_mode=mode,
                                 true_p=TypeDistribution(true_ps[classifier % 2]))
            res = self_play(cfg, run, classifier)
            assert len(res.plays) == h * n_trials
            assert [row_bytes(res.plays, p, q) for p in range(len(res.plays))] == \
                reference_fixed_policy_rows(cfg, run, classifier), classifier


def loop_aggregate(plays, cfg, q):
    """The run metrics as a loop over the plays computes them, one play at
    a time, with each play's q queries answered by its action."""
    counts = np.zeros((cfg.n_types, cfg.n_classifiers), dtype=np.int64)
    correct_by_type = np.zeros(cfg.n_types)
    queries_by_type = np.zeros(cfg.n_types, dtype=np.int64)
    for p in range(len(plays)):
        theta, classifiers = plays.type[p], np.full(q, plays.action[p])
        counts[theta] += np.bincount(classifiers, minlength=cfg.n_classifiers)
        correct_by_type[theta] += plays.correct[p]
        queries_by_type[theta] += len(classifiers)
    with np.errstate(invalid="ignore"):
        per_type_accuracy = np.where(
            queries_by_type > 0, correct_by_type / np.maximum(queries_by_type, 1), np.nan)
    overall = float(correct_by_type.sum() / queries_by_type.sum())
    return counts, per_type_accuracy, overall


class TestAggregateMatchesPlayLoop:
    """`_aggregate` over the play arrays gives the loop's metrics bit for bit."""

    @pytest.mark.parametrize("q", [1, 10, 1000])
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_stacked_metrics_are_byte_identical(self, q, mode):
        cfg = default_config(c_classifier=[0.0, 0.01, 0.02])
        per_trial = 20 if q < 1000 else 4
        for seed in range(6):
            true_p = TypeDistribution(np.array([0.1, 0.2, 0.3, 0.4]) if seed % 2
                                      else np.array([0.0, 0.5, 0.0, 0.5]))
            run = SelfPlayConfig(h=per_trial, n_trials=5, q=q, seed=seed,
                                 classification_mode=mode, true_p=true_p,
                                 selection=list(SelectionMethod)[seed % 2])
            for res in (self_play(cfg, run), self_play(cfg, run, seed % 3)):
                counts, per_type, overall = loop_aggregate(res.plays, cfg, q)
                assert res.selection_counts.tolist() == counts.tolist()
                assert res.selection_counts.dtype == np.int64
                assert res.per_type_accuracy.tobytes() == per_type.tobytes()
                assert np.array(res.overall_accuracy).tobytes() == \
                    np.array(overall).tobytes()
                assert len(res.plays) == 5 * per_trial

    @pytest.mark.parametrize("policy", ["ucb", "bne", "pinned"])
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    @pytest.mark.parametrize("adversary", list(AdversaryMode))
    def test_selection_counts_read_from_belief(self, policy, mode, adversary):
        """The counts read off the belief are the (type, action) `bincount`
        over the plays, times q, that `_aggregate` once computed."""
        cfg = default_config()
        n_classifiers = cfg.n_classifiers
        for seed, (h, n_trials, q) in enumerate([(1, 1, 1), (3, 10, 2), (20, 5, 7)]):
            run = SelfPlayConfig(h=h, n_trials=n_trials, q=q, seed=seed,
                                 selection="bne" if policy == "bne" else "ucb",
                                 adversary_mode=adversary, classification_mode=mode)
            res = self_play(cfg, run, seed % n_classifiers if policy == "pinned" else None)
            plays = res.plays
            want = q * np.bincount(plays.type * n_classifiers + plays.action,
                                   minlength=cfg.n_types * n_classifiers
                                   ).reshape(cfg.n_types, n_classifiers)
            assert res.selection_counts.dtype == want.dtype
            assert res.selection_counts.tolist() == want.tolist()


class TestRunMemory:
    @staticmethod
    def traced_peak(cfg, n_trials, q):
        run = SelfPlayConfig(h=1, n_trials=n_trials, q=q, seed=5)
        tracemalloc.start()
        try:
            self_play(cfg, run)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_trials(self):
        """A run keeps one entry per play, so 16 trials of one 10^5-query
        play peak no higher than 4 do: the 12 extra plays' 1.2 million
        queries add less than one byte each."""
        cfg, q = default_config(), 100_000
        for theta in range(cfg.n_types):  # the shared query batches
            generate_queries(theta, q)
        self.traced_peak(cfg, 1, q)  # the game's cached utility tables
        four = self.traced_peak(cfg, 4, q)
        sixteen = self.traced_peak(cfg, 16, q)
        assert sixteen - four < 12 * q, (four, sixteen)


def nine_type_game():
    """A 3-classifier, 9-type game, and a `true_p` that gives zero mass to
    every type a best-responding adversary answers with and to one more."""
    rng = np.random.default_rng(9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        acc = AccuracyMatrix(np.sort(rng.uniform(0.3, 0.99, size=(3, 9)), axis=0))
    cfg = GameConfig(acc, PayoffConfig(
        np.ones((3, 9)), np.ones((3, 9)), np.array([0.0, 0.01, 0.02]), np.zeros(9)))
    probs = rng.random(9) + 0.05
    probs[list(cfg.best_response_types) + [8]] = 0.0
    return cfg, TypeDistribution(probs / probs.sum())


class TestTrialCurvesInRuns:
    """A run's curves, computed once after its loop, are the curves the
    per-trial loop measured, bit for bit."""

    @pytest.mark.parametrize("selection", list(SelectionMethod))
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_curves_match_per_trial_loop(self, selection, mode):
        """9 types with zero counts, a best-responding adversary that puts
        the belief's mass on zero-mass types (+inf), and one-play runs."""
        from tests.test_belief import loop_curves
        cfg, true_p = nine_type_game()
        infinite = zero_counts = 0
        for adversary in AdversaryMode:
            for seed, (h, n_trials, q) in enumerate([(1, 1, 1), (1, 200, 1), (3, 10, 2),
                                                     (20, 10, 3)]):
                run = SelfPlayConfig(h=h, n_trials=n_trials, q=q, selection=selection,
                                     adversary_mode=adversary, classification_mode=mode,
                                     true_p=true_p, seed=seed)
                res = self_play(cfg, run)
                kl, err = loop_curves(res.plays.type, h, true_p)
                assert res.per_trial_kl.tobytes() == kl.tobytes(), (adversary, h, n_trials)
                assert res.per_trial_max_err.tobytes() == err.tobytes(), (adversary, h, n_trials)
                assert res.per_trial_kl[-1] == kl_divergence(res.belief_state.p_hat, true_p)
                infinite += bool(np.isinf(kl).any())
                zero_counts += bool((res.belief_state.type_counts == 0).any())
        assert infinite >= 3 and zero_counts >= 5, (infinite, zero_counts)

    def test_no_per_trial_metric_calls(self, monkeypatch):
        """One run refreshes its belief once per trial and calls neither
        `kl_divergence` nor `max_componentwise_error`."""
        import clfgame.belief
        calls = {"refresh_marginal": 0, "kl_divergence": 0, "max_componentwise_error": 0}

        def counting(name):
            original = getattr(clfgame.belief, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            wrapper = counting(name)
            monkeypatch.setattr(clfgame.belief, name, wrapper)
            monkeypatch.setattr(selfplay, name, wrapper, raising=False)
        for selection in SelectionMethod:
            run = SelfPlayConfig(h=3, n_trials=7, q=2, selection=selection, seed=4)
            self_play(default_config(), run)
            assert calls == {"refresh_marginal": 7, "kl_divergence": 0,
                             "max_componentwise_error": 0}, selection
            calls["refresh_marginal"] = 0


class CountingGenerator:
    """A `numpy.random.Generator` that keeps the size of each `random`
    call and hands every call to the wrapped generator."""

    def __init__(self, rng, sizes):
        self._rng, self.sizes = rng, sizes

    def random(self, size=None):
        self.sizes.append(size)
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def random_sizes(monkeypatch):
    """The sizes of the `random` calls of every generator
    `np.random.default_rng` makes while the test runs."""
    sizes = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: CountingGenerator(default_rng(*args), sizes))
    return sizes


class TestBlockDraws:
    """A run draws its doubles in blocks of whole trials, one `random` call
    each, and hands every play the row a per-trial `random((h, k))` loop
    would."""

    @staticmethod
    def rows_handed(monkeypatch, cfg, run):
        handed = []
        traverse = selfplay.tree_traverse

        def spy(cfg, run, u, *rest):
            handed.append(u.copy())
            return traverse(cfg, run, u, *rest)

        monkeypatch.setattr(selfplay, "tree_traverse", spy)
        res = self_play(cfg, run)
        monkeypatch.setattr(selfplay, "tree_traverse", traverse)
        return handed, res

    @pytest.mark.parametrize("adversary", list(AdversaryMode))
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_rows_match_the_per_trial_loop(self, monkeypatch, random_sizes, adversary, mode):
        """Widths 1 + q, q, 1 and 0; blocks of 1 to all 7 trials, so the
        trial count is not a multiple of the block and, at a 5-double
        bound, one trial holds more doubles than the bound."""
        cfg = default_config()
        run = SelfPlayConfig(h=2, n_trials=7, q=3, adversary_mode=adversary,
                             classification_mode=mode, seed=11)
        width = run.draws_per_play
        rng = np.random.default_rng(run.seed)
        want = [row for _ in range(run.n_trials) for row in rng.random((run.h, width))]
        results = []
        for bound in (1, 5, 3 * run.h * width + 1, selfplay.BLOCK_DOUBLES):
            monkeypatch.setattr(selfplay, "BLOCK_DOUBLES", bound)
            random_sizes.clear()
            handed, res = self.rows_handed(monkeypatch, cfg, run)
            block = max(1, bound // max(1, run.h * width))
            starts = range(0, run.n_trials, block)
            assert random_sizes == [(min(block, run.n_trials - t) * run.h, width)
                                    for t in starts], bound
            assert [row.tobytes() for row in handed] == [row.tobytes() for row in want]
            results.append(res)
        for res in results[1:]:
            for field in ("action", "type", "correct", "u_learner", "u_adversary"):
                assert getattr(res.plays, field).tobytes() == \
                    getattr(results[0].plays, field).tobytes()

    def test_no_marginal_built_and_one_draw_per_block(self, monkeypatch, random_sizes):
        """A 200-trial UCB run builds no `TypeDistribution` in its loop,
        though it refreshes its belief each trial, and draws its 400
        doubles in one call; its final `p_hat` is built when read."""
        built = []
        check = TypeDistribution.__post_init__

        def counted(dist):
            built.append(dist)
            check(dist)

        true_p = TypeDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
        monkeypatch.setattr(TypeDistribution, "__post_init__", counted)
        refreshes = []
        refresh = selfplay.refresh_marginal
        monkeypatch.setattr(selfplay, "refresh_marginal",
                            lambda b: (refreshes.append(b), refresh(b)))
        run = SelfPlayConfig(h=1, n_trials=200, q=1, true_p=true_p, seed=2)
        res = self_play(default_config(), run)
        assert len(refreshes) == 200
        assert len(built) == 1  # the fresh belief's uniform prior
        assert random_sizes == [(200, 2)]
        p_hat = res.belief_state.p_hat
        assert len(built) == 2 and p_hat.probs.tolist() == (
            np.bincount(res.plays.type, minlength=4) / 200).tolist()


def test_bne_picks_on_the_grid_are_the_eager_marginals_picks(monkeypatch):
    """On the 384-config grid each BNE trial's pick is `bne_select` of
    `_empirical` of the type counts at the trial's start, bit for bit: the
    marginal a refresh that built it at once would have left."""
    from clfgame.belief import _empirical
    from tests.test_tree_equivalence import COSTS, GRID, grid_run
    cfg = default_config(c_classifier=COSTS)
    seen = []

    def spy(p_hat, game):
        pick = bne_select(p_hat, game)
        seen.append((p_hat.probs.tobytes(), pick))
        return pick

    monkeypatch.setattr(selfplay, "bne_select", spy)
    bne_runs = 0
    for config in GRID:
        run = grid_run(*config)
        if run.selection is not SelectionMethod.BNE:
            continue
        seen.clear()
        res = self_play(cfg, run)
        want = []
        for trial in range(run.n_trials):
            counts = np.bincount(res.plays.type[:trial * run.h], minlength=cfg.n_types)
            p_hat = _empirical(counts)
            want.append((p_hat.probs.tobytes(), bne_select(p_hat, cfg)))
        assert seen == want, config
        assert res.plays.action.tolist() == [a for _, (a, _) in want for _ in range(run.h)]
        bne_runs += 1
    assert bne_runs == 192
