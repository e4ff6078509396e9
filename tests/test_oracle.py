"""Stochastic oracle: calibration, determinism, and query generation."""

import re

import numpy as np
import pytest

from clfgame import (
    ClassificationMode,
    ConfigurationError,
    classify,
    default_config,
    empirical_accuracy,
    generate_queries,
)


#: The doubles an expectation-mode `classify` reads: none.
NO_DOUBLES = np.empty(0)


@pytest.fixture
def cfg():
    return default_config()


class TestGenerateQueries:
    def test_batch_carries_the_requested_type(self):
        queries = generate_queries(2, 10)
        assert queries.tolist() == [2] * 10
        assert queries.dtype.kind == "i"
        assert not queries.flags.writeable

    def test_single_query(self):
        (query,) = generate_queries(0, 1)
        assert query == 0

    def test_zero_batch_is_empty(self):
        assert generate_queries(1, 0).shape == (0,)

    def test_repeated_calls_share_one_read_only_batch(self):
        first = generate_queries(3, 12)
        assert generate_queries(3, 12) is first
        assert generate_queries(np.int64(3), 12) is first
        assert generate_queries(2, 12) is not first
        with pytest.raises(ValueError):
            first[0] = 0

    def test_another_batch_size_drops_the_kept_batches(self):
        first = generate_queries(3, 12)
        other = generate_queries(3, 13)
        assert other.tolist() == [3] * 13
        again = generate_queries(3, 12)
        assert again is not first
        assert again.tolist() == first.tolist()


class TestClassify:
    def test_expectation_mode_returns_matrix_entry(self, cfg):
        got = classify(2, np.array([3]), cfg, ClassificationMode.EXPECTATION, NO_DOUBLES)
        assert got.tolist() == [0.7502]

    def test_certain_classifier_always_correct(self, cfg):
        from clfgame import AccuracyMatrix, GameConfig
        sure = GameConfig(AccuracyMatrix(np.ones((1, 1))), cfg.payoff.unit(1, 1))
        zeros = np.zeros(20, dtype=np.int64)
        u = np.random.default_rng(5).random(20)
        assert classify(0, zeros, sure, ClassificationMode.STOCHASTIC, u).all()
        assert classify(0, zeros, sure, ClassificationMode.EXPECTATION,
                        NO_DOUBLES).tolist() == [1.0] * 20

    def test_stochastic_mode_concentrates_on_entry(self, cfg):
        draws = classify(2, generate_queries(2, 50_000), cfg,
                         ClassificationMode.STOCHASTIC,
                         np.random.default_rng(11).random(50_000))
        assert draws.dtype == bool
        assert np.mean(draws) == pytest.approx(0.8152, abs=0.01)


class TestEmpiricalAccuracy:
    def test_reconstructs_configured_cell(self, cfg):
        got = empirical_accuracy(0, 0, 50_000, cfg, np.random.default_rng(13))
        assert got == pytest.approx(0.9392, abs=0.01)

    def test_zero_entry_exact(self, cfg):
        from clfgame import AccuracyMatrix, GameConfig, PayoffConfig
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dead = GameConfig(AccuracyMatrix(np.zeros((1, 1))),
                              PayoffConfig.unit(1, 1))
        assert empirical_accuracy(0, 0, 1000, dead, np.random.default_rng(17)) == 0.0

    def test_single_draw_is_binary(self, cfg):
        got = empirical_accuracy(1, 1, 1, cfg, np.random.default_rng(19))
        assert got in (0.0, 1.0)

    def test_long_run_frequency_tight(self, cfg):
        for k, seed in enumerate(range(10)):
            j, i = k % 3, k % 4
            got = empirical_accuracy(j, i, 100_000, cfg, np.random.default_rng(23 + seed))
            assert abs(got - cfg.accuracy.acc[j, i]) <= 0.005

    def test_is_the_mean_of_one_comparison_per_draw(self, cfg):
        for seed in range(20):
            j, i, n = seed % 3, seed % 4, 1 + 997 * seed
            got = empirical_accuracy(j, i, n, cfg, np.random.default_rng(seed))
            draws = np.random.default_rng(seed).random(n) < float(cfg.accuracy.acc[j, i])
            assert got == float(draws.mean())

    @pytest.mark.parametrize("n, message", [
        (0, "must be >= 1, got 0"), (-1, "must be >= 1, got -1"),
        (2.5, "must be an integer, got 2.5"),
    ])
    def test_bad_sample_count_refused(self, cfg, n, message):
        with pytest.raises(ConfigurationError, match=rf"^n: {message}$"):
            empirical_accuracy(0, 0, n, cfg, np.random.default_rng(0))


class TestRandomStream:
    def test_same_seed_same_stream(self):
        """A plain generator seeded with an int draws what one seeded with
        that int's SeedSequence does, so seeding either way is the same run."""
        a = np.random.default_rng(42)
        b = np.random.default_rng(np.random.SeedSequence(42))
        assert a.random(100).tolist() == b.random(100).tolist()


class TestClassifyBatch:
    """A batch is answered by one classifier with one range-checked lookup
    and one comparison with doubles drawn in one random call, and agrees
    with one draw per query."""

    @staticmethod
    def per_query(classifier, types, cfg, mode, rng):
        acc = cfg.accuracy.acc
        if mode is ClassificationMode.EXPECTATION:
            return [float(acc[classifier, t]) for t in types]
        return [1.0 if rng.random() < acc[classifier, t] else 0.0 for t in types]

    @staticmethod
    def answer_in_turn(chosen, types, cfg, mode):
        """Answer the batch `types` with each classifier of `chosen` in turn,
        as a run of plays would."""
        types = np.array(types)
        for classifier in np.ravel(chosen).tolist():
            classify(classifier, types, cfg, mode, np.zeros(types.shape))

    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_matches_scalar_calls_and_stream(self, cfg, mode):
        for seed in range(50):
            meta = np.random.default_rng(seed)
            size = int(meta.integers(1, 40))
            classifier = int(meta.integers(0, 3))
            types = (generate_queries(int(meta.integers(4)), size) if seed % 2
                     else meta.integers(0, 4, size=size))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            if mode is ClassificationMode.STOCHASTIC:
                batch = classify(classifier, types, cfg, mode, ours.random(size))
                assert batch.dtype == bool
            else:
                batch = classify(classifier, types, cfg, mode, NO_DOUBLES)
                assert batch.dtype == np.float64
            assert batch.tolist() == self.per_query(classifier, types, cfg, mode, theirs)
            assert ours.random() == theirs.random()

    def test_expectation_mode_draws_nothing(self, cfg):
        for u in (NO_DOUBLES, np.full(3, np.nan)):
            for classifier in range(3):
                got = classify(classifier, generate_queries(3, 3), cfg,
                               ClassificationMode.EXPECTATION, u)
                assert got.tolist() == [cfg.accuracy.acc[classifier, 3]] * 3

    @pytest.mark.parametrize("chosen, type_id", [
        ([0, 3, 1], 0),
        ([-1, 0], 1),
        ([0, 1], 4),
        ([2], -1),
    ])
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_out_of_range_raises(self, cfg, chosen, type_id, mode):
        with pytest.raises(ConfigurationError, match="must be an integer in"):
            self.answer_in_turn(chosen, np.full(len(chosen), type_id), cfg, mode)

    def test_empty_batch(self, cfg):
        got = classify(0, generate_queries(1, 0), cfg,
                       ClassificationMode.STOCHASTIC, NO_DOUBLES)
        assert got.shape == (0,)

    def test_classifier_must_be_one_index(self, cfg):
        """A batch has one classifier: an array of them, which would
        broadcast against the queries, a float or a bool is refused in one
        line."""
        for classifier in (np.array([0, 1, 2]), np.array([1]), 1.0, 1.5, True, np.True_):
            with pytest.raises(ConfigurationError,
                               match=r"^classifier: must be an integer in \[0, 3\), got [^\n]*$"):
                classify(classifier, generate_queries(1, 1), cfg,
                         ClassificationMode.EXPECTATION, NO_DOUBLES)

    def test_doubles_shape_mismatch_raises(self, cfg):
        """One double per query, or the comparison would broadcast."""
        message = r"^shape mismatch: \(1,\) doubles for \(3,\) queries$"
        with pytest.raises(ValueError, match=message):
            classify(1, generate_queries(1, 3), cfg,
                     ClassificationMode.STOCHASTIC, np.full(1, 0.5))

    @pytest.mark.parametrize("chosen, types, bad, message", [
        ([0, 1, 2, 3, 1], [0, 0, 0, 0, 0], "classifier index 3",
         "classifier: must be an integer in [0, 3), got 3"),
        ([0, -2, 1], [1, 1, 1], "classifier index -2",
         "classifier: must be an integer in [0, 3), got -2"),
        ([0, 1, 2], [3, 4, 0], "type index 4",
         "type: must be an integer in [0, 4), got 4"),
        ([0, 1, 2], [0, -1, 3], "type index -1",
         "type: must be an integer in [0, 4), got -1"),
        ([[0, 1], [2, 0]], [[0, 1], [9, 2]], "type index 9",
         "type: must be an integer in [0, 4), got 9"),
        ([[7, 0], [2, 0]], [[0, 1], [-9, 2]], "classifier index 7",
         "classifier: must be an integer in [0, 3), got 7"),
    ])
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_error_names_the_bad_id(self, cfg, chosen, types, bad, message, mode):
        """The first refused answer names its bad id (`bad`), the
        classifier's before the queries' when both are bad, in the exact
        one-line `message`."""
        kind, _, index = bad.split()
        assert message.startswith(f"{kind}: ") and message.endswith(f"got {index}")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            self.answer_in_turn(chosen, types, cfg, mode)
