"""Stochastic oracle: calibration, determinism, and query generation."""

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


class TestClassify:
    def test_expectation_mode_returns_matrix_entry(self, cfg):
        got = classify(np.array([2]), np.array([3]), cfg,
                       ClassificationMode.EXPECTATION, np.random.default_rng(0))
        assert got.tolist() == [0.7502]

    def test_certain_classifier_always_correct(self, cfg):
        from clfgame import AccuracyMatrix, GameConfig
        sure = GameConfig(AccuracyMatrix(np.ones((1, 1))), cfg.payoff.unit(1, 1))
        zeros = np.zeros(20, dtype=np.int64)
        rng = np.random.default_rng(5)
        for mode in ClassificationMode:
            assert classify(zeros, zeros, sure, mode, rng).tolist() == [1.0] * 20

    def test_stochastic_mode_concentrates_on_entry(self, cfg):
        draws = classify(np.full(50_000, 2), generate_queries(2, 50_000), cfg,
                         ClassificationMode.STOCHASTIC, np.random.default_rng(11))
        assert set(draws.tolist()) <= {0.0, 1.0}
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


class TestRandomStream:
    def test_same_seed_same_stream(self):
        """A plain generator seeded with an int draws what one seeded with
        that int's SeedSequence does, so seeding either way is the same run."""
        a = np.random.default_rng(42)
        b = np.random.default_rng(np.random.SeedSequence(42))
        assert a.random(100).tolist() == b.random(100).tolist()


class TestClassifyBatch:
    """A batch is answered with one range-checked lookup and one random
    call, and agrees with one draw per query."""

    @staticmethod
    def per_query(chosen, types, cfg, mode, rng):
        acc = cfg.accuracy.acc
        if mode is ClassificationMode.EXPECTATION:
            return [float(acc[j, t]) for j, t in zip(chosen, types)]
        return [1.0 if rng.random() < acc[j, t] else 0.0
                for j, t in zip(chosen, types)]

    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_matches_scalar_calls_and_stream(self, cfg, mode):
        for seed in range(50):
            meta = np.random.default_rng(seed)
            size = int(meta.integers(1, 40))
            chosen = meta.integers(0, 3, size=size)
            types = (generate_queries(int(meta.integers(4)), size) if seed % 2
                     else meta.integers(0, 4, size=size))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = classify(chosen, types, cfg, mode, ours)
            assert batch.dtype == np.float64
            assert batch.tolist() == self.per_query(chosen, types, cfg, mode, theirs)
            assert ours.random() == theirs.random()

    def test_expectation_mode_draws_nothing(self, cfg):
        rng = np.random.default_rng(3)
        got = classify(np.array([0, 2, 1]), generate_queries(3, 3), cfg,
                       ClassificationMode.EXPECTATION, rng)
        np.testing.assert_array_equal(got, cfg.accuracy.acc[[0, 2, 1], 3])
        assert rng.random() == np.random.default_rng(3).random()

    @pytest.mark.parametrize("chosen, type_id", [
        ([0, 3, 1], 0),
        ([-1, 0], 1),
        ([0, 1], 4),
        ([2], -1),
    ])
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_out_of_range_raises(self, cfg, chosen, type_id, mode):
        with pytest.raises(ConfigurationError, match="out of range"):
            classify(np.array(chosen), np.full(len(chosen), type_id), cfg, mode,
                     np.random.default_rng(0))

    def test_empty_batch(self, cfg):
        got = classify(np.array([], dtype=np.int64), generate_queries(1, 0), cfg,
                       ClassificationMode.STOCHASTIC, np.random.default_rng(0))
        assert got.shape == (0,)

    def test_shape_mismatch_raises(self, cfg):
        with pytest.raises(ValueError, match="shape mismatch"):
            classify(np.array([0, 1, 2]), generate_queries(1, 1), cfg,
                     ClassificationMode.EXPECTATION, np.random.default_rng(0))

    @pytest.mark.parametrize("chosen, types, message", [
        ([0, 1, 2, 3, 1], [0, 0, 0, 0, 0], "classifier index 3 out of range"),
        ([0, -2, 1], [1, 1, 1], "classifier index -2 out of range"),
        ([0, 1, 2], [3, 4, 0], "type index 4 out of range"),
        ([0, 1, 2], [0, -1, 3], "type index -1 out of range"),
        ([[0, 1], [2, 0]], [[0, 1], [9, 2]], "type index 9 out of range"),
        ([[0, 7], [2, 0]], [[0, 1], [-9, 2]], "classifier index 7 out of range"),
    ])
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_error_names_the_bad_id(self, cfg, chosen, types, message, mode):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            classify(np.array(chosen), np.array(types), cfg, mode, rng)
        assert rng.random() == np.random.default_rng(0).random()
