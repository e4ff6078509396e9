"""Stochastic oracle: calibration, determinism, and query generation."""

import numpy as np
import pytest

from clfgame import (
    ClassificationMode,
    ConfigurationError,
    Query,
    RandomSource,
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
        queries = generate_queries(2, 10, RandomSource(1))
        assert len(queries) == 10
        assert all(q.type_id == 2 for q in queries)
        assert [q.query_id for q in queries] == list(range(10))
        assert all(q.true_label in (0, 1) for q in queries)

    def test_single_query(self):
        (query,) = generate_queries(0, 1, RandomSource(2))
        assert query.type_id == 0

    def test_zero_batch_is_empty(self):
        assert generate_queries(1, 0, RandomSource(3)) == []

    def test_fixed_seed_reproduces_labels(self):
        a = [q.true_label for q in generate_queries(1, 50, RandomSource(99))]
        b = [q.true_label for q in generate_queries(1, 50, RandomSource(99))]
        assert a == b
        assert 0 in a and 1 in a  # labels actually vary

    def test_labels_are_roughly_balanced(self):
        labels = [q.true_label for q in generate_queries(0, 20000, RandomSource(7))]
        assert abs(np.mean(labels) - 0.5) < 0.01


class TestClassify:
    def test_expectation_mode_returns_matrix_entry(self, cfg):
        query = Query(true_label=1, type_id=3, query_id=0)
        assert classify(2, query, cfg, ClassificationMode.EXPECTATION,
                        RandomSource(0)) == 0.7502

    def test_certain_classifier_always_correct(self, cfg):
        from clfgame import AccuracyMatrix, GameConfig
        sure = GameConfig(1, 1, AccuracyMatrix(np.ones((1, 1))),
                          cfg.payoff.unit(1, 1))
        query = Query(0, 0, 0)
        rng = RandomSource(5)
        for mode in ClassificationMode:
            assert all(classify(0, query, sure, mode, rng) == 1.0 for _ in range(20))

    def test_stochastic_mode_concentrates_on_entry(self, cfg):
        rng = RandomSource(11)
        query = Query(0, 2, 0)
        draws = [classify(2, query, cfg, ClassificationMode.STOCHASTIC, rng)
                 for _ in range(50_000)]
        assert set(draws) <= {0.0, 1.0}
        assert np.mean(draws) == pytest.approx(0.8152, abs=0.01)


class TestEmpiricalAccuracy:
    def test_reconstructs_configured_cell(self, cfg):
        got = empirical_accuracy(0, 0, 50_000, cfg, RandomSource(13))
        assert got == pytest.approx(0.9392, abs=0.01)

    def test_zero_entry_exact(self, cfg):
        from clfgame import AccuracyMatrix, GameConfig, PayoffConfig
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dead = GameConfig(1, 1, AccuracyMatrix(np.zeros((1, 1))),
                              PayoffConfig.unit(1, 1))
        assert empirical_accuracy(0, 0, 1000, dead, RandomSource(17)) == 0.0

    def test_single_draw_is_binary(self, cfg):
        got = empirical_accuracy(1, 1, 1, cfg, RandomSource(19))
        assert got in (0.0, 1.0)

    def test_long_run_frequency_tight(self, cfg):
        for k, seed in enumerate(range(10)):
            j, i = k % 3, k % 4
            got = empirical_accuracy(j, i, 100_000, cfg, RandomSource(23 + seed))
            assert abs(got - cfg.accuracy.acc[j, i]) <= 0.005


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(42), RandomSource(42)
        assert a.generator.random(100).tolist() == b.generator.random(100).tolist()

    def test_split_streams_are_deterministic_and_distinct(self):
        left = RandomSource(42).split(3)
        right = RandomSource(42).split(3)
        draws_l = [r.generator.random(10).tolist() for r in left]
        draws_r = [r.generator.random(10).tolist() for r in right]
        assert draws_l == draws_r
        assert draws_l[0] != draws_l[1]

    def test_split_differs_from_parent(self):
        parent = RandomSource(42)
        (child,) = parent.split(1)
        assert parent.generator.random(5).tolist() != child.generator.random(5).tolist()


class TestClassifyBatch:
    """The batch form answers a whole play's queries with one range check
    and one random call, and agrees with one scalar call per query."""

    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_matches_scalar_calls_and_stream(self, cfg, mode):
        for seed in range(50):
            meta = np.random.default_rng(seed)
            chosen = meta.integers(0, 3, size=int(meta.integers(1, 40)))
            query = Query(0, int(meta.integers(4)), 0)
            ours, theirs = RandomSource(seed), RandomSource(seed)
            batch = classify(chosen, query, cfg, mode, ours)
            scalar = [classify(int(j), query, cfg, mode, theirs) for j in chosen]
            assert batch.dtype == np.float64
            assert batch.tolist() == scalar
            assert ours.generator.random() == theirs.generator.random()

    def test_expectation_mode_draws_nothing(self, cfg):
        rng = RandomSource(3)
        got = classify(np.array([0, 2, 1]), Query(0, 3, 0), cfg,
                       ClassificationMode.EXPECTATION, rng)
        np.testing.assert_array_equal(got, cfg.accuracy.acc[[0, 2, 1], 3])
        assert rng.generator.random() == RandomSource(3).generator.random()

    @pytest.mark.parametrize("chosen, type_id", [
        ([0, 3, 1], 0),
        ([-1, 0], 1),
        ([0, 1], 4),
        ([2], -1),
    ])
    @pytest.mark.parametrize("mode", list(ClassificationMode))
    def test_out_of_range_raises(self, cfg, chosen, type_id, mode):
        with pytest.raises(ConfigurationError, match="out of range"):
            classify(np.array(chosen), Query(0, type_id, 0), cfg, mode,
                     RandomSource(0))

    def test_empty_batch(self, cfg):
        got = classify(np.array([], dtype=np.int64), Query(0, 1, 0), cfg,
                       ClassificationMode.STOCHASTIC, RandomSource(0))
        assert got.shape == (0,)


class TestLazyQueryBatch:
    """`generate_queries` returns a lazy batch that stands for the list of
    queries it used to build, and draws the same labels."""

    @staticmethod
    def reference(theta, q, rng):
        from itertools import repeat
        labels = rng.generator.integers(0, 2, size=q)
        return list(map(Query, labels.tolist(), repeat(theta), range(q)))

    @pytest.mark.parametrize("q", [0, 1, 2, 7, 64])
    def test_matches_the_list_it_replaces(self, q):
        from clfgame.oracle import QueryBatch
        ours, theirs = RandomSource(q), RandomSource(q)
        batch = generate_queries(3, q, ours)
        expected = self.reference(3, q, theirs)
        assert isinstance(batch, QueryBatch)
        assert len(batch) == len(expected)
        assert list(batch) == expected
        assert batch == expected and expected == batch
        assert not batch != expected
        assert [batch[i] for i in range(q)] == expected
        for i in range(-q, 0):
            assert batch[i] == expected[i]
        for index in (q, -q - 1, q + 5):
            with pytest.raises(IndexError):
                batch[index]
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(-3, None),
                    slice(None, None, 2), slice(None, None, -1), slice(5, 1, -2),
                    slice(q + 3, q + 9)):
            assert batch[cut] == expected[cut]
        assert batch != expected + [Query(0, 3, q)]
        assert batch != tuple(expected)
        assert ours.generator.random() == theirs.generator.random()

    def test_labels_are_read_only(self):
        batch = generate_queries(0, 5, RandomSource(1))
        with pytest.raises(ValueError):
            batch.labels[0] = 1
        with pytest.raises(TypeError):
            batch[0] = Query(0, 0, 0)
