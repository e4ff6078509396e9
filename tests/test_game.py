"""Utility tables, domain types and their invariants."""

import warnings

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    BeliefState,
    ConfigurationError,
    GameConfig,
    PayoffConfig,
    SelfPlayConfig,
    TypeDistribution,
    bu_conditional,
    default_config,
    fp_conditional,
    pure_learner_utilities,
    record_observation,
    self_play,
)
from tests import payoff_oracle as oracle


@pytest.fixture
def cfg():
    return default_config()


def random_config(rng, n_classifiers=None, n_types=None):
    nc = n_classifiers or int(rng.integers(1, 6))
    nt = n_types or int(rng.integers(1, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        acc = AccuracyMatrix(rng.random((nc, nt)))
    payoff = PayoffConfig(
        v_learner=rng.random((nc, nt)) * 2,
        v_adversary=rng.random((nc, nt)) * 2,
        c_classifier=rng.random(nc) * 0.5,
        c_type=rng.random(nt) * 0.5,
    )
    return GameConfig(acc, payoff)


def random_simplex(rng, n):
    raw = rng.random(n) + 1e-12
    return raw / raw.sum()


class TestLearnerUtility:
    """The learner's entries of `GameConfig.expected_utilities`: row 0 of
    each type's [2, n_classifiers] table."""

    def test_pure_strategy_on_clean_data(self, cfg):
        assert cfg.expected_utilities[0][0, 0] == pytest.approx(0.9392, abs=1e-12)

    def test_zero_values_zero_costs(self, cfg):
        payoff = PayoffConfig(
            v_learner=np.zeros((3, 4)), v_adversary=np.ones((3, 4)),
            c_classifier=np.zeros(3), c_type=np.zeros(4),
        )
        zero_cfg = GameConfig(cfg.accuracy, payoff)
        for theta in range(4):
            assert zero_cfg.expected_utilities[theta][0].tolist() == [0.0] * 3
            assert zero_cfg.realized_utilities[theta][0].tolist() == [0.0] * 6

    def test_mixed_strategy_on_strength_two(self, cfg):
        """A half-half mix of L0 and L1 is worth the mean of their entries."""
        row = cfg.expected_utilities[2][0]
        expected = 0.5 * 0.7706 + 0.5 * 0.7922
        assert 0.5 * row[0] + 0.5 * row[1] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7814, abs=1e-12)

    def test_dimension_mismatch_raises(self, cfg):
        with pytest.raises(ConfigurationError,
                           match=r"^belief: expected 4 entries, got 3$"):
            pure_learner_utilities(TypeDistribution.uniform(3), cfg)


class TestExpectedLearnerUtility:
    """`pure_learner_utilities`: the learner's table entries weighted by a
    belief over types."""

    def test_degenerate_belief_equals_pointwise_utility(self, cfg):
        for theta in range(4):
            belief = TypeDistribution.degenerate(theta, 4)
            assert pure_learner_utilities(belief, cfg).tolist() == \
                cfg.expected_utilities[theta][0].tolist()

    def test_uniform_belief_pure_hardened(self, cfg):
        got = pure_learner_utilities(TypeDistribution.uniform(4), cfg)[2]
        expected = (0.94 + 0.8782 + 0.8152 + 0.7502) / 4
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.8459, abs=1e-4)

    def test_cost_only(self, cfg):
        payoff = PayoffConfig(
            v_learner=np.zeros((3, 4)), v_adversary=np.ones((3, 4)),
            c_classifier=np.full(3, 0.1), c_type=np.zeros(4),
        )
        cost_cfg = GameConfig(cfg.accuracy, payoff)
        rng = np.random.default_rng(3)
        for _ in range(20):
            belief = TypeDistribution(random_simplex(rng, 4))
            assert pure_learner_utilities(belief, cost_cfg) == pytest.approx([-0.1] * 3)


class TestAdversaryUtility:
    """The adversary's entries of `GameConfig.expected_utilities`: row 1 of
    each type's table."""

    def test_pure_hardened_on_strength_two(self, cfg):
        got = cfg.expected_utilities[2][1, 2]
        assert got == pytest.approx(1 - 0.8152, abs=1e-12)

    def test_zero_values_and_costs(self, cfg):
        payoff = PayoffConfig(
            v_learner=np.ones((3, 4)), v_adversary=np.zeros((3, 4)),
            c_classifier=np.zeros(3), c_type=np.zeros(4),
        )
        zero_cfg = GameConfig(cfg.accuracy, payoff)
        for theta in range(4):
            assert zero_cfg.expected_utilities[theta][1].tolist() == [0.0] * 3
            assert zero_cfg.realized_utilities[theta][1].tolist() == [0.0] * 6

    def test_generation_cost_subtracted(self, cfg):
        payoff = PayoffConfig(
            v_learner=np.ones((3, 4)), v_adversary=np.ones((3, 4)),
            c_classifier=np.zeros(3), c_type=np.array([0.0, 0.0, 0.0, 0.1]),
        )
        cost_cfg = GameConfig(cfg.accuracy, payoff)
        got = cost_cfg.expected_utilities[3][1, 0]
        assert got == pytest.approx((1 - 0.6814) - 0.1, abs=1e-12)
        assert got == pytest.approx(0.2186, abs=1e-12)


class TestLinearity:
    """Scaling the learner's values and costs scales its utilities."""

    def test_positive_homogeneity_in_values_and_costs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            cfg = random_config(rng)
            k = float(rng.random() * 5 + 0.1)
            scaled = GameConfig(
                cfg.accuracy,
                PayoffConfig(
                    v_learner=k * cfg.payoff.v_learner,
                    v_adversary=cfg.payoff.v_adversary,
                    c_classifier=k * cfg.payoff.c_classifier,
                    c_type=cfg.payoff.c_type,
                ),
            )
            theta = int(rng.integers(cfg.n_types))
            np.testing.assert_allclose(scaled.expected_utilities[theta][0],
                                       k * cfg.expected_utilities[theta][0], rtol=1e-9)


def oracle_games(rng, n_games):
    """Random games, every other one with entries from a small grid so
    that ties are common, each with a belief over its types."""
    for case in range(n_games):
        nc, nt = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        if case % 2:
            acc, v_l, v_a = rng.random((nc, nt)), rng.random((nc, nt)), rng.random((nc, nt))
            c_c, c_t = rng.random(nc) * 0.3, rng.random(nt) * 0.3
            raw = rng.random(nt) + 1e-9
        else:
            acc = rng.choice([0.0, 0.5, 1.0], (nc, nt))
            v_l, v_a = rng.choice([0.0, 1.0, 2.0], (2, nc, nt))
            c_c, c_t = rng.choice([0.0, 0.5], nc), rng.choice([0.0, 0.5], nt)
            raw = rng.choice([0.0, 1.0], nt)
            raw[0] = 1.0
        payoff = PayoffConfig(v_l, v_a, c_c, c_t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = GameConfig(AccuracyMatrix(acc), payoff)
        yield cfg, TypeDistribution(raw / raw.sum())


class TestTablesMatchTheMixedStrategyOracle:
    def test_every_entry_equals_the_oracle_on_its_pure_strategy(self):
        """On random games, tie-heavy ones included, every table entry is
        the mixed-strategy formula's value on the matching pure strategy,
        exactly.  A realized column with correctness b is the formula on
        the game whose accuracies are all b."""
        rng = np.random.default_rng(53)
        for cfg, belief in oracle_games(rng, 600):
            nc, nt = cfg.n_classifiers, cfg.n_types
            certain = [GameConfig(AccuracyMatrix(np.full((nc, nt), b)), cfg.payoff)
                       for b in (0.0, 1.0)]
            learner = pure_learner_utilities(belief, cfg).tolist()
            for j in range(nc):
                s = oracle.Strategy.pure(j, nc)
                for theta in range(nt):
                    assert cfg.expected_utilities[theta][:, j].tolist() == [
                        oracle.learner_utility(s, theta, cfg),
                        oracle.adversary_utility(s, theta, cfg)]
                    for b, game in enumerate(certain):
                        assert cfg.realized_utilities[theta][:, 2 * j + b].tolist() == [
                            oracle.learner_utility(s, theta, game),
                            oracle.adversary_utility(s, theta, game)]
                assert learner[j] == oracle.expected_learner_utility(s, belief, cfg)
                reply = oracle.adversary_utilities(s, cfg).tolist()
                assert cfg.best_response_types[j] == reply.index(max(reply))


class TestDomainTypes:
    def test_type_distribution_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="must sum to 1"):
            TypeDistribution(np.array([0.2, 0.2]))

    @pytest.mark.parametrize("cls", [TypeDistribution])
    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_nan_is_refused_at_every_position(self, cls, n):
        for k in range(n):
            probs = np.full(n, 1.0 / n)
            probs[k] = np.nan
            with pytest.raises(ConfigurationError, match="must lie in"):
                cls(probs)

    def test_constructors_land_on_simplex(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            for dist in (TypeDistribution.uniform(n),
                         TypeDistribution.degenerate(int(rng.integers(n)), n),
                         TypeDistribution.concentrated(int(rng.integers(n)), n)):
                assert abs(dist.probs.sum() - 1.0) <= 1e-9
                assert np.all(dist.probs >= 0)

    @pytest.mark.parametrize("n_types, message", [
        (0, "must be >= 1, got 0"), (-1, "must be >= 1, got -1"),
        (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
    ])
    @pytest.mark.parametrize("make", [TypeDistribution.uniform,
                                      lambda n_types: BeliefState.fresh(3, n_types)],
                             ids=["uniform", "fresh-belief"])
    def test_bad_type_count_refused_in_one_line(self, make, n_types, message):
        with pytest.raises(ConfigurationError, match=rf"^n_types: {message}$"):
            make(n_types)

    @pytest.mark.parametrize("make, name", [(TypeDistribution.degenerate, "type_id"),
                                            (TypeDistribution.concentrated, "type_id")])
    def test_one_hot_constructors_refuse_bad_indices(self, make, name):
        """An index numpy would count from the end (-1), one past the end
        or a non-integer is refused with one line naming it; a numpy
        integer is an index like any other."""
        for index in (-1, 4, 1.5):
            with pytest.raises(ConfigurationError,
                               match=rf"^{name}: must be an integer in \[0, 4\), got {index}$"):
                make(index, 4)
        probs = make(np.int64(3), 4).probs
        assert int(np.argmax(probs)) == 3 and probs[3] >= 0.98
        assert not probs.flags.writeable

    def test_concentrated_shape(self):
        p = TypeDistribution.concentrated(0, 4)
        np.testing.assert_allclose(p.probs, [0.98, 0.00667, 0.00667, 0.00666])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)
        # the focus mass is a constant, not a setting
        from clfgame.game import CONCENTRATED_MASS
        assert p.probs[0] == CONCENTRATED_MASS == 0.98
        with pytest.raises(TypeError):
            TypeDistribution.concentrated(0, 4, mass=0.9)

    @staticmethod
    def rounded_split(type_id, n_types, mass=0.98):
        """`concentrated` before large type counts were handled: the split
        rounded to 5 decimals, the last non-focus entry the remainder,
        which is negative for 132 of the counts from 2 to 399."""
        share = round((1.0 - mass) / (n_types - 1), 5)
        probs = np.full(n_types, share)
        probs[type_id] = mass
        others = [i for i in range(n_types) if i != type_id]
        probs[others[-1]] = 1.0 - mass - share * (len(others) - 1)
        return probs

    def test_concentrated_is_a_distribution_for_every_type_count(self):
        """Where the rounded split is a distribution the bits are unchanged;
        elsewhere the entries are non-negative with 0.98 on the focus."""
        from clfgame.game import SIMPLEX_ATOL
        changed = set()
        for n in range(1, 401):
            for focus in {0, n // 2, n - 1}:
                probs = TypeDistribution.concentrated(focus, n).probs
                assert probs.min() >= 0.0, (n, focus)
                assert abs(probs.sum() - 1.0) <= SIMPLEX_ATOL, (n, focus)
                if n == 1:
                    assert probs.tolist() == [1.0]
                    continue
                assert probs[focus] == 0.98, (n, focus)
                rounded = self.rounded_split(focus, n)
                if rounded.min() >= 0.0:
                    assert probs.tobytes() == rounded.tobytes(), (n, focus)
                else:
                    changed.add(n)
        assert min(changed) == 71 and len(changed) == 132

    def test_accuracy_entries_bounded(self):
        with pytest.raises(ConfigurationError, match=r"accuracy out of \[0,1\]"):
            AccuracyMatrix(np.array([[0.5, 1.2]]))

    def test_hardening_dip_warns_but_passes(self):
        with pytest.warns(UserWarning, match="monotonicity"):
            AccuracyMatrix(np.array([[0.9, 0.5], [0.85, 0.6]]))

    def test_hardening_dip_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="monotonicity") as caught:
            AccuracyMatrix(np.array([[0.9, 0.5], [0.85, 0.6]]))
        assert [w.filename for w in caught] == [__file__]

    def test_monotone_matrix_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            AccuracyMatrix(np.array([[0.8, 0.5], [0.9, 0.6]]))

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            PayoffConfig(
                v_learner=np.ones((2, 2)), v_adversary=np.ones((2, 2)),
                c_classifier=np.array([-0.1, 0.0]), c_type=np.zeros(2),
            )

    def test_cross_dimension_checks(self, cfg):
        with pytest.raises(ConfigurationError):
            GameConfig(cfg.accuracy, PayoffConfig.unit(3, 5))

    def test_value_types_compare_by_identity(self):
        """`==` on two equal-valued instances is False instead of numpy's
        ambiguous-truth `ValueError`, an instance equals itself, and each
        hashes by identity."""
        makers = [default_config, lambda: default_config().accuracy,
                  lambda: default_config().payoff, lambda: TypeDistribution.uniform(4)]
        for make in makers:
            a, b = make(), make()
            assert a == a
            assert not a == b
            assert a != b
            assert len({a, a, b}) == 2

    def test_dimensions_are_the_accuracy_shape(self, cfg):
        """The constructor takes the matrix and the payoffs only; the
        dimensions are read-only properties of the matrix's shape."""
        game = GameConfig(AccuracyMatrix(np.full((2, 5), 0.5)), PayoffConfig.unit(2, 5))
        assert (game.n_classifiers, game.n_types) == (2, 5)
        with pytest.raises(AttributeError):
            game.n_types = 4
        with pytest.raises(TypeError):
            GameConfig(3, 4, cfg.accuracy, cfg.payoff)

    def test_default_config_matches_bundled_matrix(self, cfg):
        assert cfg.n_classifiers == 3 and cfg.n_types == 4
        assert cfg.accuracy.acc[0, 0] == 0.9392
        assert cfg.accuracy.acc[2, 3] == 0.7502
        np.testing.assert_array_equal(cfg.payoff.v_learner, np.ones((3, 4)))
        np.testing.assert_array_equal(cfg.payoff.c_classifier, np.zeros(3))

    def test_utilities_stay_in_payoff_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            cfg = random_config(rng)
            for table in cfg.expected_utilities + cfg.realized_utilities:
                u_l, u_a = table
                assert -cfg.payoff.c_classifier.max() <= u_l.min()
                assert u_l.max() <= cfg.payoff.v_learner.max()
                assert -cfg.payoff.c_type.max() <= u_a.min()
                assert u_a.max() <= cfg.payoff.v_adversary.max()

    def test_pure_utilities_vector_matches_scalar_path(self, cfg):
        """Each entry is the belief-weighted sum of the classifier's
        learner entries, type by type."""
        rng = np.random.default_rng(37)
        belief = TypeDistribution(random_simplex(rng, 4))
        vec = pure_learner_utilities(belief, cfg)
        for j in range(3):
            scalar = sum(p * table[0, j]
                         for p, table in zip(belief.probs.tolist(), cfg.expected_utilities))
            assert vec[j] == pytest.approx(scalar, abs=1e-12)


#: Each entry point that takes an index into a 3-classifier, 3-type game,
#: with the name its one-line refusal starts with.
INDEX_TAKERS = {
    "self_play": ("classifier", lambda index: self_play(
        default_config(), SelfPlayConfig(h=2, n_trials=2, q=2, seed=5), index)),
    "degenerate": ("type_id", lambda index: TypeDistribution.degenerate(index, 3)),
    "concentrated": ("type_id", lambda index: TypeDistribution.concentrated(index, 3)),
    "record_observation-classifier": ("classifier", lambda index: record_observation(
        BeliefState.fresh(3, 3), index, 0)),
    "record_observation-type": ("type", lambda index: record_observation(
        BeliefState.fresh(3, 3), 0, index)),
    "fp_conditional": ("classifier", lambda index: fp_conditional(
        BeliefState.fresh(3, 3), index)),
    "bu_conditional": ("classifier", lambda index: bu_conditional(
        BeliefState.fresh(3, 3), index)),
}


class TestIndexRule:
    """One rule for an index into the game: an integer in [0, n), refused
    in one line that shows the refused value."""

    @pytest.mark.parametrize("taker", INDEX_TAKERS)
    @pytest.mark.parametrize("index", [1.5, True, -1, 3, "1"],
                             ids=["float", "bool", "negative", "past-the-end", "str"])
    def test_bad_index_is_refused_in_one_line(self, taker, index):
        name, take = INDEX_TAKERS[taker]
        with pytest.raises(ConfigurationError) as err:
            take(index)
        assert str(err.value) == f"{name}: must be an integer in [0, 3), got {index!r}"

    @pytest.mark.parametrize("taker", INDEX_TAKERS)
    def test_numpy_integer_is_an_index(self, taker):
        _, take = INDEX_TAKERS[taker]
        take(np.int64(2))
