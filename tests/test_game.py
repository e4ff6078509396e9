"""Utility functions, domain types and their invariants."""

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    ConfigurationError,
    GameConfig,
    PayoffConfig,
    Strategy,
    TypeDistribution,
    adversary_utility,
    default_config,
    expected_learner_utility,
    learner_utility,
    pure_learner_utilities,
)


@pytest.fixture
def cfg():
    return default_config()


def random_config(rng, n_classifiers=None, n_types=None):
    nc = n_classifiers or int(rng.integers(1, 6))
    nt = n_types or int(rng.integers(1, 6))
    import warnings
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
    def test_pure_strategy_on_clean_data(self, cfg):
        s = Strategy.pure(0, 3)
        assert learner_utility(s, 0, cfg) == pytest.approx(0.9392, abs=1e-12)

    def test_zero_values_zero_costs(self, cfg):
        payoff = PayoffConfig(
            v_learner=np.zeros((3, 4)), v_adversary=np.ones((3, 4)),
            c_classifier=np.zeros(3), c_type=np.zeros(4),
        )
        zero_cfg = GameConfig(cfg.accuracy, payoff)
        for j in range(3):
            for theta in range(4):
                assert learner_utility(Strategy.pure(j, 3), theta, zero_cfg) == 0.0

    def test_mixed_strategy_on_strength_two(self, cfg):
        s = Strategy(np.array([0.5, 0.5, 0.0]))
        expected = 0.5 * 0.7706 + 0.5 * 0.7922
        assert learner_utility(s, 2, cfg) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7814, abs=1e-12)

    def test_dimension_mismatch_raises(self, cfg):
        with pytest.raises(ConfigurationError):
            learner_utility(Strategy.uniform(2), 0, cfg)
        with pytest.raises(ConfigurationError):
            learner_utility(Strategy.uniform(3), 7, cfg)


class TestExpectedLearnerUtility:
    def test_degenerate_belief_equals_pointwise_utility(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = Strategy(random_simplex(rng, 3))
            theta = int(rng.integers(4))
            belief = TypeDistribution.degenerate(theta, 4)
            assert expected_learner_utility(s, belief, cfg) == \
                learner_utility(s, theta, cfg)

    def test_uniform_belief_pure_hardened(self, cfg):
        belief = TypeDistribution.uniform(4)
        got = expected_learner_utility(Strategy.pure(2, 3), belief, cfg)
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
            s = Strategy(random_simplex(rng, 3))
            belief = TypeDistribution(random_simplex(rng, 4))
            assert expected_learner_utility(s, belief, cost_cfg) == pytest.approx(-0.1)


class TestAdversaryUtility:
    def test_pure_hardened_on_strength_two(self, cfg):
        got = adversary_utility(Strategy.pure(2, 3), 2, cfg)
        assert got == pytest.approx(1 - 0.8152, abs=1e-12)

    def test_zero_values_and_costs(self, cfg):
        payoff = PayoffConfig(
            v_learner=np.ones((3, 4)), v_adversary=np.zeros((3, 4)),
            c_classifier=np.zeros(3), c_type=np.zeros(4),
        )
        zero_cfg = GameConfig(cfg.accuracy, payoff)
        rng = np.random.default_rng(5)
        for theta in range(4):
            s = Strategy(random_simplex(rng, 3))
            assert adversary_utility(s, theta, zero_cfg) == 0.0

    def test_generation_cost_subtracted(self, cfg):
        payoff = PayoffConfig(
            v_learner=np.ones((3, 4)), v_adversary=np.ones((3, 4)),
            c_classifier=np.zeros(3), c_type=np.array([0.0, 0.0, 0.0, 0.1]),
        )
        cost_cfg = GameConfig(cfg.accuracy, payoff)
        got = adversary_utility(Strategy.pure(0, 3), 3, cost_cfg)
        assert got == pytest.approx((1 - 0.6814) - 0.1, abs=1e-12)
        assert got == pytest.approx(0.2186, abs=1e-12)


class TestLinearity:
    """Both utilities are linear in the strategy argument."""

    def test_learner_utility_linear_in_strategy(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            cfg = random_config(rng)
            s1 = Strategy(random_simplex(rng, cfg.n_classifiers))
            s2 = Strategy(random_simplex(rng, cfg.n_classifiers))
            alpha = float(rng.random())
            mix = Strategy(alpha * s1.probs + (1 - alpha) * s2.probs)
            theta = int(rng.integers(cfg.n_types))
            lhs = learner_utility(mix, theta, cfg)
            rhs = alpha * learner_utility(s1, theta, cfg) \
                + (1 - alpha) * learner_utility(s2, theta, cfg)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_adversary_utility_linear_in_strategy(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            cfg = random_config(rng)
            s1 = Strategy(random_simplex(rng, cfg.n_classifiers))
            s2 = Strategy(random_simplex(rng, cfg.n_classifiers))
            alpha = float(rng.random())
            mix = Strategy(alpha * s1.probs + (1 - alpha) * s2.probs)
            theta = int(rng.integers(cfg.n_types))
            lhs = adversary_utility(mix, theta, cfg)
            rhs = alpha * adversary_utility(s1, theta, cfg) \
                + (1 - alpha) * adversary_utility(s2, theta, cfg)
            assert lhs == pytest.approx(rhs, abs=1e-9)

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
            s = Strategy(random_simplex(rng, cfg.n_classifiers))
            theta = int(rng.integers(cfg.n_types))
            assert learner_utility(s, theta, scaled) == \
                pytest.approx(k * learner_utility(s, theta, cfg), rel=1e-9)


class TestDomainTypes:
    def test_strategy_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            Strategy(np.array([0.5, 0.6]))
        with pytest.raises(ConfigurationError):
            TypeDistribution(np.array([0.2, 0.2]))

    def test_strategy_rejects_negative_entries(self):
        with pytest.raises(ConfigurationError):
            Strategy(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("cls", [Strategy, TypeDistribution])
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
            for dist in (Strategy.pure(int(rng.integers(n)), n),
                         Strategy.uniform(n)):
                assert abs(dist.probs.sum() - 1.0) <= 1e-9
                assert np.all(dist.probs >= 0)
            for dist in (TypeDistribution.uniform(n),
                         TypeDistribution.degenerate(int(rng.integers(n)), n),
                         TypeDistribution.concentrated(int(rng.integers(n)), n)):
                assert abs(dist.probs.sum() - 1.0) <= 1e-9
                assert np.all(dist.probs >= 0)

    def test_concentrated_shape(self):
        p = TypeDistribution.concentrated(0, 4)
        np.testing.assert_allclose(p.probs, [0.98, 0.00667, 0.00667, 0.00666])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

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
        import warnings
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
                  lambda: default_config().payoff, lambda: TypeDistribution.uniform(4),
                  lambda: Strategy.uniform(3)]
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
            s = Strategy(random_simplex(rng, cfg.n_classifiers))
            theta = int(rng.integers(cfg.n_types))
            u_l = learner_utility(s, theta, cfg)
            u_a = adversary_utility(s, theta, cfg)
            assert -cfg.payoff.c_classifier.max() - 1e-9 <= u_l <= cfg.payoff.v_learner.max() + 1e-9
            assert -cfg.payoff.c_type.max() - 1e-9 <= u_a <= cfg.payoff.v_adversary.max() + 1e-9

    def test_pure_utilities_vector_matches_scalar_path(self, cfg):
        rng = np.random.default_rng(37)
        belief = TypeDistribution(random_simplex(rng, 4))
        vec = pure_learner_utilities(belief, cfg)
        for j in range(3):
            assert vec[j] == pytest.approx(
                expected_learner_utility(Strategy.pure(j, 3), belief, cfg), abs=1e-12
            )
