"""Belief bookkeeping, both conditional rules, and KL divergence."""

import math

import numpy as np
import pytest

from clfgame import (
    BeliefState,
    ConfigurationError,
    TypeDistribution,
    bu_conditional,
    fp_conditional,
    kl_divergence,
    max_componentwise_error,
    record_observation,
    refresh_marginal,
)


def state_with_counts(counts, p_hat=None):
    counts = np.asarray(counts, dtype=np.int64)
    n_types = counts.shape[1]
    b = BeliefState.fresh(counts.shape[0], n_types)
    if p_hat is not None:
        from dataclasses import replace
        b = replace(b, p_hat=TypeDistribution(np.asarray(p_hat, dtype=float)))
    for j in range(counts.shape[0]):
        for i in range(n_types):
            for _ in range(int(counts[j, i])):
                b = record_observation(b, j, i)
    return b


def brute_force_bayes(counts, action, prior):
    """Independent oracle: explicit numerator/denominator arithmetic."""
    counts = np.asarray(counts, dtype=float)
    n_types = counts.shape[1]
    numerators = []
    for i in range(n_types):
        col_total = sum(counts[jj][i] for jj in range(counts.shape[0]))
        likelihood = counts[action][i] / col_total if col_total > 0 else 0.0
        numerators.append(likelihood * prior[i])
    denom = sum(numerators)
    if denom <= 0:
        return None
    return [x / denom for x in numerators]


class TestRecording:
    def test_single_observation(self):
        b = BeliefState.fresh(3, 4)
        b = record_observation(b, 0, 1)
        assert b.joint_counts[0, 1] == 1
        assert b.action_counts.tolist() == [1, 0, 0]

    def test_repeat_pair_counts_twice(self):
        b = BeliefState.fresh(3, 4)
        b = record_observation(record_observation(b, 2, 3), 2, 3)
        assert b.joint_counts[2, 3] == 2

    def test_action_counts_track_rows(self):
        b = BeliefState.fresh(3, 4)
        b = record_observation(b, 1, 0)
        b = record_observation(b, 0, 0)
        assert b.action_counts.tolist() == [1, 1, 0]

    def test_row_sum_invariant_under_random_histories(self):
        rng = np.random.default_rng(61)
        b = BeliefState.fresh(3, 4)
        for _ in range(300):
            b = record_observation(b, int(rng.integers(3)), int(rng.integers(4)))
            np.testing.assert_array_equal(b.action_counts, b.joint_counts.sum(axis=1))
        assert b.total_observations == 300

    def test_p_hat_untouched_until_refresh(self):
        b = BeliefState.fresh(2, 2)
        before = b.p_hat.probs.copy()
        b = record_observation(b, 0, 1)
        np.testing.assert_array_equal(b.p_hat.probs, before)

    def test_state_validation(self):
        prior = TypeDistribution.uniform(3)
        for k in range(6):
            counts = np.arange(6).reshape(2, 3)
            counts[divmod(k, 3)] = -1
            with pytest.raises(ConfigurationError, match="non-negative"):
                BeliefState(prior, counts, prior)
        with pytest.raises(ConfigurationError, match="2-d"):
            BeliefState(prior, np.zeros(3), prior)
        with pytest.raises(ConfigurationError, match="dimensions"):
            BeliefState(prior, np.zeros((2, 4)), prior)
        empty = BeliefState(TypeDistribution.uniform(1), np.zeros((0, 1)),
                            TypeDistribution.uniform(1))
        assert empty.total_observations == 0

    def test_out_of_range_rejected(self):
        b = BeliefState.fresh(2, 2)
        with pytest.raises(ConfigurationError):
            record_observation(b, 2, 0)
        with pytest.raises(ConfigurationError):
            record_observation(b, 0, 5)


class TestFictitiousPlayConditional:
    def test_count_ratios(self):
        b = state_with_counts([[0, 2, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        got = fp_conditional(b, 0)
        np.testing.assert_allclose(got.probs, [0, 2 / 3, 1 / 3, 0])

    def test_single_observation_degenerate(self):
        b = state_with_counts([[0, 0, 0, 1], [0, 0, 0, 0]])
        np.testing.assert_array_equal(fp_conditional(b, 0).probs, [0, 0, 0, 1])

    def test_unplayed_action_falls_back_to_prior(self):
        b = state_with_counts([[1, 2, 0, 0], [0, 0, 0, 0]])
        np.testing.assert_array_equal(fp_conditional(b, 1).probs, b.prior.probs)

    def test_sums_to_one_on_random_histories(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            counts = rng.integers(0, 6, size=(3, 4))
            b = state_with_counts(counts)
            for j in range(3):
                assert fp_conditional(b, j).probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestBayesConditional:
    def test_hand_computed_posterior(self):
        # column shares 0.8 and 0.4 for the first classifier, uniform prior
        b = state_with_counts([[4, 2], [1, 3]])
        got = bu_conditional(b, 0)
        np.testing.assert_allclose(got.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_flat_likelihood_returns_prior(self):
        b = state_with_counts([[2, 2], [2, 2]], p_hat=[0.3, 0.7])
        np.testing.assert_allclose(bu_conditional(b, 0).probs, [0.3, 0.7], atol=1e-12)

    def test_degenerate_prior_absorbs(self):
        b = state_with_counts([[4, 2], [1, 3]], p_hat=[1.0, 0.0])
        np.testing.assert_allclose(bu_conditional(b, 0).probs, [1.0, 0.0], atol=1e-12)

    def test_zero_denominator_falls_back_to_prior(self):
        b = state_with_counts([[0, 0], [1, 3]])
        np.testing.assert_array_equal(bu_conditional(b, 0).probs, b.prior.probs)

    def test_matches_brute_force_on_random_counts(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            nc, nt = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            counts = rng.integers(0, 8, size=(nc, nt))
            raw = rng.random(nt) + 1e-9
            prior = raw / raw.sum()
            b = state_with_counts(counts, p_hat=prior)
            action = int(rng.integers(nc))
            got = bu_conditional(b, action)
            want = brute_force_bayes(counts, action, prior)
            if want is None:
                np.testing.assert_array_equal(got.probs, b.prior.probs)
            else:
                np.testing.assert_allclose(got.probs, want, atol=1e-12)
            assert got.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestRefreshMarginal:
    def test_no_observations_keeps_prior(self):
        b = refresh_marginal(BeliefState.fresh(3, 4))
        np.testing.assert_array_equal(b.p_hat.probs, b.prior.probs)

    def test_single_action_history_uses_its_conditional(self):
        b = state_with_counts([[3, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        b = refresh_marginal(b)
        np.testing.assert_allclose(b.p_hat.probs, [0.75, 0.25, 0, 0])

    def test_two_actions_mix_by_frequency(self):
        b = state_with_counts([[2, 0], [0, 2]])
        b = refresh_marginal(b)
        np.testing.assert_allclose(b.p_hat.probs, [0.5, 0.5])

    def test_fp_marginal_is_empirical_distribution(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            counts = rng.integers(0, 10, size=(3, 4))
            if counts.sum() == 0:
                continue
            b = refresh_marginal(state_with_counts(counts))
            np.testing.assert_allclose(
                b.p_hat.probs, counts.sum(axis=0) / counts.sum(), atol=1e-12)

    def test_bu_marginal_converges_with_fp_on_covered_support(self):
        """Both rules' per-action mixtures equal the refreshed marginal, on
        dense counts and on sparse ones with zero rows and columns."""
        from dataclasses import replace

        def mixture(b, conditional):
            weights = b.action_counts / b.total_observations
            return sum(w * conditional(b, j).probs
                       for j, w in enumerate(weights) if w > 0)

        rng = np.random.default_rng(79)
        dense = [rng.integers(1, 10, size=(3, 4)) for _ in range(50)]
        sparse = []
        while len(sparse) < 200:
            counts = rng.integers(0, 6, size=(int(rng.integers(1, 5)),
                                              int(rng.integers(1, 6))))
            counts[rng.random(counts.shape[0]) < 0.3] = 0
            counts[:, rng.random(counts.shape[1]) < 0.3] = 0
            if counts.any():
                sparse.append(counts)
        for counts in dense + sparse:
            b = refresh_marginal(state_with_counts(counts))
            np.testing.assert_allclose(b.p_hat.probs, mixture(b, fp_conditional),
                                       atol=1e-12)
            # the Bayes mixture takes the count-consistent marginal as prior
            count_prior = replace(b, p_hat=TypeDistribution(
                counts.sum(axis=0) / counts.sum()))
            np.testing.assert_allclose(b.p_hat.probs,
                                       mixture(count_prior, bu_conditional),
                                       atol=1e-12)

    def test_fp_converges_on_iid_observations(self):
        """Under i.i.d. types and a full-support action policy the refreshed
        marginal lands within KL 0.05 of the source distribution."""
        passes = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            raw = rng.random(4) + 0.05
            p = raw / raw.sum()
            b = BeliefState.fresh(3, 4)
            for _ in range(1000):
                b = record_observation(b, int(rng.integers(3)),
                                       int(rng.choice(4, p=p)))
            b = refresh_marginal(b)
            if kl_divergence(b.p_hat, TypeDistribution(p)) <= 0.05:
                passes += 1
        assert passes >= 19  # 0.95 of seeds


class TestKlDivergence:
    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            raw = rng.random(int(rng.integers(1, 7))) + 1e-9
            p = TypeDistribution(raw / raw.sum())
            assert kl_divergence(p, p) == 0.0

    def test_hand_computed_value(self):
        p_hat = TypeDistribution(np.array([0.5, 0.5]))
        p = TypeDistribution(np.array([0.25, 0.75]))
        want = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert kl_divergence(p_hat, p) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.1438, abs=5e-5)

    def test_disjoint_support_is_infinite(self):
        p_hat = TypeDistribution(np.array([1.0, 0.0]))
        p = TypeDistribution(np.array([0.0, 1.0]))
        assert kl_divergence(p_hat, p) == math.inf

    def test_zero_mass_terms_contribute_nothing(self):
        p_hat = TypeDistribution(np.array([0.0, 1.0]))
        p = TypeDistribution(np.array([0.5, 0.5]))
        assert kl_divergence(p_hat, p) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(89)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            a = rng.random(n) + 1e-9
            b = rng.random(n) + 1e-9
            kl = kl_divergence(TypeDistribution(a / a.sum()),
                               TypeDistribution(b / b.sum()))
            assert kl >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            kl_divergence(TypeDistribution.uniform(2), TypeDistribution.uniform(3))

    def test_max_componentwise_error(self):
        a = TypeDistribution(np.array([0.6, 0.4]))
        b = TypeDistribution(np.array([0.25, 0.75]))
        assert max_componentwise_error(a, b) == pytest.approx(0.35)


def numpy_kl(p_hat, p):
    """`kl_divergence` as numpy computed it before it moved to lists."""
    ph, q = p_hat.probs, p.probs
    support = ph > 0
    if np.any(support & (q == 0)):
        return float("inf")
    return float((ph[support] * np.log(ph[support] / q[support])).sum())


def numpy_max_error(p_hat, p):
    return float(np.max(np.abs(p_hat.probs - p.probs)))


class TestScalarPathsMatchNumpy:
    """KL and max error on Python floats are bit for bit the numpy
    expressions, including lengths of 8 or more, where numpy sums pairwise."""

    @staticmethod
    def random_distribution(rng, n, zero_share):
        raw = rng.random(n) * rng.choice([1e-6, 1.0, 1e3], size=n)
        raw[rng.random(n) < zero_share] = 0.0
        if not raw.any():
            raw[int(rng.integers(n))] = 1.0
        return TypeDistribution(raw / raw.sum())

    def test_random_pairs_with_zeros_and_disjoint_support(self):
        rng = np.random.default_rng(20261018)
        infinite = zero_terms = long = 0
        for k in range(1500):
            n = 1 + k % 12
            p_hat = self.random_distribution(rng, n, 0.25)
            p = self.random_distribution(rng, n, 0.03)
            want = numpy_kl(p_hat, p)
            got = kl_divergence(p_hat, p)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (p_hat, p)
            got_err = max_componentwise_error(p_hat, p)
            assert type(got_err) is float
            assert np.array(got_err).tobytes() == \
                np.array(numpy_max_error(p_hat, p)).tobytes(), (p_hat, p)
            infinite += want == math.inf
            zero_terms += bool((p_hat.probs == 0).any())
            long += n >= 8 and want != math.inf
        assert infinite > 50 and zero_terms > 300 and long > 100, \
            (infinite, zero_terms, long)

    def test_logarithm_is_numpys(self):
        """On ratios where `math.log` and `np.log` round differently, the
        KL of a one-type belief is numpy's value."""
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.05, 0.95, size=20_000)
        split = [x for x in xs.tolist()
                 if math.log(1.0 / x) != float(np.log(np.array([1.0 / x]))[0])]
        assert len(split) >= 10, len(split)
        for x in split:
            p_hat = TypeDistribution(np.array([1.0, 0.0]))
            p = TypeDistribution(np.array([x, 1.0 - x]))
            got = kl_divergence(p_hat, p)
            assert got == numpy_kl(p_hat, p) != math.log(1.0 / x), x
