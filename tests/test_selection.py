"""Best-response and UCB selection rules against independent oracles."""

import math
import warnings

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    GameConfig,
    PayoffConfig,
    Strategy,
    TypeDistribution,
    adversary_utilities,
    adversary_utility,
    bne_select,
    default_config,
    expected_learner_utility,
    learner_utility,
    pure_learner_utilities,
    ucb_select_adversary,
    ucb_select_learner,
)


def enumerate_best_response(belief, cfg):
    """Brute-force oracle: scan every pure strategy, keep the first argmax,
    then scan every type against it."""
    best_j, best_u = 0, -math.inf
    for j in range(cfg.n_classifiers):
        u = expected_learner_utility(Strategy.pure(j, cfg.n_classifiers), belief, cfg)
        if u > best_u:
            best_j, best_u = j, u
    s = Strategy.pure(best_j, cfg.n_classifiers)
    best_i, best_a = 0, -math.inf
    for i in range(cfg.n_types):
        u = adversary_utility(s, i, cfg)
        if u > best_a:
            best_i, best_a = i, u
    return best_j, best_i


class TestBneSelect:
    def test_singleton_game(self):
        cfg = GameConfig(AccuracyMatrix(np.array([[0.7]])), PayoffConfig.unit(1, 1))
        assert bne_select(TypeDistribution.uniform(1), cfg) == (0, 0)

    def test_degenerate_belief_picks_most_hardened(self):
        cfg = default_config()
        j, _ = bne_select(TypeDistribution.degenerate(2, 4), cfg)
        # pure utilities on the strength-2 column: 0.7706, 0.7922, 0.8152
        assert j == 2

    def test_costs_shift_the_argmax(self):
        cfg = default_config(c_classifier=[0.0, 0.01, 0.05])
        j, _ = bne_select(TypeDistribution.degenerate(2, 4), cfg)
        # 0.7706, 0.7822, 0.7652 after costs
        assert j == 1

    def test_returned_strategy_is_pure_and_dominant(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            nc, nt = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = GameConfig(AccuracyMatrix(rng.random((nc, nt))),
                                 PayoffConfig(rng.random((nc, nt)), rng.random((nc, nt)),
                                              rng.random(nc) * 0.3, rng.random(nt) * 0.3))
            raw = rng.random(nt) + 1e-9
            belief = TypeDistribution(raw / raw.sum())
            j_star, theta = bne_select(belief, cfg)
            assert type(j_star) is int and type(theta) is int
            s = Strategy.pure(j_star, nc)
            u_star = expected_learner_utility(s, belief, cfg)
            for j in range(nc):
                assert u_star >= expected_learner_utility(
                    Strategy.pure(j, nc), belief, cfg) - 1e-12
            for i in range(nt):
                assert adversary_utility(s, theta, cfg) >= \
                    adversary_utility(s, i, cfg) - 1e-12

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            nc, nt = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = GameConfig(AccuracyMatrix(rng.random((nc, nt))),
                                 PayoffConfig(rng.random((nc, nt)), rng.random((nc, nt)),
                                              rng.random(nc) * 0.3, rng.random(nt) * 0.3))
            raw = rng.random(nt) + 1e-9
            belief = TypeDistribution(raw / raw.sum())
            assert bne_select(belief, cfg) == enumerate_best_response(belief, cfg)

    def test_matches_the_strategy_route_exactly(self):
        """`bne_select` and `GameConfig.best_response_types` pick what the
        argmaxes over `Strategy.pure` and `adversary_utilities` pick, on
        10,000 random games, half of them with entries from a small grid so
        that ties are common; both break ties toward the lowest index."""
        rng = np.random.default_rng(47)
        ties = 0
        for case in range(10_000):
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = GameConfig(AccuracyMatrix(acc), PayoffConfig(v_l, v_a, c_c, c_t))
            belief = TypeDistribution(raw / raw.sum())
            replies = [adversary_utilities(Strategy.pure(j, nc), cfg) for j in range(nc)]
            ties += any(len(set(r.tolist())) < nt for r in replies)
            assert cfg.best_response_types == tuple(int(np.argmax(r)) for r in replies)
            action = int(np.argmax(pure_learner_utilities(belief, cfg)))
            assert bne_select(belief, cfg) == (action, int(np.argmax(replies[action])))
        assert ties >= 2_500


class TestUcbSelect:
    def test_all_unvisited_picks_first(self):
        assert ucb_select_learner([0, 0, 0], [0.0, 0.0, 0.0], 2.0) == 0
        assert ucb_select_adversary([0, 0, 0], [0.0, 0.0, 0.0], 2.0) == 0

    def test_unvisited_beats_any_visited(self):
        assert ucb_select_learner([2, 0, 3], [10.0, 0.0, 10.0], 2.0) == 1

    def test_zero_c_is_greedy(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            visits = rng.integers(1, 10, size=n)
            sums = rng.normal(size=n)
            assert ucb_select_learner(visits.tolist(), sums.tolist(), 0.0) == int(np.argmax(sums))

    def test_hand_computed_learner_example(self):
        b0 = 2 * math.sqrt(2 * math.log(4) / 1)
        b1 = 2 * math.sqrt(2 * math.log(4) / 3)
        assert b0 == pytest.approx(3.330, abs=5e-4)
        assert b1 == pytest.approx(1.923, abs=5e-4)
        assert ucb_select_learner([1, 3], [0.5, 0.5], 2.0) == 0

    def test_hand_computed_adversary_example(self):
        b0 = 2 * math.sqrt(2 * math.log(6) / 5)
        b1 = 2 * math.sqrt(2 * math.log(6) / 1)
        assert 0.2 + b0 == pytest.approx(1.893, abs=2e-3)
        assert 0.9 + b1 == pytest.approx(4.686, abs=2e-3)
        assert ucb_select_adversary([5, 1], [0.2, 0.9], 2.0) == 1

    def test_uniform_shift_invariance_at_equal_visits(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            v = int(rng.integers(1, 8))
            sums = rng.normal(size=n)
            shift = float(rng.normal() * 10)
            visits = [v] * n
            c = float(rng.random() * 4)
            assert ucb_select_learner(visits, sums.tolist(), c) == \
                ucb_select_learner(visits, (sums + shift).tolist(), c)


def numpy_ucb_pick(visits, sums, c):
    """The UCB pick as numpy computed it before it moved to Python floats,
    with the visits' total as the parent count."""
    unvisited = np.nonzero(visits == 0)[0]
    if len(unvisited):
        return int(unvisited[0])
    bonus = c * np.sqrt(2.0 * math.log(int(visits.sum())) / visits)
    return int(np.argmax(sums + bonus))


class TestUcbScalarScores:
    """The Python-float scores pick what the numpy expression picked."""

    def random_stats(self, rng):
        n = int(rng.integers(1, 7))
        kind = int(rng.integers(4))
        if kind == 0:    # ties: few distinct visit counts and value sums
            visits = rng.integers(1, 3, size=n)
            sums = rng.integers(-2, 3, size=n) / 4.0
        elif kind == 1:  # unvisited actions among visited ones
            visits = rng.integers(0, 4, size=n)
            sums = np.where(visits > 0, rng.normal(size=n), 0.0)
        else:            # play-like: mean utilities in [-1, 1] summed
            visits = rng.integers(1, 400, size=n)
            sums = visits * rng.uniform(-1, 1, size=n)
        rng.integers(0, 3)  # the dropped parent offset's draw: keeps seed 2024's cases
        return visits, sums

    def test_matches_numpy_on_random_stats(self):
        rng = np.random.default_rng(2024)
        ties = unvisited = 0
        for k in range(2000):
            visits, sums = self.random_stats(rng)
            c = (0.0, 2.0, float(rng.uniform(0, 5)))[k % 3]
            want = numpy_ucb_pick(visits, sums, c)
            args = (visits.tolist(), sums.tolist(), c)
            assert ucb_select_learner(*args) == want, args
            assert ucb_select_adversary(*args) == want, args
            unvisited += bool((visits == 0).any())
            if visits.all():
                scores = sums + c * np.sqrt(2.0 * math.log(int(visits.sum())) / visits)
                ties += int((scores == scores.max()).sum()) > 1
        # 100 of these cases tie; a 101st tied only at a parent above the
        # visits' total (case 1294), which the counts can no longer express
        assert ties >= 100 and unvisited > 100, (ties, unvisited)

    def test_ties_go_to_the_lowest_index(self):
        visits, sums = np.array([2, 3, 2, 2]), np.array([0.5, 0.1, 0.5, 0.5])
        assert ucb_select_learner(visits.tolist(), sums.tolist(), 2.0) == 0 \
            == numpy_ucb_pick(visits, sums, 2.0)
        visits, sums = np.array([3, 3]), np.array([0.0, 0.0])
        assert ucb_select_learner(visits.tolist(), sums.tolist(), 0.0) == 0 \
            == numpy_ucb_pick(visits, sums, 0.0)
