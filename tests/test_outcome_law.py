"""Pinned runs against a sampled adversary meet their closed-form law.

Three classifiers x both classification modes, each one run at a fixed
seed on the concentrated T2 distribution, with values and costs that
differ by classifier and type.  Each run's three metrics are standardized
by the exact moments of `tests.outcome_law`, and all 18 z-scores must lie
within the two-sided normal bound of a Bonferroni-corrected family-wise
alpha of 1e-3.  The power check moves the focus-type accuracy entry of the
run's classifier by 0.02 either way and requires that the family rejects
the moved law.

BNE selection against a sampled adversary is checked trial by trial, on
a game whose costs make BNE pick L1 under the uniform prior, then L0
against a T0-heavy adversary and L2 against a T3-heavy one or a T0/T3
mix.  Each of the three distributions x both modes is one run at a fixed
seed.
Given each trial's pick, its metrics are standardized by
`bne_run_moments` against the same Bonferroni bound, and moving the
accuracy rows of the classifiers a run picked by 0.02 either way must be
rejected.

`empirical_accuracy` is checked the same way: each of the bundled
matrix's 12 cells, sampled as the `acc-check` preset samples them, against
its Binomial law, and each cell's law moved by 0.02 either way must be
rejected.
"""

import warnings
from statistics import NormalDist

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    ClassificationMode,
    GameConfig,
    PayoffConfig,
    SelectionMethod,
    SelfPlayConfig,
    TypeDistribution,
    default_config,
    empirical_accuracy,
    self_play,
)
from clfgame.presets import ACCURACY_CHECK_SAMPLES
from tests.outcome_law import bne_run_moments, empirical_accuracy_moments, pinned_run_moments

FAMILY_ALPHA = 1e-3
FOCUS = 2
SHIFT = 0.02
CELLS = [(classifier, mode) for classifier in range(3) for mode in ClassificationMode]


def accuracy(acc=None):
    """The bundled accuracy matrix, or `acc`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bundled matrix dips on the clean column
        return AccuracyMatrix(default_config().accuracy.acc if acc is None else acc)


def game(acc=None):
    """The bundled accuracies (or `acc`) with values and costs that differ
    by classifier and type."""
    return GameConfig(accuracy(acc), PayoffConfig(
        v_learner=1.0 + np.arange(12.0).reshape(3, 4) / 22,
        v_adversary=1.5 - np.arange(12.0).reshape(3, 4) / 33,
        c_classifier=np.array([0.0, 0.01, 0.02]),
        c_type=np.array([0.0, 0.005, 0.01, 0.02])))


def cell_run(classifier, mode):
    return SelfPlayConfig(h=40, n_trials=100, q=10, classification_mode=mode,
                          true_p=TypeDistribution.concentrated(FOCUS, 4),
                          seed=2027 + 10 * classifier + (mode is ClassificationMode.EXPECTATION))


@pytest.fixture(scope="module")
def results():
    cfg = game()
    return {cell: self_play(cfg, cell_run(*cell), cell[0]) for cell in CELLS}


def z_scores(cfg, results):
    """Every cell's metrics standardized by `cfg`'s law."""
    scores = {}
    for (classifier, mode), result in results.items():
        law = pinned_run_moments(cfg, cell_run(classifier, mode), classifier)
        for name, moments in law.items():
            scores[classifier, mode, name] = moments.z(getattr(result, name))
    return scores


def bound(n_tests):
    """The two-sided normal bound at the Bonferroni per-test alpha."""
    return NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * n_tests))


class TestPinnedRunLaw:
    def test_metrics_meet_the_closed_form_law(self, results):
        scores = z_scores(game(), results)
        assert len(scores) == 18
        assert max(map(abs, scores.values())) < bound(len(scores)), scores

    @pytest.mark.parametrize("classifier", range(3))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_moved_accuracy_entry_is_rejected(self, results, classifier, sign):
        acc = default_config().accuracy.acc.copy()
        acc[classifier, FOCUS] += sign * SHIFT
        scores = z_scores(game(acc), results)
        for mode in ClassificationMode:
            moved = abs(scores[classifier, mode, "overall_accuracy"])
            assert moved > bound(len(scores)), (mode, moved)


@pytest.fixture(scope="module")
def sampled_accuracy():
    """Every cell's `empirical_accuracy`, drawn in the `acc-check` preset's
    order from one generator at a fixed seed."""
    cfg = default_config()
    rng = np.random.default_rng(2028)
    return {(j, i): empirical_accuracy(j, i, ACCURACY_CHECK_SAMPLES, cfg, rng)
            for j in range(cfg.n_classifiers) for i in range(cfg.n_types)}


def accuracy_z_scores(acc, sampled):
    return {cell: empirical_accuracy_moments(float(acc[cell]), ACCURACY_CHECK_SAMPLES).z(value)
            for cell, value in sampled.items()}


class TestEmpiricalAccuracyLaw:
    def test_cells_meet_the_binomial_law(self, sampled_accuracy):
        scores = accuracy_z_scores(default_config().accuracy.acc, sampled_accuracy)
        assert len(scores) == 12
        assert max(map(abs, scores.values())) < bound(len(scores)), scores

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_moved_cell_is_rejected(self, sampled_accuracy, sign):
        acc = default_config().accuracy.acc + sign * SHIFT
        scores = accuracy_z_scores(acc, sampled_accuracy)
        assert min(map(abs, scores.values())) > bound(len(scores)), scores


BNE_DISTRIBUTIONS = {
    "T0": TypeDistribution.concentrated(0, 4),
    "T0+T3": TypeDistribution(np.array([0.4, 0.1, 0.1, 0.4])),
    "T3": TypeDistribution.concentrated(3, 4),
}
BNE_CELLS = [(dist, mode) for dist in BNE_DISTRIBUTIONS for mode in ClassificationMode]


def bne_game(acc=None):
    """The bundled accuracies (or `acc`) with costs under which BNE picks
    L1 under the uniform prior, L0 against T0 and L2 against T3 or T0+T3."""
    return GameConfig(accuracy(acc), PayoffConfig(
        v_learner=np.tile(1.0 + np.arange(4.0) / 8, (3, 1)),
        v_adversary=1.5 - np.arange(12.0).reshape(3, 4) / 33,
        c_classifier=np.array([0.0, 0.005, 0.03]),
        c_type=np.array([0.0, 0.005, 0.01, 0.02])))


def bne_run(dist, mode):
    return SelfPlayConfig(h=40, n_trials=100, q=10, classification_mode=mode,
                          selection=SelectionMethod.BNE, true_p=BNE_DISTRIBUTIONS[dist],
                          seed=2029 + BNE_CELLS.index((dist, mode)))


@pytest.fixture(scope="module")
def bne_results():
    cfg = bne_game()
    return {cell: self_play(cfg, bne_run(*cell)) for cell in BNE_CELLS}


def picks(cell, result):
    """Each trial's classifier: the action of its first play."""
    return result.plays.action[::bne_run(*cell).h].tolist()


def bne_z_scores(cfg, results):
    """Every cell's metrics standardized by `cfg`'s law given its picks."""
    scores = {}
    for cell, result in results.items():
        for name, moments in bne_run_moments(cfg, bne_run(*cell), picks(cell, result)).items():
            scores[(*cell, name)] = moments.z(getattr(result, name))
    return scores


class TestBneRunLaw:
    def test_each_trial_plays_its_pick(self, bne_results):
        for cell, result in bne_results.items():
            actions = result.plays.action.reshape(bne_run(*cell).n_trials, -1)
            assert (actions == actions[:, :1]).all(), cell
        picked = {dist: set(picks((dist, mode), result))
                  for (dist, mode), result in bne_results.items()}
        assert picked["T0"] >= {0} and picked["T3"] >= {2}, picked
        assert picked["T0+T3"] >= {1, 2}, picked

    def test_metrics_meet_the_law_given_the_picks(self, bne_results):
        scores = bne_z_scores(bne_game(), bne_results)
        assert len(scores) == 18
        assert max(map(abs, scores.values())) < bound(len(scores)), scores

    @pytest.mark.parametrize("sign", [1, -1])
    def test_moved_rows_of_the_picked_classifiers_are_rejected(self, bne_results, sign):
        for cell, result in bne_results.items():
            acc = default_config().accuracy.acc.copy()
            acc[sorted(set(picks(cell, result)))] += sign * SHIFT
            moved = bne_z_scores(bne_game(acc), {cell: result})[(*cell, "overall_accuracy")]
            assert abs(moved) > bound(3 * len(BNE_CELLS)), (cell, moved)
