"""Pinned runs against a sampled adversary meet their closed-form law.

Three classifiers x both classification modes, each one run at a fixed
seed on the concentrated T2 distribution, with values and costs that
differ by classifier and type.  Each run's three metrics are standardized
by the exact moments of `tests.outcome_law`, and all 18 z-scores must lie
within the two-sided normal bound of a Bonferroni-corrected family-wise
alpha of 1e-3.  The power check moves the focus-type accuracy entry of the
run's classifier by 0.02 either way and requires that the family rejects
the moved law.

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
    SelfPlayConfig,
    TypeDistribution,
    default_config,
    empirical_accuracy,
    self_play,
)
from clfgame.presets import ACCURACY_CHECK_SAMPLES
from tests.outcome_law import empirical_accuracy_moments, pinned_run_moments

FAMILY_ALPHA = 1e-3
FOCUS = 2
SHIFT = 0.02
CELLS = [(classifier, mode) for classifier in range(3) for mode in ClassificationMode]


def game(acc=None):
    """The bundled accuracies (or `acc`) with values and costs that differ
    by classifier and type."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bundled matrix dips on the clean column
        accuracy = AccuracyMatrix(default_config().accuracy.acc if acc is None else acc)
    return GameConfig(accuracy, PayoffConfig(
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
