"""Outer self-play loop: repeated trials of plays plus belief updates.

Each trial realizes a fixed number of plays, each of which is counted into
the belief as it is realized, then refreshes the belief's marginal and
records the divergence from the adversary's actual type distribution.
Under BNE selection the learner's best response is computed here, once
per trial: it depends only on the belief's marginal, which changes only at
the trial's refresh.  UCB scores the belief's counts and two utility-sum
lists, all the UCB state a run keeps.  A run's plays are one `Plays`
record of arrays, and the run metrics are read off those arrays.  A
fixed-policy evaluator produces the same metrics without adaptive
selection or belief updates, as the baseline for utility comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .belief import (
    BeliefState,
    kl_divergence,
    max_componentwise_error,
    refresh_marginal,
)
from .game import (
    ConfigurationError,
    GameConfig,
    Strategy,
    TypeDistribution,
    _shown,
    adversary_utilities,
)
from .oracle import ClassificationMode
from .selection import SelectionMethod, bne_select
from .tree import AdversaryMode, Plays, play_batch, proportional_choice, tree_traverse


#: Most queries one run may answer, `n_trials * h * q`: a run's play arrays
#: take 16 bytes per query, so a run stays under about 160 MB.
MAX_RUN_QUERIES = 10**7


@dataclass(frozen=True)
class SelfPlayConfig:
    """Run parameters for one self-play run.

    `h` is the number of plays one trial realizes.  No field picks a belief
    update rule: both rules give the same marginal (see
    `refresh_marginal`), so the rule only names a reported diagnostic.
    The constructor refuses an out-of-range field, or more than
    `MAX_RUN_QUERIES` queries, with a `ConfigurationError` that starts with
    the field's name (`h: must be >= 1, got 0`); `resolved` checks `true_p`
    against the game.
    """

    h: int = 20
    n_trials: int = 10
    q: int = 10
    ucb_c: float = 2.0
    selection: SelectionMethod = SelectionMethod.UCB
    adversary_mode: AdversaryMode = AdversaryMode.SAMPLED
    classification_mode: ClassificationMode = ClassificationMode.STOCHASTIC
    true_p: Optional[TypeDistribution] = None
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("h", 1), ("n_trials", 1), ("q", 1), ("seed", 0)):
            value = getattr(self, name)
            if value < minimum:
                raise ConfigurationError(f"{name}: must be >= {minimum}, got {_shown(value)}")
        if not 0 <= self.ucb_c < math.inf:  # NaN fails too
            raise ConfigurationError(f"ucb_c: must be finite and >= 0, got {_shown(self.ucb_c)}")
        if (queries := self.n_trials * self.h * self.q) > MAX_RUN_QUERIES:
            raise ConfigurationError(
                f"n_trials * h * q: must be <= {MAX_RUN_QUERIES}, got {queries}")

    @property
    def traversals_per_trial(self) -> int:
        """Plays per trial, which is `h`.  Read-only and not a spec key:
        `bench/workloads.plays_per_run` reads it, and it goes with the
        benchmark rework of ROADMAP item 1."""
        return self.h

    def resolved(self, cfg: GameConfig) -> "SelfPlayConfig":
        """Fill in the default that needs the game's dimensions."""
        if self.true_p is None:
            return replace(self, true_p=TypeDistribution.uniform(cfg.n_types))
        if len(self.true_p) != cfg.n_types:
            raise ConfigurationError(
                f"true_p: expected {cfg.n_types} entries, got {len(self.true_p)}")
        return self


@dataclass(frozen=True)
class SelfPlayResult:
    """Aggregated metrics of one run, and its plays.

    selection_counts[i][j] counts the type-i queries answered by classifier
    j; per_type_accuracy holds NaN for types that never appeared.  The final
    belief is `belief_state.p_hat`.
    """

    per_trial_kl: np.ndarray
    per_trial_max_err: np.ndarray
    belief_state: BeliefState
    selection_counts: np.ndarray
    per_type_accuracy: np.ndarray
    overall_accuracy: float
    mean_learner_utility: float
    mean_adversary_utility: float
    plays: Plays

    def selection_percentages(self) -> np.ndarray:
        """Row-normalized selection_counts, in percent (NaN for empty rows)."""
        totals = self.selection_counts.sum(axis=1, keepdims=True).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(totals > 0, 100.0 * self.selection_counts / totals, np.nan)


def _aggregate(plays: Plays, cfg: GameConfig, per_trial_kl: list[float],
               per_trial_err: list[float], belief: BeliefState) -> SelfPlayResult:
    """Run metrics from the play arrays.

    The counts are one `bincount` over (type, classifier) cells.  Each
    play's correctness sum is a row sum of `plays.correct`, which is bit for
    bit the 1-d `sum()` of that play, and `np.add.at` folds them into the
    per-type totals in play order, as a loop over the plays would.
    """
    n_types, n_classifiers = cfg.n_types, cfg.n_classifiers
    types = plays.type
    cells = plays.classifier + n_classifiers * types[:, None]
    counts = np.bincount(cells.ravel(), minlength=n_types * n_classifiers
                         ).reshape(n_types, n_classifiers)
    correct_by_type = np.zeros(n_types)
    np.add.at(correct_by_type, types, plays.correct.sum(axis=1))
    queries_by_type = np.bincount(types, minlength=n_types) * plays.correct.shape[1]
    with np.errstate(invalid="ignore"):
        per_type_accuracy = np.where(
            queries_by_type > 0, correct_by_type / np.maximum(queries_by_type, 1), np.nan
        )
    total_queries = int(queries_by_type.sum())
    overall = float(correct_by_type.sum() / total_queries) if total_queries else float("nan")
    return SelfPlayResult(
        per_trial_kl=np.array(per_trial_kl),
        per_trial_max_err=np.array(per_trial_err),
        belief_state=belief,
        selection_counts=counts,
        per_type_accuracy=per_type_accuracy,
        overall_accuracy=overall,
        mean_learner_utility=float(np.mean(plays.u_learner)),
        mean_adversary_utility=float(np.mean(plays.u_adversary)),
        plays=plays,
    )


def self_play(cfg: GameConfig, run: SelfPlayConfig) -> SelfPlayResult:
    """Run the full self-play loop and return its metrics.

    Per trial: compute the best response to the belief once (under BNE
    selection), realize `h` plays, each counted into the belief as it is
    realized, refresh the marginal, and log the KL divergence to the actual
    type distribution.
    """
    run = run.resolved(cfg)
    rng = np.random.default_rng(run.seed)
    belief = BeliefState.fresh(cfg.n_classifiers, cfg.n_types)
    sums = ([0.0] * cfg.n_classifiers, [0.0] * cfg.n_types)
    plays = Plays.empty(run.n_trials * run.h, run.q)
    kl_curve: list[float] = []
    err_curve: list[float] = []
    for trial in range(run.n_trials):
        best_response = (bne_select(belief.p_hat, cfg)
                         if run.selection is SelectionMethod.BNE else None)
        for p in range(trial * run.h, (trial + 1) * run.h):
            belief = tree_traverse(cfg, run, rng, belief, sums, best_response, plays, p)
        belief = refresh_marginal(belief)
        kl_curve.append(kl_divergence(belief.p_hat, run.true_p))
        err_curve.append(max_componentwise_error(belief.p_hat, run.true_p))
    return _aggregate(plays, cfg, kl_curve, err_curve, belief)


def evaluate_fixed_policy(cfg: GameConfig, run: SelfPlayConfig,
                          policy: Strategy) -> SelfPlayResult:
    """Metrics for a fixed learner strategy over the same play schedule.

    No adaptive selection and no belief updates: every play draws its
    per-query classifiers from `policy`.  The belief stays at the prior, so
    the KL column reports the prior's divergence for every trial.
    """
    run = run.resolved(cfg)
    rng = np.random.default_rng(run.seed)
    belief = BeliefState.fresh(cfg.n_classifiers, cfg.n_types)
    # adversary_utilities also refuses a policy of the wrong length
    br_type = int(np.argmax(adversary_utilities(policy, cfg)))
    plays = Plays.empty(run.n_trials * run.h, run.q)
    for p in range(len(plays)):
        if run.adversary_mode is AdversaryMode.SAMPLED:
            theta = proportional_choice(rng, run.true_p)
        else:
            theta = br_type
        play_batch(policy, theta, cfg, run, rng, plays, p)
    base_kl = kl_divergence(belief.p_hat, run.true_p)
    base_err = max_componentwise_error(belief.p_hat, run.true_p)
    return _aggregate(plays, cfg, [base_kl] * run.n_trials,
                      [base_err] * run.n_trials, belief)
