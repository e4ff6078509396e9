"""Outer self-play loop: repeated trials of plays plus belief updates.

Each trial realizes a fixed number of plays, then folds every play of the
trial into the belief and records the divergence from the adversary's
actual type distribution.  A fixed-policy evaluator produces the same
metrics without adaptive selection or belief updates, as the baseline for
utility comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .belief import (
    BeliefState,
    UpdateRule,
    kl_divergence,
    max_componentwise_error,
    record_observation,
    refresh_marginal,
)
from .game import (
    ConfigurationError,
    GameConfig,
    Strategy,
    TypeDistribution,
    adversary_utilities,
)
from .oracle import ClassificationMode, RandomSource
from .selection import SelectionMethod
from .tree import (
    AdversaryMode,
    PlayRecord,
    PlayStats,
    SearchContext,
    play_batch,
    proportional_choice,
    tree_traverse,
)


@dataclass(frozen=True)
class SelfPlayConfig:
    """Run parameters for one self-play run.

    `traversals_per_trial` is the number of plays one trial realizes; the
    cutoff depth `h` does nothing but set its default.  `update_rule` is
    carried on the belief; both rules give the same marginal (see
    `refresh_marginal`).
    """

    h: int = 20
    n_trials: int = 10
    q: int = 10
    ucb_c: float = 2.0
    selection: SelectionMethod = SelectionMethod.UCB
    update_rule: UpdateRule = UpdateRule.FICTITIOUS_PLAY
    adversary_mode: AdversaryMode = AdversaryMode.SAMPLED
    classification_mode: ClassificationMode = ClassificationMode.STOCHASTIC
    true_p: Optional[TypeDistribution] = None
    seed: int = 0
    traversals_per_trial: Optional[int] = None

    def __post_init__(self):
        if self.h < 1:
            raise ConfigurationError("cutoff depth h must be >= 1")
        if self.n_trials < 1 or self.q < 1:
            raise ConfigurationError("n_trials and q must be >= 1")
        if self.ucb_c < 0 or not np.isfinite(self.ucb_c):
            raise ConfigurationError("ucb_c must be finite and >= 0")
        if self.traversals_per_trial is not None and self.traversals_per_trial < 1:
            raise ConfigurationError("traversals_per_trial must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    def resolved(self, cfg: GameConfig) -> "SelfPlayConfig":
        """Fill in defaults that need the game's dimensions."""
        run = self
        if run.true_p is None:
            run = replace(run, true_p=TypeDistribution.uniform(cfg.n_types))
        elif len(run.true_p) != cfg.n_types:
            raise ConfigurationError("true_p length does not match the game's type count")
        if run.traversals_per_trial is None:
            run = replace(run, traversals_per_trial=run.h)
        return run


@dataclass(frozen=True)
class SelfPlayResult:
    """Aggregated metrics of one run.

    selection_counts[i][j] counts the type-i queries answered by classifier
    j; per_type_accuracy holds NaN for types that never appeared.
    """

    per_trial_kl: np.ndarray
    per_trial_max_err: np.ndarray
    final_belief: TypeDistribution
    belief_state: BeliefState
    selection_counts: np.ndarray
    per_type_accuracy: np.ndarray
    overall_accuracy: float
    mean_learner_utility: float
    mean_adversary_utility: float
    total_plays: int
    plays: tuple[PlayRecord, ...]

    def selection_percentages(self) -> np.ndarray:
        """Row-normalized selection_counts, in percent (NaN for empty rows)."""
        totals = self.selection_counts.sum(axis=1, keepdims=True).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(totals > 0, 100.0 * self.selection_counts / totals, np.nan)


def _aggregate(plays: list[PlayRecord], cfg: GameConfig,
               per_trial_kl: list[float], per_trial_err: list[float],
               belief: BeliefState) -> SelfPlayResult:
    counts = np.zeros((cfg.n_types, cfg.n_classifiers), dtype=np.int64)
    correct_by_type = np.zeros(cfg.n_types)
    queries_by_type = np.zeros(cfg.n_types, dtype=np.int64)
    for rec in plays:
        counts[rec.realized_type] += np.bincount(
            rec.per_query_classifier, minlength=cfg.n_classifiers
        )
        correct_by_type[rec.realized_type] += rec.per_query_correct.sum()
        queries_by_type[rec.realized_type] += len(rec.per_query_correct)
    with np.errstate(invalid="ignore"):
        per_type_accuracy = np.where(
            queries_by_type > 0, correct_by_type / np.maximum(queries_by_type, 1), np.nan
        )
    total_queries = int(queries_by_type.sum())
    overall = float(correct_by_type.sum() / total_queries) if total_queries else float("nan")
    return SelfPlayResult(
        per_trial_kl=np.array(per_trial_kl),
        per_trial_max_err=np.array(per_trial_err),
        final_belief=belief.p_hat,
        belief_state=belief,
        selection_counts=counts,
        per_type_accuracy=per_type_accuracy,
        overall_accuracy=overall,
        mean_learner_utility=float(np.mean([r.utilities.u_learner for r in plays])),
        mean_adversary_utility=float(np.mean([r.utilities.u_adversary for r in plays])),
        total_plays=len(plays),
        plays=tuple(plays),
    )


def self_play(cfg: GameConfig, run: SelfPlayConfig) -> SelfPlayResult:
    """Run the full self-play loop and return its metrics.

    Per trial: realize `traversals_per_trial` plays, record every play's
    (classifier, type) pair into the belief, refresh the marginal under the
    configured rule, and log the KL divergence to the actual type
    distribution.
    """
    run = run.resolved(cfg)
    rng = RandomSource(run.seed)
    belief = BeliefState.fresh(cfg.n_classifiers, cfg.n_types, run.update_rule)
    ctx = SearchContext(cfg=cfg, run=run, belief=belief, rng=rng,
                        stats=PlayStats.fresh(cfg))
    kl_curve: list[float] = []
    err_curve: list[float] = []
    for _ in range(run.n_trials):
        trial_start = len(ctx.plays)
        for _ in range(run.traversals_per_trial):
            tree_traverse(ctx)
        for rec in ctx.plays[trial_start:]:
            belief = record_observation(belief, rec.chosen_action, rec.realized_type)
        belief = refresh_marginal(belief)
        ctx.belief = belief
        kl_curve.append(kl_divergence(belief.p_hat, run.true_p))
        err_curve.append(max_componentwise_error(belief.p_hat, run.true_p))
    return _aggregate(ctx.plays, cfg, kl_curve, err_curve, belief)


def evaluate_fixed_policy(cfg: GameConfig, run: SelfPlayConfig,
                          policy: Strategy) -> SelfPlayResult:
    """Metrics for a fixed learner strategy over the same play schedule.

    No adaptive selection and no belief updates: every play draws its
    per-query classifiers from `policy`.  The belief stays at the prior, so
    the KL column reports the prior's divergence for every trial.
    """
    run = run.resolved(cfg)
    if len(policy) != cfg.n_classifiers:
        raise ConfigurationError("policy length does not match the game's classifier count")
    rng = RandomSource(run.seed)
    belief = BeliefState.fresh(cfg.n_classifiers, cfg.n_types, run.update_rule)
    br_type = int(np.argmax(adversary_utilities(policy, cfg)))
    plays: list[PlayRecord] = []
    for _ in range(run.n_trials * run.traversals_per_trial):
        if run.adversary_mode is AdversaryMode.SAMPLED:
            theta = proportional_choice(rng, run.true_p)
        else:
            theta = br_type
        plays.append(play_batch(policy, theta, cfg, run, rng))
    base_kl = kl_divergence(belief.p_hat, run.true_p)
    base_err = max_componentwise_error(belief.p_hat, run.true_p)
    return _aggregate(plays, cfg, [base_kl] * run.n_trials,
                      [base_err] * run.n_trials, belief)
