"""Outer self-play loop: repeated trials of plays plus belief updates.

Each trial realizes a fixed number of plays, each counted into the run's
one belief, in place, as it is realized, then refreshes the belief's
marginal and records the divergence from the actual type distribution.
Under BNE selection the learner's best response is computed here, once
per trial: it depends only on the belief's marginal, which changes only at
the trial's refresh.  UCB scores the belief's counts and two utility-sum
lists, all the UCB state a run keeps.  A run's plays are one `Plays`
record of arrays with one entry per play, and the run metrics are read off
those arrays.  The baseline of the utility comparison is the same loop
with the learner's classifier pinned, `self_play(cfg, run, classifier)`.
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
    ClassifierId,
    ConfigurationError,
    GameConfig,
    TypeDistribution,
    _shown,
)
from .oracle import ClassificationMode
from .selection import SelectionMethod, bne_select
from .tree import AdversaryMode, Plays, tree_traverse


#: Most queries one run may answer, `n_trials * h * q`.  A run's plays take
#: 40 bytes each; one trial's uniform doubles take up to 16 bytes per query.
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
    def draws_per_play(self) -> int:
        """Uniform doubles one play is handed: one for the type when it is
        sampled, then one per query for its classifier and, in stochastic
        mode, one per query for its correctness (see `tree.game_play`).
        A play's classifier is its action, so it skips its classifier
        doubles; they stay drawn because dropping them changes the stream."""
        per_query = 2 if self.classification_mode is ClassificationMode.STOCHASTIC else 1
        return (self.adversary_mode is AdversaryMode.SAMPLED) + per_query * self.q

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
    belief is `belief_state.p_hat`, and `plays` holds one entry per play.
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


def _aggregate(plays: Plays, cfg: GameConfig, q: int, per_trial_kl: list[float],
               per_trial_err: list[float], belief: BeliefState) -> SelfPlayResult:
    """Run metrics from the play arrays of a run of q queries per play.

    The counts are one `bincount` over (type, action) pairs, times q, as a
    play's action answers all its queries.  `np.add.at` folds the plays'
    correctness sums into the per-type totals in play order, as a loop
    would.
    """
    n_types, n_classifiers = cfg.n_types, cfg.n_classifiers
    types = plays.type
    counts = q * np.bincount(plays.action + n_classifiers * types,
                             minlength=n_types * n_classifiers
                             ).reshape(n_types, n_classifiers)
    correct_by_type = np.zeros(n_types)
    np.add.at(correct_by_type, types, plays.correct)
    queries_by_type = np.bincount(types, minlength=n_types) * q
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


def self_play(cfg: GameConfig, run: SelfPlayConfig,
              classifier: Optional[ClassifierId] = None) -> SelfPlayResult:
    """Run the full self-play loop and return its metrics.

    Per trial: compute the best response to the belief once (under BNE
    selection), draw the trial's uniform doubles with one `random((h,
    draws_per_play))` call, realize `h` plays, one row of doubles each and
    each counted into the belief as it is realized, refresh the marginal,
    and log the KL divergence to the actual type distribution.  The one
    call draws the doubles the plays' single draws once did, in the same
    order, so a seed's reports are unchanged.

    A given `classifier` overrides `run.selection`: every play uses it, and
    a best-responding adversary answers `cfg.best_response_types[classifier]`
    (the utility comparison's fixed-policy baseline).
    """
    run = run.resolved(cfg)
    pinned = None
    if classifier is not None:
        cfg.check_classifier(classifier)
        pinned = classifier, cfg.best_response_types[classifier]
    rng = np.random.default_rng(run.seed)
    belief = BeliefState.fresh(cfg.n_classifiers, cfg.n_types)
    sums = ([0.0] * cfg.n_classifiers, [0.0] * cfg.n_types)
    plays = Plays.empty(run.n_trials * run.h)
    kl_curve: list[float] = []
    err_curve: list[float] = []
    for trial in range(run.n_trials):
        best_response = pinned
        if pinned is None and run.selection is SelectionMethod.BNE:
            best_response = bne_select(belief.p_hat, cfg)
        draws = rng.random((run.h, run.draws_per_play))
        for p, u in enumerate(draws, trial * run.h):
            tree_traverse(cfg, run, u, belief, sums, best_response, plays, p)
        refresh_marginal(belief)
        kl_curve.append(kl_divergence(belief.p_hat, run.true_p))
        err_curve.append(max_componentwise_error(belief.p_hat, run.true_p))
    return _aggregate(plays, cfg, run.q, kl_curve, err_curve, belief)
