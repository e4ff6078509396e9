"""Outer self-play loop: repeated trials of plays plus belief updates.

Each trial realizes a fixed number of plays, each counted into the run's
one belief, in place, as it is realized, then refreshes the belief's
marginal; only that refresh runs once per trial, and it only records the
counts (`p_hat` is built when read).  The plays' uniform doubles are drawn
in blocks of whole trials, one `Generator.random` call of at most
`BLOCK_DOUBLES` doubles each (or one trial's, if more).  The run's KL and
max-error curves against the actual type distribution are computed after
the loop, in one pass over the plays' types (`belief.trial_curves`).
Under BNE selection the learner's best response is computed here, once
per trial: it depends only on the belief's marginal, which changes only at
the trial's refresh.  UCB scores the belief's counts and two utility-sum
lists, all the UCB state a run keeps.  A run's plays are one `Plays`
record of arrays with one entry per play; the run metrics are read off
those arrays and the belief's counts.  The baseline of the utility comparison is the same loop
with the learner's classifier pinned, `self_play(cfg, run, classifier)`.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .belief import BeliefState, refresh_marginal, trial_curves
from .game import (
    ClassifierId,
    ConfigurationError,
    GameConfig,
    TypeDistribution,
    _check_index,
    _check_instance,
    _check_integer,
    _check_length,
    _shown,
)
from .oracle import ClassificationMode
from .selection import SelectionMethod, bne_select
from .tree import AdversaryMode, Plays, tree_traverse


#: Most queries one run may answer, `n_trials * h * q`.  As q >= 1, it also
#: bounds the run's P = n_trials * h plays, 40 bytes each (400 MB at most),
#: and one trial's uniform doubles, at most 8 bytes per query plus 8 per
#: play (160 MB), which bounds one block of them too.
MAX_RUN_QUERIES = 10**7

#: Most uniform doubles one `Generator.random` call of `self_play` draws,
#: unless a single trial needs more: a run draws its doubles in blocks of
#: whole trials, as many as fit (32 KB).
BLOCK_DOUBLES = 2**12


@dataclass(frozen=True)
class SelfPlayConfig:
    """Run parameters for one self-play run.

    `h` is the number of plays one trial realizes.  No field picks a belief
    update rule: both rules give the same marginal (see
    `refresh_marginal`), so the rule only names a reported diagnostic.
    The constructor checks each field's type and range and refuses a bad
    one with a one-line `ConfigurationError` that starts with the field's
    name (`h: must be an integer, got 2.5`, `h: must be >= 1, got 0`).  An
    enum field takes a member or its value in any letter case (`"BNE"`)
    and keeps the member; `ucb_c` is kept as a float.  `resolved` checks
    `true_p`, None or a `TypeDistribution`, against the game.
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
            object.__setattr__(self, name, _check_integer(getattr(self, name), minimum, name))
        ucb_c = self.ucb_c
        if (isinstance(ucb_c, bool) or not isinstance(ucb_c, numbers.Real)
                or not 0 <= ucb_c <= sys.float_info.max):  # NaN fails too
            raise ConfigurationError(f"ucb_c: must be finite and >= 0, got {_shown(ucb_c)}")
        object.__setattr__(self, "ucb_c", float(ucb_c))
        for name, enum_cls in (("selection", SelectionMethod), ("adversary_mode", AdversaryMode),
                               ("classification_mode", ClassificationMode)):
            if not isinstance(value := getattr(self, name), enum_cls):
                values = sorted(member.value for member in enum_cls)
                if not (isinstance(value, str) and value.lower() in values):
                    raise ConfigurationError(
                        f"{name}: must be one of {values}, got {_shown(value)}")
                object.__setattr__(self, name, enum_cls(value.lower()))
        _check_instance(self.true_p, TypeDistribution, "true_p", optional=True)
        if (queries := self.n_trials * self.h * self.q) > MAX_RUN_QUERIES:
            raise ConfigurationError(
                f"n_trials * h * q: must be <= {MAX_RUN_QUERIES}, got {_shown(queries)}")

    @property
    def draws_per_play(self) -> int:
        """Uniform doubles one play reads: one for the type when it is
        sampled, then in stochastic mode one per query for its correctness
        (see `tree.game_play`)."""
        stochastic = self.classification_mode is ClassificationMode.STOCHASTIC
        return (self.adversary_mode is AdversaryMode.SAMPLED) + stochastic * self.q

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
        _check_length(self.true_p, cfg.n_types, "true_p")
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


def _aggregate(plays: Plays, cfg: GameConfig, q: int, per_trial_kl: np.ndarray,
               per_trial_err: np.ndarray, belief: BeliefState) -> SelfPlayResult:
    """Run metrics from the play arrays of a run of q queries per play.

    The belief counted every play's (action, type) pair, and a play's
    action answers all its q queries, so the selection counts are q times
    its transposed joint counts and the per-type query counts q times its
    type counts.  `np.add.at` folds the plays' correctness sums into the
    per-type totals in play order, as a loop would.
    """
    counts = q * belief.joint_counts.T
    queries_by_type = q * belief.type_counts
    correct_by_type = np.zeros(cfg.n_types)
    np.add.at(correct_by_type, plays.type, plays.correct)
    with np.errstate(invalid="ignore"):
        per_type_accuracy = np.where(
            queries_by_type > 0, correct_by_type / np.maximum(queries_by_type, 1), np.nan
        )
    total_queries = int(queries_by_type.sum())
    overall = float(correct_by_type.sum() / total_queries) if total_queries else float("nan")
    return SelfPlayResult(
        per_trial_kl=per_trial_kl,
        per_trial_max_err=per_trial_err,
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
    selection), realize `h` plays, one row of `draws_per_play` uniform
    doubles each and each counted into the belief as it is realized, and
    refresh the marginal.  The rows are drawn for a block of n whole trials
    at a time, with one `random((n * h, draws_per_play))` call; n is as
    many trials as `BLOCK_DOUBLES` holds, at least one.  A block's call
    draws the doubles n per-trial `random((h, draws_per_play))` calls
    would, in the same order.  After the loop, `trial_curves` gives the KL
    divergence and max error to the actual type distribution at each
    trial's end, bit for bit the values a per-trial `kl_divergence` and
    `max_componentwise_error` would give.

    A given `classifier` overrides `run.selection`: every play uses it, and
    a best-responding adversary answers `cfg.best_response_types[classifier]`
    (the utility comparison's fixed-policy baseline).
    """
    run = run.resolved(cfg)
    pinned = None
    if classifier is not None:
        _check_index(classifier, cfg.n_classifiers, "classifier")
        pinned = classifier, cfg.best_response_types[classifier]
    rng = np.random.default_rng(run.seed)
    belief = BeliefState.fresh(cfg.n_classifiers, cfg.n_types)
    sums = ([0.0] * cfg.n_classifiers, [0.0] * cfg.n_types)
    plays = Plays.empty(run.n_trials * run.h)
    bne = pinned is None and run.selection is SelectionMethod.BNE
    h, width = run.h, run.draws_per_play
    block = max(1, BLOCK_DOUBLES // max(1, h * width))
    best_response = pinned
    for trial in range(run.n_trials):
        if trial % block == 0:
            rows = iter(rng.random((min(block, run.n_trials - trial) * h, width)))
        if bne:
            best_response = bne_select(belief.p_hat, cfg)
        for p, u in zip(range(trial * h, trial * h + h), rows):
            tree_traverse(cfg, run, u, belief, sums, best_response, plays, p)
        refresh_marginal(belief)
    curves = trial_curves(plays.type, run.h, run.true_p)
    return _aggregate(plays, cfg, run.q, *curves, belief)
