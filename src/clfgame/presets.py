"""Experiment presets: canned runs behind the CLI subcommands.

Each preset fans a spec out into cells of seeded runs, aggregates the
metrics and writes one long-format CSV plus a manifest.  A cell is `n` runs
of one config (`_runs`), each at the next seed of the preset's one stream
(`_seeds`), so a preset is reproducible as a whole while its runs stay
independent.  Cells draw seeds in this order: `table` per method, then
focus type; `utility` per focus type, then method, then that focus's run
pinned to the most-hardened classifier; `kl` per repetition, the Dirichlet
seed of its type distribution, then the `fp` and `bu` runs; `run` per
repetition.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .belief import UpdateRule, _curves, bu_conditional, fp_conditional, kl_divergence
from .config import ExperimentSpec
from .game import ClassifierId, TypeDistribution
from .oracle import empirical_accuracy
from .reports import ReportRow, write_report
from .selection import SelectionMethod
from .selfplay import SelfPlayConfig, SelfPlayResult, self_play

ACCURACY_CHECK_SAMPLES = 50_000


def _seeds(spec: ExperimentSpec) -> Iterator[int]:
    """The preset's per-run seeds, drawn in order from the spec seed."""
    stream = np.random.default_rng(np.random.SeedSequence([spec.run.seed, 0xC1F]))
    while True:
        yield int(stream.integers(2**63 - 1))


def _runs(spec: ExperimentSpec, seeds: Iterator[int], n: int,
          classifier: Optional[ClassifierId] = None,
          **changes) -> Iterator[tuple[SelfPlayConfig, SelfPlayResult]]:
    """One cell: `n` runs of the spec's run with `changes` applied, each at
    the next of `seeds` and pinned to `classifier` if given.  Runs are made
    and yielded one at a time, so a cell's memory does not grow with `n`."""
    for _ in range(n):
        run = replace(spec.run, seed=next(seeds), **changes)
        yield run, self_play(spec.game, run, classifier)


def _rows(exp: str, seed: int, trial: int, pairs) -> list[ReportRow]:
    """One row of `exp` at `seed` and `trial` per `(metric, value)` pair."""
    return [ReportRow(exp, seed, trial, metric, value) for metric, value in pairs]


def _curve_rows(exp: str, seed: int, first: int, kl: np.ndarray,
                err: np.ndarray) -> list[ReportRow]:
    """A run's `kl` and `max_abs_err` rows, trial by trial from `first`."""
    return [row for trial, pair in enumerate(zip(kl.tolist(), err.tolist()), first)
            for row in _rows(exp, seed, trial, zip(("kl", "max_abs_err"), pair))]


def _selection_pairs(counts: np.ndarray, shares: bool) -> list[tuple[str, float]]:
    """The `selection_count_L{j}` pairs of `[n_types, n_classifiers]`
    counts, each after its `selection_pct_L{j}` share of all picks if
    `shares`."""
    picks = counts.sum(axis=0)
    total = picks.sum()
    pairs = []
    for j, n in enumerate(picks.tolist()):
        if shares:
            pairs.append((f"selection_pct_L{j}", n / total * 100.0))
        pairs.append((f"selection_count_L{j}", n))
    return pairs


def preset_accuracy_check(spec: ExperimentSpec,
                          n: int = ACCURACY_CHECK_SAMPLES) -> list[Path]:
    """Reconstruct every accuracy cell from the stochastic oracle."""
    rng = np.random.default_rng(spec.run.seed)
    pairs = []
    acc = spec.game.accuracy.acc
    for j in range(spec.game.n_classifiers):
        for i in range(spec.game.n_types):
            measured = empirical_accuracy(j, i, n, spec.game, rng)
            cell = f"L{j}_T{i}"
            pairs += [(f"acc_configured_{cell}", acc[j, i]),
                      (f"acc_empirical_{cell}", measured),
                      (f"acc_abs_error_{cell}", abs(measured - acc[j, i]))]
    return write_report(_rows("accuracy_check", spec.run.seed, -1, pairs), spec,
                        "accuracy_check", notes=[f"samples_per_cell={n}"])


def preset_kl_convergence(spec: ExperimentSpec) -> list[Path]:
    """Belief-convergence curves, with each rule's conditional diagnostic.

    Each repetition draws a fresh random actual type distribution and runs
    self-play twice, at two seeds of its own: experiment `kl:fp:rep{n}`
    reports `fp_conditional` per classifier and `kl:bu:rep{n}`
    `bu_conditional`.  The rule changes only that diagnostic, since both
    rules give the same marginal (see `refresh_marginal`).  Trial 0 rows
    carry the pre-update baseline divergence, measured once per repetition
    as both rules share its distribution, and `mean` rows average each
    trial across repetitions.
    """
    seeds = _seeds(spec)
    rows: list[ReportRow] = []
    curves: dict[UpdateRule, list[np.ndarray]] = {rule: [] for rule in UpdateRule}
    n_types = spec.game.n_types
    prior = TypeDistribution.uniform(n_types)
    for rep in range(spec.repetitions):
        raw = np.random.default_rng(next(seeds)).dirichlet(np.ones(n_types))
        true_p = TypeDistribution(raw)
        prior_kl, prior_err = _curves(prior.probs[None], true_p)  # one-entry curves
        cell = _runs(spec, seeds, len(UpdateRule), true_p=true_p)
        for rule, (run, result) in zip(UpdateRule, cell):
            exp = f"kl:{rule.value}:rep{rep}"
            baseline = np.concatenate([prior_kl, result.per_trial_kl])
            rows += _curve_rows(exp, run.seed, 0, baseline,
                                np.concatenate([prior_err, result.per_trial_max_err]))
            rows += _rows(exp, run.seed, -1, ((f"true_p_T{i}", p)
                                              for i, p in enumerate(true_p.probs.tolist())))
            conditional = (fp_conditional if rule is UpdateRule.FICTITIOUS_PLAY
                           else bu_conditional)
            rows += _rows(exp, run.seed, run.n_trials, (
                (f"conditional_kl_L{j}",
                 kl_divergence(conditional(result.belief_state, j), true_p))
                for j in range(spec.game.n_classifiers)))
            curves[rule].append(baseline)
    for rule, collected in curves.items():
        mean_curve = np.mean(np.stack(collected), axis=0)
        for trial, kl in enumerate(mean_curve.tolist()):
            rows += _rows(f"kl:{rule.value}:mean", spec.run.seed, trial, [("kl", kl)])
    return write_report(rows, spec, "kl_convergence")


def preset_selection_table(spec: ExperimentSpec) -> list[Path]:
    """Classifier-selection shares per concentrated type distribution.

    For each adversary type, runs self-play against a distribution with 98%
    of its mass on that type, under both selection heuristics, and reports
    pooled selection percentages and accuracy.
    """
    seeds = _seeds(spec)
    rows: list[ReportRow] = []
    for method in (SelectionMethod.UCB, SelectionMethod.BNE):
        for focus in range(spec.game.n_types):
            true_p = TypeDistribution.concentrated(focus, spec.game.n_types)
            cell = _runs(spec, seeds, spec.repetitions, selection=method, true_p=true_p)
            counts, n_plays, accuracy, utility = zip(*(
                (result.selection_counts, len(result.plays), result.overall_accuracy,
                 result.mean_learner_utility) for _, result in cell))
            weights = np.array(n_plays, dtype=float)
            rows += _rows(f"table:{method.value}:T{focus}", spec.run.seed, -1, [
                *_selection_pairs(np.sum(counts, axis=0), shares=True),
                ("accuracy", np.average(accuracy, weights=weights)),
                ("mean_learner_utility", np.average(utility, weights=weights)),
            ])
    return write_report(rows, spec, "selection_table")


def preset_utility_comparison(spec: ExperimentSpec) -> list[Path]:
    """Self-play utility against the most-hardened fixed classifier.

    Meaningful when classifier costs increase strictly with hardening
    level; a flat or non-increasing cost vector is flagged in the report
    rather than rejected.
    """
    increasing = np.all(np.diff(spec.game.payoff.c_classifier) > 0)
    notes = [] if increasing else [
        "costs are not strictly increasing; the comparison against the "
        "most-hardened classifier is not cost-discriminating"
    ]
    seeds = _seeds(spec)
    rows = _rows("utility:config", spec.run.seed, -1,
                 [("costs_strictly_increasing", increasing)])
    hardened = spec.game.n_classifiers - 1
    for focus in range(spec.game.n_types):
        true_p = TypeDistribution.concentrated(focus, spec.game.n_types)
        for method in (SelectionMethod.UCB, SelectionMethod.BNE):
            cell = _runs(spec, seeds, spec.repetitions, selection=method, true_p=true_p)
            learner, adversary = zip(*(
                (result.mean_learner_utility, result.mean_adversary_utility)
                for _, result in cell))
            rows += _rows(f"utility:{method.value}:T{focus}", spec.run.seed, -1, [
                ("mean_learner_utility", np.mean(learner)),
                ("mean_adversary_utility", np.mean(adversary)),
            ])
        ((run, baseline),) = _runs(spec, seeds, 1, hardened, true_p=true_p)
        rows += _rows(f"utility:baseline:T{focus}", run.seed, -1,
                      [("baseline_learner_utility", baseline.mean_learner_utility)])
    return write_report(rows, spec, "utility_comparison", notes=notes)


def preset_run(spec: ExperimentSpec) -> list[Path]:
    """Plain self-play with the spec's run parameters, over repetitions."""
    rows: list[ReportRow] = []
    for rep, (run, result) in enumerate(_runs(spec, _seeds(spec), spec.repetitions)):
        exp = f"run:rep{rep}"
        rows += _curve_rows(exp, run.seed, 1, result.per_trial_kl,
                            result.per_trial_max_err)
        rows += _rows(exp, run.seed, -1, [
            *_selection_pairs(result.selection_counts, shares=False),
            *((f"accuracy_T{i}", accuracy)
              for i, accuracy in enumerate(result.per_type_accuracy.tolist())
              if not np.isnan(accuracy)),
            ("accuracy", result.overall_accuracy),
            ("mean_learner_utility", result.mean_learner_utility),
            ("mean_adversary_utility", result.mean_adversary_utility),
        ])
    return write_report(rows, spec, "run")
