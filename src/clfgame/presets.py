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

from .belief import (
    UpdateRule,
    bu_conditional,
    fp_conditional,
    kl_divergence,
    max_componentwise_error,
)
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


def preset_accuracy_check(spec: ExperimentSpec,
                          n: int = ACCURACY_CHECK_SAMPLES) -> list[Path]:
    """Reconstruct every accuracy cell from the stochastic oracle."""
    rng = np.random.default_rng(spec.run.seed)
    rows = []
    acc = spec.game.accuracy.acc
    for j in range(spec.game.n_classifiers):
        for i in range(spec.game.n_types):
            measured = empirical_accuracy(j, i, n, spec.game, rng)
            cell = f"L{j}_T{i}"
            rows += [
                ReportRow("accuracy_check", spec.run.seed, -1,
                          f"acc_configured_{cell}", float(acc[j, i])),
                ReportRow("accuracy_check", spec.run.seed, -1,
                          f"acc_empirical_{cell}", measured),
                ReportRow("accuracy_check", spec.run.seed, -1,
                          f"acc_abs_error_{cell}", abs(measured - float(acc[j, i]))),
            ]
    return write_report(rows, spec, "accuracy_check",
                        notes=[f"samples_per_cell={n}"])


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
        prior_kl = kl_divergence(prior, true_p)
        prior_err = max_componentwise_error(prior, true_p)
        cell = _runs(spec, seeds, len(UpdateRule), true_p=true_p)
        for rule, (run, result) in zip(UpdateRule, cell):
            exp = f"kl:{rule.value}:rep{rep}"
            baseline = np.concatenate([[prior_kl], result.per_trial_kl])
            base_err = np.concatenate([[prior_err], result.per_trial_max_err])
            for trial, (kl, err) in enumerate(zip(baseline.tolist(), base_err.tolist())):
                rows.append(ReportRow(exp, run.seed, trial, "kl", kl))
                rows.append(ReportRow(exp, run.seed, trial, "max_abs_err", err))
            for i in range(n_types):
                rows.append(ReportRow(exp, run.seed, -1, f"true_p_T{i}",
                                      float(true_p.probs[i])))
            conditional = (fp_conditional if rule is UpdateRule.FICTITIOUS_PLAY
                           else bu_conditional)
            for j in range(spec.game.n_classifiers):
                rows.append(ReportRow(
                    exp, run.seed, run.n_trials, f"conditional_kl_L{j}",
                    kl_divergence(conditional(result.belief_state, j), true_p),
                ))
            curves[rule].append(baseline)
    for rule, collected in curves.items():
        mean_curve = np.mean(np.stack(collected), axis=0)
        for trial, kl in enumerate(mean_curve.tolist()):
            rows.append(ReportRow(f"kl:{rule.value}:mean", spec.run.seed, trial, "kl", kl))
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
            counts = np.sum(counts, axis=0)
            total = counts.sum()
            exp = f"table:{method.value}:T{focus}"
            for j in range(spec.game.n_classifiers):
                share = counts[:, j].sum() / total * 100.0
                rows.append(ReportRow(exp, spec.run.seed, -1,
                                      f"selection_pct_L{j}", float(share)))
                rows.append(ReportRow(exp, spec.run.seed, -1,
                                      f"selection_count_L{j}",
                                      float(counts[:, j].sum())))
            weights = np.array(n_plays, dtype=float)
            accuracy = float(np.average(accuracy, weights=weights))
            utility = float(np.average(utility, weights=weights))
            rows.append(ReportRow(exp, spec.run.seed, -1, "accuracy", accuracy))
            rows.append(ReportRow(exp, spec.run.seed, -1,
                                  "mean_learner_utility", utility))
    return write_report(rows, spec, "selection_table")


def preset_utility_comparison(spec: ExperimentSpec) -> list[Path]:
    """Self-play utility against the most-hardened fixed classifier.

    Meaningful when classifier costs increase strictly with hardening
    level; a flat or non-increasing cost vector is flagged in the report
    rather than rejected.
    """
    costs = spec.game.payoff.c_classifier
    increasing = bool(np.all(np.diff(costs) > 0)) if len(costs) > 1 else True
    notes = [] if increasing else [
        "costs are not strictly increasing; the comparison against the "
        "most-hardened classifier is not cost-discriminating"
    ]
    seeds = _seeds(spec)
    rows: list[ReportRow] = [
        ReportRow("utility:config", spec.run.seed, -1,
                  "costs_strictly_increasing", float(increasing)),
    ]
    hardened = spec.game.n_classifiers - 1
    for focus in range(spec.game.n_types):
        true_p = TypeDistribution.concentrated(focus, spec.game.n_types)
        for method in (SelectionMethod.UCB, SelectionMethod.BNE):
            cell = _runs(spec, seeds, spec.repetitions, selection=method, true_p=true_p)
            learner, adversary = zip(*(
                (result.mean_learner_utility, result.mean_adversary_utility)
                for _, result in cell))
            exp = f"utility:{method.value}:T{focus}"
            rows.append(ReportRow(exp, spec.run.seed, -1,
                                  "mean_learner_utility", float(np.mean(learner))))
            rows.append(ReportRow(exp, spec.run.seed, -1,
                                  "mean_adversary_utility", float(np.mean(adversary))))
        ((run, baseline),) = _runs(spec, seeds, 1, hardened, true_p=true_p)
        rows.append(ReportRow(f"utility:baseline:T{focus}", run.seed, -1,
                              "baseline_learner_utility",
                              baseline.mean_learner_utility))
    return write_report(rows, spec, "utility_comparison", notes=notes)


def preset_run(spec: ExperimentSpec) -> list[Path]:
    """Plain self-play with the spec's run parameters, over repetitions."""
    rows: list[ReportRow] = []
    for rep, (run, result) in enumerate(_runs(spec, _seeds(spec), spec.repetitions)):
        exp = f"run:rep{rep}"
        for trial, (kl, err) in enumerate(
                zip(result.per_trial_kl, result.per_trial_max_err), start=1):
            rows.append(ReportRow(exp, run.seed, trial, "kl", float(kl)))
            rows.append(ReportRow(exp, run.seed, trial, "max_abs_err", float(err)))
        for j in range(spec.game.n_classifiers):
            rows.append(ReportRow(exp, run.seed, -1, f"selection_count_L{j}",
                                  float(result.selection_counts[:, j].sum())))
        for i in range(spec.game.n_types):
            if not np.isnan(result.per_type_accuracy[i]):
                rows.append(ReportRow(exp, run.seed, -1, f"accuracy_T{i}",
                                      float(result.per_type_accuracy[i])))
        rows.append(ReportRow(exp, run.seed, -1, "accuracy", result.overall_accuracy))
        rows.append(ReportRow(exp, run.seed, -1, "mean_learner_utility",
                              result.mean_learner_utility))
        rows.append(ReportRow(exp, run.seed, -1, "mean_adversary_utility",
                              result.mean_adversary_utility))
    return write_report(rows, spec, "run")
