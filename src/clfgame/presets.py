"""Experiment presets: canned runs behind the CLI subcommands.

Each preset fans a spec out into seeded runs, aggregates the metrics and
writes one long-format CSV plus a manifest.  Per-run seeds derive from the
spec seed through a seeded integer stream, so a preset is reproducible as a
whole while its repetitions stay independent.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .belief import (
    UpdateRule,
    bu_conditional,
    fp_conditional,
    kl_divergence,
    max_componentwise_error,
)
from .config import ExperimentSpec
from .game import TypeDistribution
from .oracle import empirical_accuracy
from .reports import ReportRow, write_report
from .selection import SelectionMethod
from .selfplay import self_play

ACCURACY_CHECK_SAMPLES = 50_000


def _seed_stream(spec: ExperimentSpec) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.run.seed, 0xC1F]))


def _next_seed(stream: np.random.Generator) -> int:
    return int(stream.integers(2**63 - 1))


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
    carry the pre-update baseline divergence, and `mean` rows average each
    trial across repetitions.
    """
    stream = _seed_stream(spec)
    rows: list[ReportRow] = []
    curves: dict[UpdateRule, list[np.ndarray]] = {rule: [] for rule in UpdateRule}
    n_types = spec.game.n_types
    prior = TypeDistribution.uniform(n_types)
    for rep in range(spec.repetitions):
        raw = np.random.default_rng(_next_seed(stream)).dirichlet(np.ones(n_types))
        true_p = TypeDistribution(raw)
        for rule in UpdateRule:
            seed = _next_seed(stream)
            run = replace(spec.run, true_p=true_p, seed=seed)
            result = self_play(spec.game, run)
            exp = f"kl:{rule.value}:rep{rep}"
            baseline = np.concatenate([[kl_divergence(prior, true_p)],
                                       result.per_trial_kl])
            base_err = np.concatenate([[max_componentwise_error(prior, true_p)],
                                       result.per_trial_max_err])
            for trial, (kl, err) in enumerate(zip(baseline, base_err)):
                rows.append(ReportRow(exp, seed, trial, "kl", kl))
                rows.append(ReportRow(exp, seed, trial, "max_abs_err", err))
            for i in range(n_types):
                rows.append(ReportRow(exp, seed, -1, f"true_p_T{i}",
                                      float(true_p.probs[i])))
            conditional = (fp_conditional if rule is UpdateRule.FICTITIOUS_PLAY
                           else bu_conditional)
            for j in range(spec.game.n_classifiers):
                rows.append(ReportRow(
                    exp, seed, run.n_trials, f"conditional_kl_L{j}",
                    kl_divergence(conditional(result.belief_state, j), true_p),
                ))
            curves[rule].append(baseline)
    for rule, collected in curves.items():
        mean_curve = np.mean(np.stack(collected), axis=0)
        for trial, kl in enumerate(mean_curve):
            rows.append(ReportRow(f"kl:{rule.value}:mean", spec.run.seed,
                                  trial, "kl", float(kl)))
    return write_report(rows, spec, "kl_convergence")


def _concentrated_runs(spec: ExperimentSpec, focus: int,
                       method: SelectionMethod, stream: np.random.Generator):
    """What the table and utility presets report of each run of one cell:
    selection counts, play count, accuracy and both mean utilities.  Only
    one run's plays are held at a time, however many `repetitions`."""
    true_p = TypeDistribution.concentrated(focus, spec.game.n_types)
    for _ in range(spec.repetitions):
        run = replace(spec.run, selection=method, true_p=true_p,
                      seed=_next_seed(stream))
        result = self_play(spec.game, run)
        reported = (result.selection_counts, len(result.plays), result.overall_accuracy,
                    result.mean_learner_utility, result.mean_adversary_utility)
        del result
        yield reported


def preset_selection_table(spec: ExperimentSpec) -> list[Path]:
    """Classifier-selection shares per concentrated type distribution.

    For each adversary type, runs self-play against a distribution with 98%
    of its mass on that type, under both selection heuristics, and reports
    pooled selection percentages and accuracy.
    """
    stream = _seed_stream(spec)
    rows: list[ReportRow] = []
    for method in (SelectionMethod.UCB, SelectionMethod.BNE):
        for focus in range(spec.game.n_types):
            counts, n_plays, accuracy, utility, _ = zip(
                *_concentrated_runs(spec, focus, method, stream))
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
    stream = _seed_stream(spec)
    rows: list[ReportRow] = [
        ReportRow("utility:config", spec.run.seed, -1,
                  "costs_strictly_increasing", float(increasing)),
    ]
    hardened = spec.game.n_classifiers - 1
    for focus in range(spec.game.n_types):
        true_p = TypeDistribution.concentrated(focus, spec.game.n_types)
        for method in (SelectionMethod.UCB, SelectionMethod.BNE):
            *_, learner, adversary = zip(*_concentrated_runs(spec, focus, method, stream))
            utility = float(np.mean(learner))
            adversary = float(np.mean(adversary))
            exp = f"utility:{method.value}:T{focus}"
            rows.append(ReportRow(exp, spec.run.seed, -1,
                                  "mean_learner_utility", utility))
            rows.append(ReportRow(exp, spec.run.seed, -1,
                                  "mean_adversary_utility", adversary))
        run = replace(spec.run, true_p=true_p, seed=_next_seed(stream))
        baseline = self_play(spec.game, run, hardened)
        rows.append(ReportRow(f"utility:baseline:T{focus}", run.seed, -1,
                              "baseline_learner_utility",
                              baseline.mean_learner_utility))
    return write_report(rows, spec, "utility_comparison", notes=notes)


def preset_run(spec: ExperimentSpec) -> list[Path]:
    """Plain self-play with the spec's run parameters, over repetitions."""
    stream = _seed_stream(spec)
    rows: list[ReportRow] = []
    for rep in range(spec.repetitions):
        seed = _next_seed(stream)
        result = self_play(spec.game, replace(spec.run, seed=seed))
        exp = f"run:rep{rep}"
        for trial, (kl, err) in enumerate(
                zip(result.per_trial_kl, result.per_trial_max_err), start=1):
            rows.append(ReportRow(exp, seed, trial, "kl", float(kl)))
            rows.append(ReportRow(exp, seed, trial, "max_abs_err", float(err)))
        for j in range(spec.game.n_classifiers):
            rows.append(ReportRow(exp, seed, -1, f"selection_count_L{j}",
                                  float(result.selection_counts[:, j].sum())))
        for i in range(spec.game.n_types):
            if not np.isnan(result.per_type_accuracy[i]):
                rows.append(ReportRow(exp, seed, -1, f"accuracy_T{i}",
                                      float(result.per_type_accuracy[i])))
        rows.append(ReportRow(exp, seed, -1, "accuracy", result.overall_accuracy))
        rows.append(ReportRow(exp, seed, -1, "mean_learner_utility",
                              result.mean_learner_utility))
        rows.append(ReportRow(exp, seed, -1, "mean_adversary_utility",
                              result.mean_adversary_utility))
    return write_report(rows, spec, "run")
