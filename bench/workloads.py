"""The benchmark's workloads: spec files, expected counts and output checks.

All three use the bundled 3x4 accuracy matrix and stress different layers:

* `table` is the paper's headline experiment (`clfgame table`, increasing
  costs, default run).  The tree does most of the work: rollout draws,
  best-child selection and `play_batch`.
* `kl-fine` runs `clfgame kl` with one single-query play per trial, so the
  tree and the oracle do almost nothing per play while belief updates and
  report writing dominate.
* `bulk-queries` runs `clfgame run` with 1000 queries per play under BNE
  selection and a best-responding adversary: `play_batch` and the oracle
  are nearly all of the time, and tree, selection and belief are
  negligible.  Invocations alternate between stochastic and expectation
  classification, so a change that helps one mode and costs the other
  shows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: Criterion 2's tolerance on the final mean KL divergence.
KL_TOLERANCE = 0.05


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `specs` are the spec files the loop cycles through, one invocation of
    `clfgame <command>` each; `runs_per_rep` is the number of self-play runs
    one repetition of the preset performs; `nonzero` names the per-layer
    counts that must be non-zero on this workload.
    """

    name: str
    command: str
    specs: tuple[dict, ...]
    reps: int
    runs_per_rep: Callable
    check: Callable
    nonzero: tuple[str, ...]


def plays_per_run(spec) -> int:
    run = spec.run
    return run.n_trials * (run.traversals_per_trial or run.h)


def expected_counts(workload: Workload, spec) -> dict[str, int]:
    """Per-layer counts one invocation must produce, derived from the spec."""
    runs = workload.runs_per_rep(spec) * spec.repetitions
    plays = runs * plays_per_run(spec)
    return {
        "selfplay.runs": runs,
        "presets.runs": 1,
        "tree.plays": plays,
        "tree.traversals": plays,
        "oracle.queries": plays * spec.run.q,
        "belief.record.calls": plays,
        "belief.refresh.calls": runs * spec.run.n_trials,
    }


def _by_experiment(rows) -> dict[str, list]:
    grouped = defaultdict(list)
    for row in rows:
        grouped[row[0]].append(row)
    return grouped


def _aggregates(rows) -> dict[str, float]:
    return {metric: value for _, _, trial, metric, value in rows if trial == -1}


def _selection_counts(values: dict[str, float], prefix: str) -> list[float]:
    return [v for k, v in values.items() if k.startswith(prefix)]


def check_table(rows, spec) -> tuple[list[str], dict]:
    """Shares sum to 100 and counts to runs x plays x q, per experiment.

    Also returns criterion 4's gap per heuristic and type: the best single
    classifier's accuracy minus the self-play accuracy (reported, not gated).
    """
    from clfgame.game import TypeDistribution

    problems: list[str] = []
    gaps: dict[str, float] = {}
    n_classifiers, n_types = spec.game.n_classifiers, spec.game.n_types
    expected = spec.repetitions * plays_per_run(spec) * spec.run.q
    grouped = _by_experiment(rows)
    if len(grouped) != 2 * n_types:
        problems.append(f"{len(grouped)} experiments, expected {2 * n_types}")
    for method in ("ucb", "bne"):
        for focus in range(n_types):
            exp = f"table:{method}:T{focus}"
            values = _aggregates(grouped.get(exp, []))
            pct = _selection_counts(values, "selection_pct_L")
            counts = _selection_counts(values, "selection_count_L")
            if len(pct) != n_classifiers or len(counts) != n_classifiers:
                problems.append(f"{exp}: selection rows missing")
                continue
            if abs(sum(pct) - 100.0) > 1e-9:
                problems.append(f"{exp}: selection_pct sums to {sum(pct)!r}")
            if sum(counts) != expected:
                problems.append(f"{exp}: selection counts sum to {sum(counts)}, "
                                f"expected {expected}")
            if "accuracy" not in values:
                problems.append(f"{exp}: accuracy row missing")
                continue
            mix = TypeDistribution.concentrated(focus, n_types).probs
            best_single = float((spec.game.accuracy.acc @ mix).max())
            gaps[f"{method}:T{focus}"] = best_single - values["accuracy"]
    return problems, {"criterion4_gap": gaps}


def _kl_curve(rows) -> list[tuple[int, float]]:
    return sorted((trial, value) for _, _, trial, metric, value in rows
                  if metric == "kl")


def check_kl(rows, spec) -> tuple[list[str], dict]:
    """Each curve has n_trials + 1 rows; the final mean KL is within tolerance."""
    problems: list[str] = []
    final: dict[str, float] = {}
    trials = list(range(spec.run.n_trials + 1))
    grouped = _by_experiment(rows)
    for rule in ("fp", "bu"):
        names = [f"kl:{rule}:rep{rep}" for rep in range(spec.repetitions)]
        mean = f"kl:{rule}:mean"
        for exp in (*names, mean):
            curve = _kl_curve(grouped.get(exp, []))
            if [t for t, _ in curve] != trials:
                problems.append(f"{exp}: {len(curve)} kl rows, expected {len(trials)}")
            elif exp == mean:
                final[rule] = curve[-1][1]
                if not final[rule] <= KL_TOLERANCE:
                    problems.append(f"{mean} ends at {final[rule]!r} > {KL_TOLERANCE}")
    return problems, {"final_mean_kl": final}


def check_bulk(rows, spec) -> tuple[list[str], dict]:
    """Per repetition: counts sum to n_trials*h*q, accuracy within the matrix."""
    problems: list[str] = []
    accuracy = []
    expected = plays_per_run(spec) * spec.run.q
    acc = spec.game.accuracy.acc
    grouped = _by_experiment(rows)
    if len(grouped) != spec.repetitions:
        problems.append(f"{len(grouped)} repetitions, expected {spec.repetitions}")
    for rep in range(spec.repetitions):
        exp = f"run:rep{rep}"
        values = _aggregates(grouped.get(exp, []))
        counts = _selection_counts(values, "selection_count_L")
        if sum(counts) != expected:
            problems.append(f"{exp}: selection counts sum to {sum(counts)}, "
                            f"expected {expected}")
        value = values.get("accuracy", float("nan"))
        if not acc.min() <= value <= acc.max():
            problems.append(f"{exp}: accuracy {value!r} outside "
                            f"[{acc.min()}, {acc.max()}]")
        accuracy.append(value)
    return problems, {"accuracy": accuracy}


_ALWAYS = ("config.self_s", "cli.self_s")

WORKLOADS = {
    "table": Workload(
        name="table",
        command="table",
        specs=({"game": {"c_classifier": [0.0, 0.01, 0.02]}},),
        reps=1,
        # UCB and BNE, one run per concentrated type distribution
        runs_per_rep=lambda spec: 2 * spec.game.n_types,
        check=check_table,
        nonzero=("tree.traversals", "tree.draws", "tree.self_s",
                 "selection.bne.calls", "selection.ucb.calls", "selection.self_s",
                 "game.calls", "game.self_s", "presets.runs", "presets.self_s",
                 *_ALWAYS),
    ),
    "kl-fine": Workload(
        name="kl-fine",
        command="kl",
        specs=({"run": {"h": 1, "n_trials": 200, "q": 1}},),
        reps=8,
        # one run per update rule
        runs_per_rep=lambda spec: 2,
        check=check_kl,
        nonzero=("belief.record.calls", "belief.refresh.calls",
                 "belief.refresh.self_s", "belief.kl.calls", "belief.self_s",
                 "reports.rows", "reports.bytes", "reports.self_s", *_ALWAYS),
    ),
    "bulk-queries": Workload(
        name="bulk-queries",
        command="run",
        specs=tuple(
            {"run": {"selection": "bne", "adversary_mode": "best_response",
                     "h": 4, "n_trials": 5, "q": 1000,
                     "classification_mode": mode}}
            for mode in ("stochastic", "expectation")
        ),
        reps=3,
        runs_per_rep=lambda spec: 1,
        check=check_bulk,
        nonzero=("tree.plays", "tree.play.self_s", "oracle.queries",
                 "oracle.classify.calls", "oracle.self_s", "selfplay.runs",
                 "selfplay.self_s", *_ALWAYS),
    ),
}
