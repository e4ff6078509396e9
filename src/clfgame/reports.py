"""CSV report rows and run manifests.

Every preset emits one long-format CSV — one metric value per row — plus a
manifest JSON capturing the fully resolved spec, seed and preset, so
`clfgame run` on a manifest's spec regenerates its report byte-for-byte.
The manifest also records the package, Python and numpy versions the
report was made with.  A CSV row is one f-string, and the rows are
streamed to the file: the bytes `csv.writer` writes, since no experiment
or metric name may need CSV quoting.

Metric names are drawn from a closed set of patterns:

    kl, max_abs_err                      per-trial convergence metrics;
                                         trial 0 is the pre-update baseline
    conditional_kl_L{j}                  final per-classifier conditional KL
    true_p_T{i}                          sampled actual type distribution
    selection_count_L{j}                 per-query selection tallies
    selection_pct_L{j}                   row-normalized, in percent
    accuracy, accuracy_T{i}              overall / per-type accuracy
    mean_learner_utility                 averaged over plays
    mean_adversary_utility
    baseline_learner_utility             fixed-policy comparison value
    acc_configured_L{j}_T{i}             accuracy-check: matrix entry,
    acc_empirical_L{j}_T{i}              oracle reconstruction,
    acc_abs_error_L{j}_T{i}              and their gap
    costs_strictly_increasing            1.0/0.0 validity flag

Rows with trial index -1 are aggregates over the whole run.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import PRESETS, ExperimentSpec, serialize_spec


#: Characters that make `csv.writer` quote a field.
_CSV_SPECIAL = frozenset(',"\r\n')


class ReportRow(NamedTuple):
    """One metric observation in the long-format report."""

    experiment: str
    seed: int
    trial: int
    metric: str
    value: float


def write_report(rows: list[ReportRow], spec: ExperimentSpec, name: str,
                 notes: list[str] | None = None) -> list[Path]:
    """Write `<name>.csv` and `<name>_manifest.json` under the output dir.

    Values are rendered with `repr` so reruns with the same seed produce
    byte-identical files.  Each row is one f-string ending in `\\r\\n`,
    streamed to the file: the bytes `csv.writer` writes for these fields,
    none of which needs quoting.  An experiment or metric name that would
    need it (a comma, a double quote or a line break) is refused.
    """
    for text in {row.experiment for row in rows} | {row.metric for row in rows}:
        if not _CSV_SPECIAL.isdisjoint(text):
            raise ValueError(f"report name {text!r} would need CSV quoting")
    out = spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    with csv_path.open("w", newline="") as handle:
        handle.write(",".join(ReportRow._fields) + "\r\n")
        handle.writelines(f"{experiment},{seed},{trial},{metric},{float(value)!r}\r\n"
                          for experiment, seed, trial, metric, value in rows)
    manifest_path = out / f"{name}_manifest.json"
    manifest = {
        "name": name,
        "version": __version__,
        "python_version": ".".join(map(str, sys.version_info[:3])),
        "numpy_version": np.__version__,
        "spec": {**serialize_spec(spec), "preset": name if name in PRESETS else None},
        "n_rows": len(rows),
        "notes": notes or [],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return [csv_path, manifest_path]


def read_report(path: str | Path) -> list[ReportRow]:
    """Load a report CSV back into typed rows (mainly for tests)."""
    rows = []
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            rows.append(ReportRow(
                experiment=record["experiment"],
                seed=int(record["seed"]),
                trial=int(record["trial"]),
                metric=record["metric"],
                value=float(record["value"]),
            ))
    return rows
