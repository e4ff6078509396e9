"""Fast self-test of the benchmark harness.

Runs every workload at its smallest size (one repetition per invocation,
the fewest invocations) with tracing on, so the exact-count and non-zero
checks run; then one untraced run; then a traced run with one binding site
deliberately left unwrapped, which the count checks must catch.  Fails if
a check fails or if the reported metrics differ from BENCHMARK.json.

    python3 bench/selftest.py      # from the repository root, about 30 s
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path("src").resolve()))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _MissedSite(Tracer):
    """A tracer that leaves `selfplay.refresh_marginal` unwrapped."""

    def install(self) -> None:
        super().install()
        import clfgame.selfplay as selfplay

        for container, name, original in self._patches:
            if container is vars(selfplay) and name == "refresh_marginal":
                container[name] = original


def main() -> int:
    declared = json.loads(Path("BENCHMARK.json").read_text())
    per_layer = sorted(m["name"] for m in declared["per_layer"])
    end_to_end = sorted(m["name"] for m in declared["end_to_end"])
    failures = []
    if sorted(WORKLOADS) != sorted(w["name"] for w in declared["workloads"]):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    for name, workload in WORKLOADS.items():
        result = run.measure(workload, seed=1, seconds=0, trace=True, reps=1)
        print("\n".join(run.summary_lines(name, result)))
        if not result["correct"] or result["failed"]:
            failures.append(f"{name}: traced run failed its checks")
        if sorted(result["metrics"]) != per_layer:
            failures.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
    result = run.measure(WORKLOADS["kl-fine"], seed=1, seconds=0, trace=False, reps=1)
    print("\n".join(run.summary_lines("kl-fine", result)))
    if not result["correct"] or sorted(result["metrics"]) != end_to_end:
        failures.append("kl-fine: untraced run failed or reported other metrics")
    run.Tracer = _MissedSite
    try:
        result = run.measure(WORKLOADS["kl-fine"], seed=1, seconds=0, trace=True, reps=1)
    finally:
        run.Tracer = Tracer
    if result["correct"] or not result["failed"]:
        failures.append("an unwrapped binding site went unnoticed")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
