"""The call contract the benchmark's tracer counts, checked in the suite.

`bench/run.py --trace 1` wraps every public clfgame function and checks
that each invocation makes the calls its spec implies: one `tree_traverse`,
`game_play`, `generate_queries` and `record_observation` per play, one
`refresh_marginal` per trial, one `self_play` per run.  A fast path that
skips a counted call breaks those counts.  This test runs every spec of
every benchmark workload once, at one repetition, under the same tracer
and asserts each count.  `bench/tracer.py` and `bench/workloads.py` are
imported as they are, from `bench/` on `sys.path`; nothing in them is
changed.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:  # leave no bytecode cache under bench/
    from tracer import Tracer
    from workloads import WORKLOADS, expected_counts
finally:
    sys.dont_write_bytecode = _write_bytecode

from clfgame import cli, config  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_match_the_spec(tmp_path, name):
    workload = WORKLOADS[name]
    for index, data in enumerate(workload.specs):
        path = tmp_path / f"spec{index}.json"
        path.write_text(json.dumps(data))
        spec = config.with_overrides(config.load_spec(path), repetitions=1)
        argv = [workload.command, str(path), "--seed", "1", "--reps", "1",
                "--out", str(tmp_path / f"out{index}")]
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        counts = tracer.totals()
        for key, want in expected_counts(workload, spec).items():
            assert counts[key] == want, (name, index, key)
        for key in workload.nonzero:
            assert counts[key] > 0, (name, index, key)
