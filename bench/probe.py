"""Set-up probe: what a workload process does before its first experiment.

Imports numpy and clfgame, loads and validates the given spec files, then
prints the CLOCK_MONOTONIC time at which the first experiment could start.
`run.py` starts it as a fresh process from the repository root and takes
the time from the spawn to that line as one `setup_s` sample.
"""

import sys
import time

sys.path.insert(0, "src")

import numpy  # noqa: E402,F401

import clfgame.cli  # noqa: E402,F401
from clfgame.config import load_spec  # noqa: E402

for path in sys.argv[1:]:
    load_spec(path)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
