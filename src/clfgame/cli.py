"""Command-line entry point.

Subcommands map to the experiment presets; `run` executes a spec file as
given (dispatching to its `preset` field when set).  Global flags override
the spec's seed, output directory and repetition count.  Exits 0 on
success, 1 on validation or I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .config import ExperimentSpec, load_spec, spec_from_dict, with_overrides
from .game import ConfigurationError
from .presets import (
    preset_accuracy_check,
    preset_kl_convergence,
    preset_run,
    preset_selection_table,
    preset_utility_comparison,
)

_PRESET_DISPATCH = {
    "selection_table": preset_selection_table,
    "kl_convergence": preset_kl_convergence,
    "utility_comparison": preset_utility_comparison,
    "accuracy_check": preset_accuracy_check,
}

_COMMANDS = {
    "run": "execute a spec file (honors its preset field)",
    "table": "classifier-selection shares per concentrated type distribution",
    "kl": "belief-convergence curves, fp and bu conditional diagnostics",
    "utility": "self-play utility vs. the most-hardened fixed classifier",
    "acc-check": "reconstruct the accuracy matrix from the stochastic oracle",
}

_COMMAND_PRESET = {
    "table": "selection_table",
    "kl": "kl_convergence",
    "utility": "utility_comparison",
    "acc-check": "accuracy_check",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clfgame",
        description="Classifier-selection game experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        if command == "run":
            sub.add_argument("spec", help="path to a JSON spec file")
        else:
            sub.add_argument("spec", nargs="?", default=None,
                             help="optional JSON spec file (defaults apply)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the run seed")
        sub.add_argument("--out", default=None,
                         help="override the output directory")
        sub.add_argument("--reps", type=int, default=None,
                         help="override the repetition count")
    return parser


def _load(args: argparse.Namespace) -> ExperimentSpec:
    spec = load_spec(args.spec) if args.spec else spec_from_dict({})
    return with_overrides(spec, seed=args.seed, output_dir=args.out,
                          repetitions=args.reps)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _load(args)
        if args.command == "run":
            runner = _PRESET_DISPATCH.get(spec.preset, preset_run)
        else:
            runner = _PRESET_DISPATCH[_COMMAND_PRESET[args.command]]
        paths = runner(spec)
    except (ConfigurationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
