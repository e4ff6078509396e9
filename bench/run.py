"""Benchmark for clfgame: CLI experiments timed end to end and traced per layer.

Run from the repository root:

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A workload is one closed loop in one process and one thread: it calls
`clfgame.cli.main([...])` in-process, back to back, on spec files generated
from `--seed`, until `--seconds` have passed, and checks every
invocation's report.  With `--trace 0` the last line of output is a JSON
object with the end-to-end metrics.  With `--trace 1` untraced and traced
invocations alternate (see tracer.py); the last line carries the
per-layer metrics and the tracing overhead, and a cProfile listing and
the spans of one traced invocation are saved.  Everything else the run
records (environment, per-invocation times, report hashes, diagnostics)
goes to `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import os
import pstats
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Workload, expected_counts, plays_per_run

OUT_ROOT = Path(".bench_out")
BENCH_DIR = Path(__file__).resolve().parent
#: Fresh processes timed for `setup_s`, after one that fills the bytecode cache.
SETUP_PROBES = 15
#: How many top cumulative-time entries the cProfile listing keeps.
PROFILE_ENTRIES = 40
END_TO_END = (("experiment_s", "s"), ("plays_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD's commit read from `.git`, or "unknown" outside a git checkout."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_samples(spec_paths: list[Path]) -> list[float]:
    """Seconds from spawning a fresh probe process to its first experiment."""
    argv = [sys.executable, str(BENCH_DIR / "probe.py"), *map(str, spec_paths)]
    samples = []
    for probe in range(SETUP_PROBES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, check=True)
        if probe:
            samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def _invoke(cli, argv: list[str]) -> tuple[float, list[str], str | None]:
    """One CLI invocation: wall seconds, printed report paths, error or None."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}: {err.getvalue().strip()}"
    except (Exception, SystemExit):
        error = traceback.format_exc()
    return time.perf_counter() - start, out.getvalue().split(), error


def _read_csv(path: Path) -> list[tuple]:
    lines = path.read_text().splitlines()
    if lines[0] != "experiment,seed,trial,metric,value":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        experiment, seed, trial, metric, value = line.split(",")
        rows.append((experiment, int(seed), int(trial), metric, float(value)))
    return rows


def _check_report(workload: Workload, spec, paths: list[str]):
    """Parse the CSV and manifest and run the workload's checks.

    Returns (problems, diagnostics, sha256 per report file).
    """
    csv_paths = [Path(p) for p in paths if p.endswith(".csv")]
    manifests = [Path(p) for p in paths if p.endswith("_manifest.json")]
    if len(csv_paths) != 1 or len(manifests) != 1:
        return [f"expected one CSV and one manifest, got {paths}"], {}, {}
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in (*csv_paths, *manifests)}
    try:
        rows = _read_csv(csv_paths[0])
        manifest = json.loads(manifests[0].read_text())
    except (OSError, ValueError) as err:
        return [f"unreadable report: {err}"], {}, hashes
    problems, diagnostics = workload.check(rows, spec)
    if manifest.get("n_rows") != len(rows):
        problems.append(f"manifest n_rows {manifest.get('n_rows')} != {len(rows)} rows")
    return problems, diagnostics, hashes


def _percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for pct in (99.9, 99, 95, 90, 75):
        if len(samples) * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000)[round(pct * 10) - 1]
            return f"p{pct:g} {cut:.4f} s"
    return "no percentile has ten samples beyond it"


class Run:
    """One workload run: set-up, the timed loop, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, reps: int | None = None):
        from clfgame import cli, config

        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.cli = cli
        self.reps = reps or workload.reps
        self.out = OUT_ROOT / workload.name
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "specs").mkdir(parents=True)
        self.spec_paths = []
        for index, data in enumerate(workload.specs):
            path = self.out / "specs" / f"spec{index}.json"
            path.write_text(json.dumps(data, indent=2) + "\n")
            self.spec_paths.append(path)
        self.specs = [config.with_overrides(config.load_spec(p), repetitions=self.reps)
                      for p in self.spec_paths]
        self.seeds = random.Random(f"{workload.name}:{seed}")
        self.tracer = Tracer() if trace else None
        self.records: list[dict] = []
        self.problems: list[str] = []

    def _experiment(self, index: int, seed: int, traced: bool) -> dict:
        which = index % len(self.specs)
        spec = self.specs[which]
        argv = [self.workload.command, str(self.spec_paths[which]),
                "--seed", str(seed), "--out", str(self.out / f"exp{index}"),
                "--reps", str(self.reps)]
        if traced:
            before = self.tracer.snapshot()
            self.tracer.install()
            try:
                seconds, paths, error = _invoke(self.cli, argv)
            finally:
                self.tracer.uninstall()
        else:
            seconds, paths, error = _invoke(self.cli, argv)
        record = {"index": index, "spec": which, "seed": seed, "traced": traced,
                  "seconds": seconds, "plays": 0, "error": error, "problems": [],
                  "sha256": {}, "diagnostics": {}}
        if error is None:
            problems, record["diagnostics"], record["sha256"] = \
                _check_report(self.workload, spec, paths)
            if traced:
                counts = self.tracer.totals(before)
                record["layer"] = counts
                for name, want in expected_counts(self.workload, spec).items():
                    if counts[name] != want:
                        problems.append(f"{name} = {counts[name]}, spec implies {want}")
            record["problems"] = problems
            if not problems:
                record["plays"] = (self.workload.runs_per_rep(spec)
                                   * spec.repetitions * plays_per_run(spec))
        record["ok"] = error is None and not record["problems"]
        return record

    def loop(self) -> None:
        """Back-to-back invocations for `seconds`, at least one per spec
        (with tracing, at least one untraced and one traced per spec)."""
        group = len(self.specs)
        minimum = group * (2 if self.trace else 1)
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds or len(self.records) < minimum:
            index = len(self.records)
            traced = self.trace and (index // group) % 2 == 1
            first_traced = self.trace and index == group
            if first_traced:
                self.tracer.spans = []
            self.records.append(self._experiment(index, self.seeds.randrange(2**31),
                                                 traced))
            if first_traced:
                self._save_spans(index)
        self.loop_s = time.perf_counter() - start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def _save_spans(self, index: int) -> None:
        with (self.out / "trace_spans.jsonl").open("w") as handle:
            for span_id, parent, name, start, end in self.tracer.spans:
                handle.write(json.dumps({"experiment": index, "id": span_id,
                                         "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
        self.tracer.spans = None

    def recheck_determinism(self) -> None:
        """Rerun one invocation untraced with its seed and compare report hashes.

        With tracing, the rerun is of the first traced invocation, so this
        also shows that tracing leaves outputs unchanged.
        """
        record = self.records[len(self.specs) if self.trace else 0]
        if not record["ok"]:
            return
        rerun = self._experiment(record["index"], record["seed"], traced=False)
        if rerun["sha256"] != record["sha256"]:
            record["problems"].append("report hashes differ when rerun with the same seed")
            record["ok"] = False

    def profile(self) -> None:
        """One more invocation under cProfile; top cumulative entries to a file."""
        index = len(self.records)
        profiler = cProfile.Profile()
        profiler.enable()
        record = self._experiment(index, self.seeds.randrange(2**31), traced=False)
        profiler.disable()
        if not record["ok"]:
            self.problems.append(f"profiled invocation failed: {record['error'] or record['problems']}")
        listing = io.StringIO()
        pstats.Stats(profiler, stream=listing).strip_dirs().sort_stats("cumulative").print_stats(
            PROFILE_ENTRIES)
        (self.out / "profile.txt").write_text(listing.getvalue())

    def result(self, setup: list[float]) -> dict:
        ok = [r for r in self.records if r["ok"]]
        failed = len(self.records) - len(ok)
        report = {"environment": _environment(), "reps": self.reps,
                  "loop_s": self.loop_s, "setup_samples": setup,
                  "problems": self.problems, "invocations": self.records}
        if self.trace:
            metrics = self._layer_metrics(ok)
        else:
            by_spec = [[r["seconds"] for r in ok if r["spec"] == s]
                       for s in range(len(self.specs))]
            # Invocations of different specs are timed separately and their
            # medians averaged, so the mix does not make the median bimodal.
            experiment_s = (statistics.fmean(statistics.median(t) for t in by_spec)
                            if all(by_spec) else 0.0)
            values = {
                "experiment_s": experiment_s,
                "plays_per_s": _plays_per_s(ok, self.records),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": self.peak_rss_mb,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            report["experiment_s_samples"] = by_spec
        correct = failed == 0 and not self.problems
        report["metrics"] = metrics
        return {"correct": correct, "attempted": len(self.records),
                "failed": failed, "metrics": metrics, "report": report}

    def _layer_metrics(self, ok: list[dict]) -> dict:
        traced = [r for r in ok if r["traced"]]
        untraced = [r for r in ok if not r["traced"]]
        totals = {name: sum(r["layer"][name] for r in traced)
                  for name in (traced[0]["layer"] if traced else ())}
        metrics = {name: {"value": totals.get(name, 0) / max(len(traced), 1), "unit": unit}
                   for name, unit in LAYER_METRICS}
        if traced and totals["tree.draws"]:
            metrics["tree.useful_draw_ratio"]["value"] = (
                totals["tree.useful_draws"] / totals["tree.draws"])
        for name in self.workload.nonzero:
            if not totals.get(name, 0) > 0:
                self.problems.append(f"{name} is zero on {self.workload.name}")
        rate = {"traced": _plays_per_s(traced, traced),
                "untraced": _plays_per_s(untraced, untraced)}
        metrics["trace.plays_per_s.untraced"] = {"value": rate["untraced"], "unit": "1/s"}
        metrics["trace.plays_per_s.traced"] = {"value": rate["traced"], "unit": "1/s"}
        overhead = 1 - rate["traced"] / rate["untraced"] if rate["untraced"] else 0.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        return metrics


def _plays_per_s(completed: list[dict], attempted: list[dict]) -> float:
    """Plays of the completed invocations per second spent in all attempted."""
    seconds = sum(r["seconds"] for r in attempted)
    return sum(r["plays"] for r in completed) / seconds if seconds else 0.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reps: int | None = None) -> dict:
    """Run one workload and return its result object (with a `report`)."""
    run = Run(workload, seed, seconds, trace, reps)
    setup = [] if trace else _setup_samples(run.spec_paths)
    run.loop()
    run.recheck_determinism()
    if trace:
        run.profile()
    result = run.result(setup)
    (run.out / ("result_trace.json" if trace else "result.json")).write_text(
        json.dumps(result["report"], indent=1, default=str) + "\n")
    return result


def summary_lines(name: str, result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit, and diagnostics."""
    report = result["report"]
    lines = [f"{name}: {report['environment']}"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    if "experiment_s_samples" in report:
        samples = [t for group in report["experiment_s_samples"] for t in group]
        lines.append(f"  experiment_s samples: {len(samples)}; "
                     f"{_percentile_note(samples)}")
    lines.append(f"  {'error_rate':28s} {result['failed'] / result['attempted']:.6g} "
                 f"ratio ({result['failed']} of {result['attempted']} invocations failed)")
    for record in report["invocations"]:
        if not record["ok"]:
            lines.append(f"  invocation {record['index']} failed: "
                         f"{record['error'] or record['problems']}")
    for problem in report["problems"]:
        lines.append(f"  check failed: {problem}")
    gaps: dict[str, list[float]] = {}
    for record in report["invocations"]:
        for cell, gap in record["diagnostics"].get("criterion4_gap", {}).items():
            gaps.setdefault(cell, []).append(gap)
    if gaps:
        lines.append("  criterion 4 gap (best single classifier accuracy minus "
                     "self-play accuracy; tolerance 0.05, not gated), mean over "
                     f"{len(next(iter(gaps.values())))} invocations:")
        lines.append("    " + "  ".join(f"{cell} {statistics.fmean(v):+.4f}"
                                       for cell, v in gaps.items()))
    first = report["invocations"][0]
    for file, digest in sorted(first["sha256"].items()):
        lines.append(f"  sha256 of invocation 0's {file} (seed {first['seed']}): {digest}")
    return lines


def _run_all(args) -> int:
    """Every workload in turn, each in its own process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        print(done.stdout.rstrip("\n").rpartition("\n")[0])
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/clfgame/__init__.py").is_file():
        print("error: src/clfgame not found; run from the repository root",
              file=sys.stderr)
        return 2
    # One thread: keep BLAS pools in numpy (here and in probes) from starting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(Path("src").resolve()))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print("\n".join(summary_lines(args.workload, result)))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
