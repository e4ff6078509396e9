"""Preset report content, CLI surface, and byte-level reproducibility."""

import json
import platform
import tracemalloc
import warnings

import numpy as np
import pytest

from clfgame.cli import main
from clfgame.config import spec_from_dict
from clfgame.presets import (
    preset_accuracy_check,
    preset_kl_convergence,
    preset_selection_table,
    preset_utility_comparison,
)
from clfgame.reports import ReportRow, read_report


def fast_spec(tmp_path, **extra):
    data = {
        "run": {"h": 6, "n_trials": 4, "q": 4, "seed": 7,
                "classification_mode": "expectation"},
        "repetitions": 2,
        "output_dir": str(tmp_path / "out"),
    }
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    return spec_from_dict(data)


def values(rows, experiment=None, metric=None):
    return [r.value for r in rows
            if (experiment is None or r.experiment == experiment)
            and (metric is None or r.metric == metric)]


class TestAccuracyCheck:
    def test_cells_reconstructed_within_tolerance(self, tmp_path):
        spec = fast_spec(tmp_path)
        csv_path, manifest_path = preset_accuracy_check(spec, n=20_000)
        rows = read_report(csv_path)
        errors = [r.value for r in rows if r.metric.startswith("acc_abs_error")]
        assert len(errors) == 12
        assert max(errors) <= 0.02
        manifest = json.loads(manifest_path.read_text())
        assert manifest["spec"]["run"]["seed"] == 7

    def test_single_draw_cells_are_binary(self, tmp_path):
        spec = fast_spec(tmp_path)
        csv_path, _ = preset_accuracy_check(spec, n=1)
        rows = read_report(csv_path)
        empirical = [r.value for r in rows if r.metric.startswith("acc_empirical")]
        assert set(empirical) <= {0.0, 1.0}

    def test_deterministic_matrix_reconstructed_exactly(self, tmp_path):
        spec = fast_spec(tmp_path, game={"accuracy": [[1.0, 1.0], [1.0, 1.0]]})
        csv_path, _ = preset_accuracy_check(spec, n=100)
        rows = read_report(csv_path)
        assert all(r.value == 0.0 for r in rows if r.metric.startswith("acc_abs_error"))


class TestKlConvergence:
    def test_curves_have_baseline_plus_one_point_per_trial(self, tmp_path):
        spec = fast_spec(tmp_path)
        csv_path, _ = preset_kl_convergence(spec)
        rows = read_report(csv_path)
        for rule in ("fp", "bu"):
            for rep in range(2):
                curve = values(rows, f"kl:{rule}:rep{rep}", "kl")
                assert len(curve) == spec.run.n_trials + 1
            assert len(values(rows, f"kl:{rule}:mean", "kl")) == spec.run.n_trials + 1

    def test_uniform_true_p_curve_starts_at_zero(self, tmp_path):
        """When the sampled actual distribution equals the uniform prior the
        baseline divergence row is exactly zero; approximate that by checking
        the baseline equals KL(prior, sampled p) for every rep."""
        from clfgame.belief import kl_divergence
        from clfgame.game import TypeDistribution
        spec = fast_spec(tmp_path)
        csv_path, _ = preset_kl_convergence(spec)
        rows = read_report(csv_path)
        for rep in range(2):
            exp = f"kl:fp:rep{rep}"
            true_p = TypeDistribution(np.array(
                [values(rows, exp, f"true_p_T{i}")[0] for i in range(4)]))
            baseline = values(rows, exp, "kl")[0]
            expected = kl_divergence(TypeDistribution.uniform(4), true_p)
            assert baseline == pytest.approx(expected, abs=1e-12)
        assert kl_divergence(TypeDistribution.uniform(4),
                             TypeDistribution.uniform(4)) == 0.0

    def test_conditional_kl_columns_present(self, tmp_path):
        spec = fast_spec(tmp_path)
        csv_path, _ = preset_kl_convergence(spec)
        rows = read_report(csv_path)
        for j in range(3):
            assert values(rows, metric=f"conditional_kl_L{j}")

    def test_each_rule_reports_its_own_conditional(self, tmp_path):
        """`kl:fp:*` rows carry `fp_conditional`'s divergence and `kl:bu:*`
        rows `bu_conditional`'s, recomputed from a rerun of each row's seed."""
        from dataclasses import replace

        from clfgame.belief import bu_conditional, fp_conditional, kl_divergence
        from clfgame.game import TypeDistribution
        from clfgame.selfplay import self_play
        spec = fast_spec(tmp_path)
        csv_path, _ = preset_kl_convergence(spec)
        rows = read_report(csv_path)
        differ = 0
        for rule, conditional in (("fp", fp_conditional), ("bu", bu_conditional)):
            for rep in range(spec.repetitions):
                exp = f"kl:{rule}:rep{rep}"
                (seed,) = {r.seed for r in rows if r.experiment == exp}
                true_p = TypeDistribution(np.array(
                    [values(rows, exp, f"true_p_T{i}")[0] for i in range(4)]))
                belief = self_play(spec.game, replace(spec.run, true_p=true_p,
                                                      seed=seed)).belief_state
                for j in range(3):
                    (reported,) = values(rows, exp, f"conditional_kl_L{j}")
                    assert reported == kl_divergence(conditional(belief, j), true_p)
                    other = bu_conditional if rule == "fp" else fp_conditional
                    differ += reported != kl_divergence(other(belief, j), true_p)
        # after a refresh the two are equal up to rounding; the last bits
        # tell them apart on these runs, so a swapped diagnostic fails
        assert differ


class TestSelectionTable:
    def test_single_classifier_selects_it_always(self, tmp_path):
        spec = fast_spec(tmp_path, game={"accuracy": [[0.9, 0.6]]})
        csv_path, _ = preset_selection_table(spec)
        rows = read_report(csv_path)
        assert all(v == 100.0 for v in values(rows, metric="selection_pct_L0"))

    def test_percentages_sum_to_hundred(self, tmp_path):
        spec = fast_spec(tmp_path)
        csv_path, _ = preset_selection_table(spec)
        rows = read_report(csv_path)
        for method in ("ucb", "bne"):
            for t in range(4):
                pct = [values(rows, f"table:{method}:T{t}", f"selection_pct_L{j}")[0]
                       for j in range(3)]
                assert sum(pct) == pytest.approx(100.0, abs=1e-9)

    def test_concentrated_strength_two_prefers_most_hardened(self, tmp_path):
        spec = fast_spec(tmp_path, repetitions=3)
        csv_path, _ = preset_selection_table(spec)
        rows = read_report(csv_path)
        for method in ("ucb", "bne"):
            pct = [values(rows, f"table:{method}:T2", f"selection_pct_L{j}")[0]
                   for j in range(3)]
            assert int(np.argmax(pct)) == 2

    def test_clean_concentrated_accuracy_near_matrix(self, tmp_path):
        spec = fast_spec(tmp_path, repetitions=3)
        csv_path, _ = preset_selection_table(spec)
        rows = read_report(csv_path)
        for method in ("ucb", "bne"):
            acc = values(rows, f"table:{method}:T0", "accuracy")[0]
            assert acc == pytest.approx(0.9392, abs=0.05)


class TestUtilityComparison:
    def test_increasing_costs_flagged_and_direction_holds(self, tmp_path):
        spec = fast_spec(tmp_path, game={"c_classifier": [0.0, 0.01, 0.02]},
                         repetitions=3)
        csv_path, _ = preset_utility_comparison(spec)
        rows = read_report(csv_path)
        assert values(rows, "utility:config", "costs_strictly_increasing") == [1.0]
        for t in range(4):
            baseline = values(rows, f"utility:baseline:T{t}",
                              "baseline_learner_utility")[0]
            for method in ("ucb", "bne"):
                got = values(rows, f"utility:{method}:T{t}",
                             "mean_learner_utility")[0]
                assert got >= baseline - 0.01

    def test_flat_costs_warn_in_manifest(self, tmp_path):
        spec = fast_spec(tmp_path)
        _, manifest_path = preset_utility_comparison(spec)
        manifest = json.loads(manifest_path.read_text())
        assert any("not strictly increasing" in note for note in manifest["notes"])

    def test_zero_values_yield_pure_cost_utilities(self, tmp_path):
        spec = fast_spec(tmp_path, game={"v_learner": 0.0,
                                         "c_classifier": [0.0, 0.01, 0.02]})
        csv_path, _ = preset_utility_comparison(spec)
        rows = read_report(csv_path)
        for r in rows:
            if r.metric in ("mean_learner_utility", "baseline_learner_utility"):
                assert -0.02 - 1e-9 <= r.value <= 0.0 + 1e-9


class TestCli:
    def test_acc_check_exit_zero_and_files(self, tmp_path, capsys):
        assert main(["acc-check", "--out", str(tmp_path / "r"), "--seed", "3"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 2
        assert (tmp_path / "r" / "accuracy_check.csv").exists()

    def test_run_requires_spec(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"game": {"accuracy": [[2.0]]}}))
        assert main(["run", str(bad)]) == 1
        assert "accuracy out of [0,1]" in capsys.readouterr().err

    def test_missing_spec_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_run_dispatches_to_spec_preset(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "preset": "accuracy_check",
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", str(spec_path), "--seed", "6"]) == 0
        assert (tmp_path / "out" / "accuracy_check.csv").exists()

    def test_same_seed_reproduces_bytes(self, tmp_path, capsys):
        spec = {"run": {"h": 4, "n_trials": 3, "q": 3}, "repetitions": 2}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(spec_path), "--seed", "21",
                     "--out", str(out_a)]) == 0
        assert main(["run", str(spec_path), "--seed", "21",
                     "--out", str(out_b)]) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()

    def test_different_seed_changes_metrics(self, tmp_path, capsys):
        spec = {"run": {"h": 4, "n_trials": 3, "q": 3}, "repetitions": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(spec_path), "--seed", "1", "--out", str(out_a)])
        main(["run", str(spec_path), "--seed", "2", "--out", str(out_b)])
        assert (out_a / "run.csv").read_bytes() != (out_b / "run.csv").read_bytes()

    def test_kl_and_table_and_utility_commands(self, tmp_path, capsys):
        spec = {"run": {"h": 4, "n_trials": 2, "q": 2,
                        "classification_mode": "expectation"},
                "repetitions": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        for command, name in (("kl", "kl_convergence"),
                              ("table", "selection_table"),
                              ("utility", "utility_comparison")):
            out = tmp_path / command
            assert main([command, str(spec_path), "--out", str(out)]) == 0
            assert (out / f"{name}.csv").exists()
            assert (out / f"{name}_manifest.json").exists()


    @pytest.mark.parametrize("command, name", [
        ("acc-check", "accuracy_check"), ("kl", "kl_convergence"),
        ("table", "selection_table"), ("utility", "utility_comparison")])
    def test_manifest_spec_reruns_its_report(self, tmp_path, capsys, command, name):
        """`clfgame run` on the spec a manifest records writes the same
        CSV, into another directory, without a warning: the spec spells
        out the bundled accuracy matrix, whose known dip on the clean
        column stays as silent as when the matrix is left out."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"run": {"h": 3, "n_trials": 2, "q": 2},
                                         "repetitions": 1}))
        first = tmp_path / "first"
        assert main([command, str(spec_path), "--seed", "5", "--out", str(first)]) == 0
        manifest = json.loads((first / f"{name}_manifest.json").read_text())
        assert manifest["spec"]["preset"] == name
        saved = tmp_path / "manifest_spec.json"
        saved.write_text(json.dumps(manifest["spec"]))
        again = tmp_path / "again"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(saved), "--out", str(again)]) == 0
        assert (again / f"{name}.csv").read_bytes() == (first / f"{name}.csv").read_bytes()

    def test_manifest_records_python_and_numpy_versions(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"run": {"h": 3, "n_trials": 2, "q": 2},
                                         "repetitions": 1}))
        assert main(["run", str(spec_path), "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__

    def test_plain_run_manifest_names_no_preset(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"run": {"h": 3, "n_trials": 2, "q": 2},
                                         "repetitions": 1}))
        assert main(["run", str(spec_path), "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["spec"]["preset"] is None


class TestPresetMemory:
    @staticmethod
    def traced_peak(preset, tmp_path, reps):
        spec = fast_spec(tmp_path, run={"h": 4, "n_trials": 5, "q": 1000},
                         repetitions=reps)
        tracemalloc.start()
        try:
            preset(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("preset", [preset_selection_table,
                                        preset_utility_comparison])
    def test_peak_does_not_grow_with_repetitions(self, tmp_path, preset):
        """A cell's runs are kept one at a time, so 8 repetitions peak no
        higher than 2 do (within 20 %)."""
        self.traced_peak(preset, tmp_path, 1)  # first-call caches and imports
        two = self.traced_peak(preset, tmp_path, 2)
        eight = self.traced_peak(preset, tmp_path, 8)
        assert eight <= 1.2 * two, (two, eight)


class TestReportSchema:
    def test_rows_conform(self, tmp_path):
        spec = fast_spec(tmp_path)
        csv_path, _ = preset_kl_convergence(spec)
        for row in read_report(csv_path):
            assert isinstance(row, ReportRow)
            assert row.trial >= -1
            assert row.metric
