"""Spec loading, validation messages, and serialization round-trips."""

import json

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    AdversaryMode,
    ClassificationMode,
    ConfigurationError,
    PayoffConfig,
    SelectionMethod,
    SelfPlayConfig,
    TypeDistribution,
    UpdateRule,
)
from clfgame.config import (
    ExperimentSpec,
    load_spec,
    serialize_spec,
    spec_from_dict,
    with_overrides,
)


def write_spec(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return path


class TestDefaults:
    def test_empty_config_gives_full_default_spec(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, {}))
        assert spec.game.n_classifiers == 3
        assert spec.game.n_types == 4
        assert spec.game.accuracy.acc[0, 0] == 0.9392
        assert spec.run.h == 20
        assert spec.run.n_trials == 10
        assert spec.run.q == 10
        assert spec.run.ucb_c == 2.0
        assert spec.run.selection is SelectionMethod.UCB
        assert spec.run.update_rule is UpdateRule.FICTITIOUS_PLAY
        assert spec.run.adversary_mode is AdversaryMode.SAMPLED
        assert spec.run.classification_mode is ClassificationMode.STOCHASTIC
        assert spec.run.true_p is None
        assert spec.repetitions == 10
        assert spec.preset is None

    def test_empty_file_equals_empty_object(self, tmp_path):
        path = tmp_path / "blank.json"
        path.write_text("")
        assert serialize_spec(load_spec(path)) == serialize_spec(spec_from_dict({}))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_spec(tmp_path / "absent.json")


class TestValidation:
    def test_accuracy_out_of_range(self, tmp_path):
        data = {"game": {"accuracy": [[0.5, 1.2], [0.4, 0.6]]}}
        with pytest.raises(ConfigurationError, match=r"accuracy out of \[0,1\]"):
            load_spec(write_spec(tmp_path, data))

    def test_accuracy_dimension_mismatch(self, tmp_path):
        data = {"game": {"n_classifiers": 3,
                         "accuracy": [[0.5, 0.5], [0.4, 0.6]]}}
        with pytest.raises(ConfigurationError, match="game.accuracy"):
            load_spec(write_spec(tmp_path, data))

    def test_unknown_keys_are_named(self, tmp_path):
        with pytest.raises(ConfigurationError, match="game.bogus"):
            load_spec(write_spec(tmp_path, {"game": {"bogus": 1}}))
        with pytest.raises(ConfigurationError, match="run.mystery"):
            load_spec(write_spec(tmp_path, {"run": {"mystery": 1}}))

    def test_true_p_must_match_type_count(self, tmp_path):
        data = {"run": {"true_p": [0.5, 0.5]}}
        with pytest.raises(ConfigurationError, match="run.true_p"):
            load_spec(write_spec(tmp_path, data))

    def test_true_p_must_be_a_distribution(self, tmp_path):
        data = {"run": {"true_p": [0.5, 0.5, 0.5, 0.5]}}
        with pytest.raises(ConfigurationError, match="run.true_p"):
            load_spec(write_spec(tmp_path, data))

    def test_selection_value_checked(self, tmp_path):
        with pytest.raises(ConfigurationError, match="run.selection"):
            load_spec(write_spec(tmp_path, {"run": {"selection": "greedy"}}))

    def test_costs_checked(self, tmp_path):
        with pytest.raises(ConfigurationError, match="game"):
            load_spec(write_spec(tmp_path, {"game": {"c_classifier": [-1, 0, 0]}}))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_spec(path)

    def test_bad_preset_name(self):
        with pytest.raises(ConfigurationError, match="preset"):
            spec_from_dict({"preset": "nonsense"})

    def test_repetitions_floor(self):
        with pytest.raises(ConfigurationError, match="repetitions"):
            spec_from_dict({"repetitions": 0})

    def test_nondefault_dims_require_matrix(self):
        with pytest.raises(ConfigurationError, match="game.accuracy"):
            spec_from_dict({"game": {"n_classifiers": 2}})


class TestRoundTrip:
    def test_load_serialize_load_is_identity(self, tmp_path):
        data = {
            "game": {
                "accuracy": [[0.9, 0.7], [0.95, 0.8]],
                "v_learner": 2.0,
                "c_classifier": [0.0, 0.05],
            },
            "run": {
                "h": 8, "n_trials": 4, "q": 3, "C": 1.5,
                "selection": "bne", "update_rule": "bayesian_update",
                "classification_mode": "expectation",
                "true_p": [0.7, 0.3], "seed": 42,
                "traversals_per_trial": 6,
            },
            "repetitions": 2,
            "output_dir": "somewhere",
            "preset": "kl_convergence",
        }
        first = load_spec(write_spec(tmp_path, data))
        dumped = serialize_spec(first)
        second = spec_from_dict(json.loads(json.dumps(dumped)))
        assert serialize_spec(second) == dumped
        assert second.run.ucb_c == 1.5
        assert second.run.update_rule is UpdateRule.BAYESIAN_UPDATE
        np.testing.assert_array_equal(second.game.payoff.v_learner,
                                      np.full((2, 2), 2.0))

    def test_scalar_broadcast(self):
        spec = spec_from_dict({"game": {"c_classifier": 0.1, "v_adversary": 0.5}})
        np.testing.assert_array_equal(spec.game.payoff.c_classifier, np.full(3, 0.1))
        np.testing.assert_array_equal(spec.game.payoff.v_adversary,
                                      np.full((3, 4), 0.5))

    def test_overrides(self):
        spec = spec_from_dict({})
        out = with_overrides(spec, seed=123, output_dir="elsewhere", repetitions=4)
        assert out.run.seed == 123
        assert str(out.output_dir) == "elsewhere"
        assert out.repetitions == 4
        # the original is untouched
        assert spec.run.seed == 0


NAN, INF = float("nan"), float("inf")

#: (spec, key the error must name); each is a spec the CLI must refuse.
BAD_SPECS = [
    ({"game": {"accuracy": [[0.9, NAN], [0.95, 0.8]]}}, "game.accuracy"),
    ({"game": {"accuracy": "x"}}, "game.accuracy"),
    ({"game": {"accuracy": [[0.9, 0.8], [0.9]]}}, "game.accuracy"),
    ({"game": {"c_classifier": [0, INF, 0]}}, "game.c_classifier"),
    ({"game": {"c_type": [0, 0, NAN, 0]}}, "game.c_type"),
    ({"game": {"v_learner": INF}}, "game.v_learner"),
    ({"game": {"v_adversary": [[1, 1, 1, -INF]] * 3}}, "game.v_adversary"),
    ({"game": {"n_types": "4"}}, "game.n_types"),
    ({"game": 5}, "game"),
    ({"run": {"true_p": [NAN, 0.5, 0.25, 0.25]}}, "run.true_p"),
    ({"run": {"true_p": ["a", "b", "c", "d"]}}, "run.true_p"),
    ({"run": {"h": "abc"}}, "run.h"),
    ({"run": {"h": 20.7}}, "run.h"),
    ({"run": {"h": 0}}, "run.h"),
    ({"run": {"q": True}}, "run.q"),
    ({"run": {"seed": -1}}, "run.seed"),
    ({"run": {"n_trials": INF}}, "run.n_trials"),
    ({"run": {"rollout_uses_belief": "false"}}, "run.rollout_uses_belief"),
    ({"run": {"C": NAN}}, "run.C"),
    ({"run": {"ucb_c": -1}}, "run.ucb_c"),
    ({"repetitions": 0.5}, "repetitions"),
    ({"output_dir": 3}, "output_dir"),
    ({"run": {"rollout_uses_belief": False}}, "run.rollout_uses_belief"),
    # within the simplex tolerance, but a draw refuses a negative entry
    ({"run": {"true_p": [1.0000000005, -5e-10, 0, 0]}}, "run.true_p"),
    ({"preset": "nope"}, "preset"),
]


class TestBadSpecs:
    @pytest.mark.parametrize("data, key", BAD_SPECS)
    def test_config_error_names_key(self, data, key):
        with pytest.raises(ConfigurationError, match=rf"^{key}: "):
            spec_from_dict(data)

    @pytest.mark.parametrize("data, key", BAD_SPECS)
    def test_cli_prints_one_error_line(self, tmp_path, capsys, data, key):
        from clfgame.cli import main
        path = write_spec(tmp_path, data)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key}: "), lines
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_cli_seed_override_is_checked(self, tmp_path, capsys):
        from clfgame.cli import main
        assert main(["acc-check", "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: run.seed: ")

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_cli_reps_override_is_checked(self, tmp_path, capsys, reps):
        from clfgame.cli import main
        assert main(["table", "--reps", reps, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: repetitions: "), lines
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_integral_floats_and_booleans_accepted(self):
        spec = spec_from_dict({"run": {"h": 20.0}, "repetitions": 3.0})
        assert spec.run.h == 20 and isinstance(spec.run.h, int)
        assert spec.repetitions == 3

    @pytest.mark.parametrize("build", [
        lambda: TypeDistribution(np.array([NAN, 0.5, 0.5])),
        lambda: AccuracyMatrix(np.array([[0.9, NAN]])),
        lambda: PayoffConfig(np.ones((1, 1)), np.ones((1, 1)),
                             np.array([INF]), np.zeros(1)),
        lambda: SelfPlayConfig(seed=-1),
    ])
    def test_domain_types_reject_non_finite_and_negative_seed(self, build):
        with pytest.raises(ConfigurationError):
            build()
