"""Spec loading, validation messages, and serialization round-trips."""

import copy
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    AdversaryMode,
    ClassificationMode,
    ConfigurationError,
    GameConfig,
    PayoffConfig,
    SelectionMethod,
    SelfPlayConfig,
    TypeDistribution,
    default_config,
    self_play,
)
from clfgame.config import (
    PRESETS,
    ExperimentSpec,
    load_spec,
    serialize_spec,
    spec_from_dict,
    with_overrides,
)
from clfgame.game import DEFAULT_ACCURACY, MAX_PAYOFF, REPR_LIMIT
from clfgame.selfplay import MAX_RUN_QUERIES


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
        data = {"game": {"c_classifier": [0.0, 0.01, 0.02],
                         "accuracy": [[0.4, 0.5], [0.5, 0.6]]}}
        with pytest.raises(ConfigurationError,
                           match=r"^game.c_classifier: expected shape \(2,\)"):
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

    @pytest.mark.parametrize("accuracy", [[], [[]], [[], []]])
    def test_empty_matrix_is_refused(self, accuracy):
        with pytest.raises(ConfigurationError, match=r"^game.accuracy: "):
            spec_from_dict({"game": {"accuracy": accuracy}})


class TestMonotonicityWarning:
    def test_spec_warning_names_the_key(self):
        with pytest.warns(UserWarning) as caught:
            spec_from_dict({"game": {"accuracy": [[0.9, 0.5], [0.85, 0.6]]}})
        assert [str(w.message) for w in caught] == [
            "game.accuracy: hardening monotonicity violated: L1<L0 on type 0"]

    def test_default_matrix_loads_silently(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            AccuracyMatrix(DEFAULT_ACCURACY)
            default_config()
            spec_from_dict({})
            load_spec(write_spec(tmp_path, {"game": {"accuracy": None}}))
            # given in full, as a manifest gives it
            spec = load_spec(write_spec(tmp_path,
                                        {"game": {"accuracy": DEFAULT_ACCURACY.tolist()}}))
        np.testing.assert_array_equal(spec.game.accuracy.acc, DEFAULT_ACCURACY)

    def test_a_near_copy_of_the_default_matrix_warns(self):
        """Only the bundled matrix itself is exempt: moving one cell that
        does not dip by 1e-4 brings its dips' warning back, once."""
        near = DEFAULT_ACCURACY.copy()
        near[0, 3] += 1e-4
        expected = "hardening monotonicity violated: L2<L1 on type 0, L2<L1 on type 1"
        with pytest.warns(UserWarning) as caught:
            AccuracyMatrix(near)
        assert [str(w.message) for w in caught] == [expected]
        with pytest.warns(UserWarning) as caught:
            spec_from_dict({"game": {"accuracy": near.tolist()}})
        assert [str(w.message) for w in caught] == [f"game.accuracy: {expected}"]


class TestDimensionsFromMatrix:
    """A spec's classifier and type counts are its accuracy matrix's shape."""

    def test_default_matrix_is_3x4(self):
        spec = spec_from_dict({})
        assert (spec.game.n_classifiers, spec.game.n_types) == (3, 4)

    def test_custom_matrix_sets_both(self):
        accuracy = [[0.9, 0.8, 0.7, 0.6, 0.5], [0.95, 0.85, 0.75, 0.65, 0.55]]
        spec = spec_from_dict({"game": {"accuracy": accuracy},
                               "run": {"true_p": [0.2] * 5}})
        assert (spec.game.n_classifiers, spec.game.n_types) == (2, 5)
        assert spec.game.payoff.c_classifier.shape == (2,)
        assert spec.game.payoff.c_type.shape == (5,)
        assert "n_classifiers" not in serialize_spec(spec)["game"]


class TestRoundTrip:
    def test_load_serialize_load_is_identity(self, tmp_path):
        data = {
            "game": {
                "accuracy": [[0.9, 0.7], [0.95, 0.8]],
                "v_learner": 2.0,
                "c_classifier": [0.0, 0.05],
            },
            "run": {
                "h": 6, "n_trials": 4, "q": 3, "ucb_c": 1.5,
                "selection": "bne",
                "classification_mode": "expectation",
                "true_p": [0.7, 0.3], "seed": 42,
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
        assert second.run.h == 6
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
    # keys that changed no outcome, deleted: each is an unknown key now
    ({"run": {"update_rule": "fp"}}, "run.update_rule"),
    ({"run": {"traversals_per_trial": 6}}, "run.traversals_per_trial"),
    ({"run": {"ucb_c": 1, "C": 5}}, "run.C"),
    ({"game": {"n_classifiers": 3}}, "game.n_classifiers"),
    ({"game": {"n_types": 4}}, "game.n_types"),
]

#: The dotted path of every key a spec may set.
KNOWN_KEYS = (
    [f"game.{key}" for key in ("accuracy", "v_learner", "v_adversary",
                               "c_classifier", "c_type")]
    + [f"run.{key}" for key in ("h", "n_trials", "q", "ucb_c", "selection",
                                "adversary_mode", "classification_mode",
                                "true_p", "seed")]
    + ["game", "run", "repetitions", "output_dir", "preset"]
)
#: Each deleted key, with a value it used to accept (mostly its default).
REMOVED_KEYS = {"run.update_rule": "bu", "run.traversals_per_trial": 20,
                "run.C": 2, "game.n_classifiers": 3, "game.n_types": 4}


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

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",     # not UTF-8
        b"[" * 100_000,  # nested past the parser's recursion limit
    ], ids=["not-utf8", "deep-nesting"])
    def test_cli_unreadable_file_prints_one_error_line(self, tmp_path, capsys, content):
        from clfgame.cli import main
        path = tmp_path / "spec.json"
        path.write_bytes(content)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
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


class TestOneKeyPerSetting:
    """Each setting has one key; keys that changed no outcome are refused."""

    def test_a_spec_serialises_every_known_key(self):
        dumped = serialize_spec(spec_from_dict({}))
        paths = [f"{section}.{key}" for section in ("game", "run")
                 for key in dumped[section]]
        paths += list(dumped)
        assert sorted(paths) == sorted(KNOWN_KEYS)
        assert len(KNOWN_KEYS) == 19

    @pytest.mark.parametrize("path", REMOVED_KEYS)
    @pytest.mark.parametrize("null", [False, True])
    def test_removed_key_is_unknown(self, tmp_path, capsys, path, null):
        data = build([(path, None if null else REMOVED_KEYS[path])])
        with pytest.raises(ConfigurationError) as err:
            spec_from_dict(data)
        assert str(err.value) == f"{path}: unknown key"
        from clfgame.cli import main
        assert main(["run", str(write_spec(tmp_path, data)),
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {path}: unknown key"]
        assert captured.out == ""

    def test_manifest_from_before_the_deletion_is_refused(self, tmp_path):
        """A manifest's spec that still carries the deleted keys is refused,
        naming the first of them in the manifest's sorted key order."""
        old = serialize_spec(spec_from_dict({}))
        old["game"].update(n_classifiers=3, n_types=4)
        old["run"].update(update_rule="fp", traversals_per_trial=None)
        manifest = {"name": "run", "spec": old}
        path = tmp_path / "run_manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        with pytest.raises(ConfigurationError, match=r"^game.n_classifiers: unknown key$"):
            spec_from_dict(json.loads(path.read_text())["spec"])

    @pytest.mark.parametrize("path", KNOWN_KEYS)
    def test_null_means_absent(self, path):
        default = serialize_spec(spec_from_dict({}))
        assert serialize_spec(spec_from_dict(build([(path, None)]))) == default

    def test_every_known_key_set_to_null_at_once(self):
        data = build([(path, None) for path in KNOWN_KEYS if "." in path])
        data.update(repetitions=None, output_dir=None, preset=None)
        assert serialize_spec(spec_from_dict(data)) == serialize_spec(spec_from_dict({}))

    def test_enum_values_in_any_case(self):
        spec = spec_from_dict({"run": {"selection": "BNE",
                                       "adversary_mode": "Best_Response",
                                       "classification_mode": "EXPECTATION"}})
        assert spec.run.selection is SelectionMethod.BNE
        assert spec.run.adversary_mode is AdversaryMode.BEST_RESPONSE
        assert spec.run.classification_mode is ClassificationMode.EXPECTATION
        with pytest.raises(ConfigurationError,
                           match=r"^run.selection: must be one of \['bne', 'ucb'\], "
                                 r"got 'fictitious_play'$"):
            spec_from_dict({"run": {"selection": "fictitious_play"}})


#: Every key a spec may set, as its dotted path, plus the deleted keys,
#: which now exercise the refusal path.
SPEC_KEYS = (
    [f"game.{key}" for key in ("n_classifiers", "n_types", "accuracy", "v_learner",
                               "v_adversary", "c_classifier", "c_type")]
    + [f"run.{key}" for key in ("h", "n_trials", "q", "ucb_c", "C", "selection",
                                "update_rule", "adversary_mode", "classification_mode",
                                "true_p", "seed", "traversals_per_trial")]
    + ["game", "run", "repetitions", "output_dir", "preset"]
)

#: Values each key is set to: non-finite, negative, fractional, mistyped,
#: empty, ragged and wrong-shape.
FUZZ_VALUES = [
    NAN, INF, -INF, -1, 0, 0.5, 20.7, "x", "20", True, False, None, [], {},
    [[1, 2], [3]], [0.5, 0.5], [[0.5] * 5] * 3, [1, "a"], [[NAN]],
]

#: More values for the leaves of a whole spec: huge, signed-zero and small
#: whole numbers, and vectors and matrices of the default sizes (4 types,
#: 3 classifiers) that are in range, off the simplex, non-finite or mistyped.
LEAF_VALUES = FUZZ_VALUES + [
    10**30, 2**63, 1e300, -0.0, 1, 3, [0.25] * 4, [0.5] * 4, [1.2, -0.2, 0.0, 0.0],
    [NAN] * 4, [INF, 0, 0, 0], [True] * 4, [[0.5] * 4] * 3, [[0.5] * 4] * 2,
    [[0.5] * 3] * 3, [[NAN] * 4] * 3, [[2.0] * 4] * 3, [[-1.0] * 4] * 3, {"a": 1},
]


def build(pairs):
    """A spec dict with each (dotted path, value) pair set; a section that
    an earlier pair set to a non-object keeps that value."""
    data = {}
    for path, value in pairs:
        section, _, key = path.partition(".")
        if not key:
            data[section] = value
        elif isinstance(data.setdefault(section, {}), dict):
            data[section][key] = value
    return data


class TestConfigFuzz:
    """Every value at every key is either accepted or refused with a
    `ConfigurationError` whose message starts with the key's path or with
    its section."""

    @staticmethod
    def accepts(data, paths):
        sections = {path.partition(".")[0] for path in paths}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # accuracy matrices that dip
            try:
                spec = spec_from_dict(data)
            except ConfigurationError as err:
                named = str(err).split(": ", 1)[0]
                assert named.partition(".")[0] in sections, (data, str(err))
                return False
            dumped = serialize_spec(spec)
            assert serialize_spec(spec_from_dict(dumped)) == dumped
        return True

    def test_single_keys(self):
        accepted = sum(self.accepts(build([(path, value)]), [path])
                       for path in SPEC_KEYS for value in FUZZ_VALUES)
        assert 0 < accepted < len(SPEC_KEYS) * len(FUZZ_VALUES)

    def test_seeded_key_combinations(self):
        meta = np.random.default_rng(2026)
        for _ in range(400):
            picks = meta.choice(len(SPEC_KEYS), int(meta.integers(2, 5)), replace=False)
            paths = [SPEC_KEYS[k] for k in picks]
            values = [FUZZ_VALUES[k] for k in meta.integers(len(FUZZ_VALUES), size=len(paths))]
            self.accepts(build(list(zip(paths, values))), paths)

    def test_each_leaf_is_refused_by_its_path_or_runs_finite(self):
        """Each leaf of a whole serialized spec, set to each of LEAF_VALUES,
        is refused in one line that starts with the leaf's path, or the spec
        runs a self-play (capped at h, n_trials, q <= 3) whose metrics are
        all finite.  A rule that ties keys together (the run's size cap, the
        payoff shapes the accuracy matrix sets) may name the keys it ties,
        within the leaf's section."""
        base = serialize_spec(spec_from_dict({}))
        outcomes = {"refused": 0, "ran": 0}
        for path in KNOWN_KEYS:
            section, _, key = path.partition(".")
            if not key and section in ("game", "run"):
                continue
            for value in LEAF_VALUES:
                data = copy.deepcopy(base)
                if key:
                    data[section][key] = value
                else:
                    data[section] = value
                case = (path, value)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # accuracy matrices that dip
                    try:
                        spec = spec_from_dict(data)
                    except ConfigurationError as err:
                        message = str(err)
                        head = message.partition(": ")[0]
                        names = re.findall(r"\w+", head.removeprefix(f"{section}."))
                        assert "\n" not in message, case
                        assert head == path or (key and head.startswith(f"{section}.")
                                                and set(names) <= set(base[section])), \
                            (case, message)
                        outcomes["refused"] += 1
                        continue
                    run = replace(spec.run, h=min(spec.run.h, 3),
                                  n_trials=min(spec.run.n_trials, 3), q=min(spec.run.q, 3))
                    result = self_play(spec.game, run)
                metrics = [result.overall_accuracy, result.mean_learner_utility,
                           result.mean_adversary_utility, *result.per_trial_kl,
                           *result.per_trial_max_err]
                assert all(map(math.isfinite, metrics)), (case, metrics)
                outcomes["ran"] += 1
        assert outcomes["refused"] > 0 and outcomes["ran"] > 0, outcomes

    @pytest.mark.parametrize("section", ["game", "run"])
    @pytest.mark.parametrize("value", [0, 0.0, False, "", []])
    def test_falsy_sections_are_refused(self, section, value):
        """A falsy non-object section is refused like any other non-object
        one, not read as "use the defaults"."""
        assert not self.accepts({section: value}, [section])
        with pytest.raises(ConfigurationError, match=rf"^{section}: must be a JSON object"):
            spec_from_dict({section: value})

    @pytest.mark.parametrize("section", ["game", "run"])
    def test_absent_null_and_empty_sections_take_defaults(self, section):
        default = serialize_spec(spec_from_dict({}))
        for value in (None, {}):
            assert serialize_spec(spec_from_dict({section: value})) == default


class TestErrorLength:
    """A refused value is shown in the error cut to a bounded length."""

    DEPTH = 950

    def test_deeply_nested_value_keeps_the_line_short(self, tmp_path, capsys):
        from clfgame.cli import main
        path = tmp_path / "spec.json"
        path.write_text('{"run": {"h": ' + "[" * self.DEPTH + "]" * self.DEPTH + "}}")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: run.h: "), lines
        assert len(lines[0]) <= REPR_LIMIT + 60, len(lines[0])
        assert lines[0].endswith("[[[...")

    @pytest.mark.parametrize("data, key", [
        ({"repetitions": "x" * 500}, "repetitions"),
        ({"game": "y" * 500}, "game"),
        ({"preset": "z" * 500}, "preset"),
    ])
    def test_long_values_are_cut(self, data, key):
        with pytest.raises(ConfigurationError, match=rf"^{key}: ") as err:
            spec_from_dict(data)
        message = str(err.value)
        assert message.endswith("...") and len(message) < 2 * REPR_LIMIT + 80, message

    def test_short_values_are_shown_whole(self):
        with pytest.raises(ConfigurationError, match=r"^run\.h: must be an integer, got 'abc'$"):
            spec_from_dict({"run": {"h": "abc"}})


#: A probability vector whose repr is longer than REPR_LIMIT.
LONG_PROBS = [1.5] + [0.001] * 11


def payoff(**changed):
    """A valid 2x3 PayoffConfig with some fields replaced."""
    fields = dict(v_learner=np.ones((2, 3)), v_adversary=np.ones((2, 3)),
                  c_classifier=np.zeros(2), c_type=np.zeros(3))
    return PayoffConfig(**{**fields, **changed})


def stored_array(field, value):
    """The array that `field`'s domain type stores when built from `value`."""
    if field == "TypeDistribution":
        return TypeDistribution(value).probs
    if field == "accuracy":
        return AccuracyMatrix(value).acc
    return getattr(replace(PayoffConfig.unit(3, 4), **{field: value}), field)


#: (domain type, the field its error names, a construction it refuses,
#: the error message).  A container type's message starts "field: "; a
#: value type's starts with its own name.
DOMAIN_ERRORS = [
    ("SelfPlayConfig", "h", lambda: SelfPlayConfig(h=0), "h: must be >= 1, got 0"),
    ("SelfPlayConfig", "n_trials", lambda: SelfPlayConfig(n_trials=-2),
     "n_trials: must be >= 1, got -2"),
    ("SelfPlayConfig", "q", lambda: SelfPlayConfig(q=0), "q: must be >= 1, got 0"),
    ("SelfPlayConfig", "seed", lambda: SelfPlayConfig(seed=-1), "seed: must be >= 0, got -1"),
    ("SelfPlayConfig", "ucb_c", lambda: SelfPlayConfig(ucb_c=NAN),
     "ucb_c: must be finite and >= 0, got nan"),
    ("SelfPlayConfig", "true_p",
     lambda: SelfPlayConfig(true_p=TypeDistribution.uniform(2)).resolved(default_config()),
     "true_p: expected 4 entries, got 2"),
    ("ExperimentSpec", "repetitions",
     lambda: ExperimentSpec(default_config(), SelfPlayConfig(), repetitions=0),
     "repetitions: must be >= 1, got 0"),
    ("ExperimentSpec", "preset",
     lambda: ExperimentSpec(default_config(), SelfPlayConfig(), preset="p" * 100),
     f"preset: must be one of {PRESETS}, got {repr('p' * 100)[:REPR_LIMIT]}..."),
    ("PayoffConfig", "v_adversary", lambda: payoff(v_adversary=np.full((2, 3), NAN)),
     "v_adversary: entries must be finite, got [[nan, nan, nan], [nan, nan, nan]]"),
    ("PayoffConfig", "c_type", lambda: payoff(c_type=np.array([0.0, -0.5, 0.0])),
     "c_type: entries must be >= 0, got [0.0, -0.5, 0.0]"),
    ("GameConfig", "v_learner",
     lambda: GameConfig(AccuracyMatrix(np.full((2, 3), 0.5)), PayoffConfig.unit(2, 4)),
     "v_learner: expected shape (2, 3), got (2, 4)"),
    ("GameConfig", "c_classifier",
     lambda: GameConfig(AccuracyMatrix(np.full((2, 3), 0.5)), payoff(c_classifier=np.zeros(3))),
     "c_classifier: expected shape (2,), got (3,)"),
    ("GameConfig", "accuracy",
     lambda: GameConfig(AccuracyMatrix(np.zeros((1, 0))), PayoffConfig.unit(1, 0)),
     "accuracy: must have a row and a column, got shape (1, 0)"),
    ("AccuracyMatrix", "accuracy", lambda: AccuracyMatrix(np.array([[0.5, 1.2]])),
     "accuracy out of [0,1], got [[0.5, 1.2]]"),
    ("AccuracyMatrix", "accuracy", lambda: AccuracyMatrix(np.array([0.5])),
     "accuracy must be 2-dimensional, got shape (1,)"),
    ("TypeDistribution", "type_id", lambda: TypeDistribution.degenerate(True, 4),
     "type_id: must be an integer in [0, 4), got True"),
    ("TypeDistribution", "type_id", lambda: TypeDistribution.concentrated(1.5, 4),
     "type_id: must be an integer in [0, 4), got 1.5"),
    ("TypeDistribution", "TypeDistribution", lambda: TypeDistribution(np.array(LONG_PROBS)),
     "TypeDistribution entries must lie in [0, 1], got "
     + repr(LONG_PROBS)[:REPR_LIMIT] + "..."),
    ("SelfPlayConfig", "n_trials * h * q", lambda: SelfPlayConfig(h=10**6, n_trials=2, q=10),
     "n_trials * h * q: must be <= 10000000, got 20000000"),
    ("PayoffConfig", "v_learner", lambda: payoff(v_learner=np.array([[1.0, -2e12, 0.0]] * 2)),
     "v_learner: magnitudes must be <= 1e+12, "
     "got [[1.0, -2000000000000.0, 0.0], [1.0, -2000000000000.0, 0.0]]"),
    # each field's type is the domain type's rule too
    ("SelfPlayConfig", "h", lambda: SelfPlayConfig(h=2.5), "h: must be an integer, got 2.5"),
    ("SelfPlayConfig", "h", lambda: SelfPlayConfig(h=True), "h: must be an integer, got True"),
    ("SelfPlayConfig", "n_trials", lambda: SelfPlayConfig(n_trials=2.0),
     "n_trials: must be an integer, got 2.0"),
    ("SelfPlayConfig", "q", lambda: SelfPlayConfig(q=2.5), "q: must be an integer, got 2.5"),
    ("SelfPlayConfig", "seed", lambda: SelfPlayConfig(seed=1.5),
     "seed: must be an integer, got 1.5"),
    ("SelfPlayConfig", "ucb_c", lambda: SelfPlayConfig(ucb_c="2"),
     "ucb_c: must be finite and >= 0, got '2'"),
    ("SelfPlayConfig", "ucb_c", lambda: SelfPlayConfig(ucb_c=True),
     "ucb_c: must be finite and >= 0, got True"),
    ("SelfPlayConfig", "ucb_c", lambda: SelfPlayConfig(ucb_c=10**400),
     "ucb_c: must be finite and >= 0, got " + repr(10**400)[:REPR_LIMIT] + "..."),
    ("SelfPlayConfig", "selection", lambda: SelfPlayConfig(selection="greedy"),
     "selection: must be one of ['bne', 'ucb'], got 'greedy'"),
    ("SelfPlayConfig", "adversary_mode", lambda: SelfPlayConfig(adversary_mode=1),
     "adversary_mode: must be one of ['best_response', 'sampled'], got 1"),
    ("SelfPlayConfig", "classification_mode",
     lambda: SelfPlayConfig(classification_mode=SelectionMethod.UCB),
     "classification_mode: must be one of ['expectation', 'stochastic'], "
     "got <SelectionMethod.UCB: 'ucb'>"),
    ("SelfPlayConfig", "true_p", lambda: SelfPlayConfig(true_p=[0.25] * 4),
     "true_p: must be None or a TypeDistribution, got [0.25, 0.25, 0.25, 0.25]"),
    ("ExperimentSpec", "repetitions",
     lambda: ExperimentSpec(default_config(), SelfPlayConfig(), repetitions=2.5),
     "repetitions: must be an integer, got 2.5"),
    ("ExperimentSpec", "repetitions",
     lambda: ExperimentSpec(default_config(), SelfPlayConfig(), repetitions=True),
     "repetitions: must be an integer, got True"),
    ("ExperimentSpec", "game", lambda: ExperimentSpec("x", "y"),
     "game: must be a GameConfig, got 'x'"),
    ("ExperimentSpec", "run", lambda: ExperimentSpec(default_config(), {"h": 5}),
     "run: must be a SelfPlayConfig, got {'h': 5}"),
    ("GameConfig", "accuracy", lambda: GameConfig([[0.5]], PayoffConfig.unit(1, 1)),
     "accuracy: must be an AccuracyMatrix, got [[0.5]]"),
    ("GameConfig", "payoff", lambda: GameConfig(AccuracyMatrix([[0.5]]), None),
     "payoff: must be a PayoffConfig, got None"),
    # an array field takes numbers only, as a spec's does
    ("TypeDistribution", "TypeDistribution", lambda: TypeDistribution(["a", "b"]),
     "TypeDistribution entries must be numbers, got ['a', 'b']"),
    ("AccuracyMatrix", "accuracy", lambda: AccuracyMatrix([[0.5, "x"]]),
     "accuracy entries must be numbers, got [[0.5, 'x']]"),
    ("AccuracyMatrix", "accuracy", lambda: AccuracyMatrix([[0.5, 0.5], [0.5]]),
     "accuracy entries must be numbers, got [[0.5, 0.5], [0.5]]"),
    ("TypeDistribution", "TypeDistribution",
     lambda: TypeDistribution(np.array([True, False])),
     "TypeDistribution entries must be numbers, got [True, False]"),
    ("AccuracyMatrix", "accuracy", lambda: AccuracyMatrix(np.array([[0.5, None]])),
     "accuracy entries must be numbers, got [[0.5, None]]"),
    ("PayoffConfig", "v_learner", lambda: payoff(v_learner="20"),
     "v_learner: entries must be numbers, got '20'"),
    # an int beyond int64 is read as the float it rounds to, or as inf,
    # and refused by the field's range rule
    ("PayoffConfig", "v_learner", lambda: payoff(v_learner=10**30),
     "v_learner: magnitudes must be <= 1e+12, got 1e+30"),
    ("PayoffConfig", "c_type", lambda: payoff(c_type=[0, 10**400, 0]),
     "c_type: entries must be finite, got [0.0, inf, 0.0]"),
    ("PayoffConfig", "v_adversary", lambda: payoff(v_adversary=-10**400),
     "v_adversary: entries must be finite, got -inf"),
    ("TypeDistribution", "TypeDistribution", lambda: TypeDistribution([10**30, 0]),
     "TypeDistribution entries must lie in [0, 1], got [1e+30, 0.0]"),
    ("AccuracyMatrix", "accuracy", lambda: AccuracyMatrix([[0.5, 10**400]]),
     "accuracy out of [0,1], got [[0.5, inf]]"),
    ("TypeDistribution", "TypeDistribution", lambda: TypeDistribution([10**30, True]),
     "TypeDistribution entries must be numbers, got [1000000000000000000000000000000, True]"),
    ("AccuracyMatrix", "accuracy", lambda: AccuracyMatrix([[0.5, 10**30], [0.5]]),
     "accuracy entries must be numbers, got [[0.5, 1000000000000000000000000000000], [0.5]]"),
]

#: (spec, the error): the domain type's refusal with the key path in front.
SPEC_DOMAIN_ERRORS = [
    ({"run": {"h": 2.5}}, "run.h: must be an integer, got 2.5"),
    ({"run": {"h": True}}, "run.h: must be an integer, got True"),
    ({"run": {"q": "2"}}, "run.q: must be an integer, got '2'"),
    ({"run": {"seed": 1.5}}, "run.seed: must be an integer, got 1.5"),
    ({"run": {"ucb_c": "2"}}, "run.ucb_c: must be finite and >= 0, got '2'"),
    ({"run": {"ucb_c": [2]}}, "run.ucb_c: must be finite and >= 0, got [2]"),
    ({"run": {"selection": "greedy"}},
     "run.selection: must be one of ['bne', 'ucb'], got 'greedy'"),
    ({"run": {"adversary_mode": 1}},
     "run.adversary_mode: must be one of ['best_response', 'sampled'], got 1"),
    ({"repetitions": 2.5}, "repetitions: must be an integer, got 2.5"),
    ({"repetitions": False}, "repetitions: must be an integer, got False"),
    ({"game": {"v_learner": "20"}}, "game.v_learner: entries must be numbers, got '20'"),
    ({"game": {"accuracy": [[0.5, "x"]]}},
     "game.accuracy: accuracy entries must be numbers, got [[0.5, 'x']]"),
    ({"run": {"true_p": [True, False]}},
     "run.true_p: TypeDistribution entries must be numbers, got [True, False]"),
    ({"game": {"v_learner": 10**30}},
     "game.v_learner: magnitudes must be <= 1e+12, got 1e+30"),
    ({"game": {"c_classifier": [0, 0, 10**400]}},
     "game.c_classifier: entries must be finite, got [0.0, 0.0, inf]"),
    ({"run": {"true_p": [10**30, 0, 0, 0]}},
     "run.true_p: TypeDistribution entries must lie in [0, 1], got [1e+30, 0.0, 0.0, 0.0]"),
    ({"run": {"true_p": [10**400, 0, 0, 0]}},
     "run.true_p: TypeDistribution entries must lie in [0, 1], got [inf, 0.0, 0.0, 0.0]"),
    ({"game": {"accuracy": [[10**30] * 4] * 3}},
     "game.accuracy: accuracy out of [0,1], got "
     + repr([[1e30] * 4] * 3)[:REPR_LIMIT] + "..."),
    ({"run": {"true_p": [10**30, None, 0, 0]}},
     "run.true_p: TypeDistribution entries must be numbers, "
     "got [1000000000000000000000000000000, None, 0, 0]"),
]


class TestDomainErrors:
    """Each domain type checks its own rules and names the refused field in
    a one-line error; the spec layer only puts the key path in front."""

    @pytest.mark.parametrize("kind, field, build, message", DOMAIN_ERRORS,
                             ids=[f"{kind}-{field}-{k}" for k, (kind, field, _, _)
                                  in enumerate(DOMAIN_ERRORS)])
    def test_error_names_the_field(self, kind, field, build, message):
        with pytest.raises(ConfigurationError) as err:
            build()
        assert str(err.value) == message
        assert message.startswith(field) and "\n" not in message

    @pytest.mark.parametrize("data, message", SPEC_DOMAIN_ERRORS)
    def test_spec_puts_the_key_path_in_front(self, data, message):
        with pytest.raises(ConfigurationError) as err:
            spec_from_dict(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("field", ["TypeDistribution", "accuracy", "v_learner",
                                       "v_adversary", "c_classifier", "c_type"])
    def test_array_fields_take_any_value_in_one_line(self, field):
        """Each array field, built from each of LEAF_VALUES through its
        domain type, is accepted as a read-only float array or refused with
        a one-line `ConfigurationError` that starts with the field's name:
        never a numpy error, and never a string or a bool read as a number."""
        accepted = 0
        for value in LEAF_VALUES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # accuracy matrices that dip
                try:
                    arr = stored_array(field, value)
                except ConfigurationError as err:
                    message = str(err)
                    assert message.startswith(field) and "\n" not in message, (value, message)
                    continue
            assert arr.dtype == float and not arr.flags.writeable, value
            assert np.asarray(value).dtype.kind in "iuf", value
            accepted += 1
        assert 0 < accepted < len(LEAF_VALUES)

    def test_fields_are_stored_as_their_types(self):
        """An enum value in any case is stored as the member, an integral
        `ucb_c` as a float and a numpy integer as an int, so a manifest
        writes the same JSON for each."""
        run = SelfPlayConfig(h=np.int64(5), ucb_c=2, selection="BNE",
                             adversary_mode="Best_Response", classification_mode="expectation")
        assert run.selection is SelectionMethod.BNE
        assert run.adversary_mode is AdversaryMode.BEST_RESPONSE
        assert run.classification_mode is ClassificationMode.EXPECTATION
        assert type(run.ucb_c) is float and type(run.h) is int
        spec = ExperimentSpec(default_config(), run, repetitions=np.int64(2))
        assert type(spec.repetitions) is int
        assert serialize_spec(spec)["run"] == serialize_spec(spec_from_dict(
            {"run": {"h": 5, "ucb_c": 2.0, "selection": "bne",
                     "adversary_mode": "best_response",
                     "classification_mode": "expectation"}}))["run"]

    def test_long_true_p_is_one_cut_line(self, tmp_path, capsys):
        """A refused probability vector is shown cut to REPR_LIMIT on the
        CLI's one error line, not as numpy's multi-line repr."""
        from clfgame.cli import main
        path = write_spec(tmp_path, {"game": {"accuracy": [[0.5] * 12, [0.6] * 12]},
                                     "run": {"true_p": LONG_PROBS}})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: run.true_p: TypeDistribution entries must lie in [0, 1], got "
            + repr(LONG_PROBS)[:REPR_LIMIT] + "..."]
        assert captured.out == ""


class TestSizeCaps:
    """A run's size and the payoffs' magnitudes are capped, so no accepted
    spec runs out of memory or overflows a utility sum into inf or NaN."""

    def test_run_cap_is_inclusive(self):
        SelfPlayConfig(h=10**5, n_trials=10, q=10)
        with pytest.raises(ConfigurationError, match=r"^n_trials \* h \* q: must be <= "):
            SelfPlayConfig(h=10**5 + 1, n_trials=10, q=10)
        assert MAX_RUN_QUERIES == 10**7

    def test_payoff_cap_is_inclusive(self):
        payoff(v_adversary=np.full((2, 3), -MAX_PAYOFF), c_type=np.full(3, MAX_PAYOFF))
        with pytest.raises(ConfigurationError, match=r"^c_classifier: magnitudes must be <= "):
            payoff(c_classifier=np.array([0.0, np.nextafter(MAX_PAYOFF, np.inf)]))

    def test_huge_run_is_one_cli_error_line(self, tmp_path, capsys):
        from clfgame.cli import main
        path = write_spec(tmp_path, {"run": {"h": 1e18}, "repetitions": 1})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: run.n_trials * h * q: must be <= 10000000, got 100000000000000000000"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_refused_run_size_is_cut(self):
        """A run size too long to show whole (h = 1e300 gives a 301-digit
        product) is cut to REPR_LIMIT characters on one line."""
        with pytest.raises(ConfigurationError) as err:
            spec_from_dict({"run": {"h": 1e300}})
        message = str(err.value)
        prefix = "run.n_trials * h * q: must be <= 10000000, got "
        assert "\n" not in message and message.startswith(prefix), message
        assert message.endswith("...") and len(message) == len(prefix) + REPR_LIMIT + 3

    def test_overflowing_payoffs_are_refused(self, tmp_path, capsys):
        """Values near the float64 maximum used to overflow a play's
        utility into a NaN report row; the spec is refused instead."""
        from clfgame.cli import main
        data = {"game": {"v_learner": [[1e308] * 4, [-1e308] * 4, [1] * 4]},
                "run": {"classification_mode": "expectation"}}
        with pytest.raises(ConfigurationError, match=r"^game\.v_learner: magnitudes must be <= "):
            spec_from_dict(data)
        path = write_spec(tmp_path, data)
        assert main(["run", str(path), "--reps", "1", "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: game.v_learner: "), lines
        assert not (tmp_path / "out").exists()
