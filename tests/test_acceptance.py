"""Acceptance suite: end-to-end behavioral criteria at fixed tolerances.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`) before
asserting, and checks its runtime budget.  Criteria 3-5 share one set of
self-play runs (expectation mode, strictly increasing classifier costs)
built once per session.
"""

import math
import time
import warnings

import numpy as np
import pytest

from clfgame import (
    AccuracyMatrix,
    ClassificationMode,
    GameConfig,
    PayoffConfig,
    SelectionMethod,
    SelfPlayConfig,
    Strategy,
    TypeDistribution,
    UpdateRule,
    bne_select,
    bu_conditional,
    default_config,
    kl_divergence,
    self_play,
    ucb_select_learner,
)
from clfgame.config import spec_from_dict
from clfgame.presets import preset_accuracy_check, preset_kl_convergence
from clfgame.reports import read_report

INCREASING_COSTS = [0.0, 0.01, 0.02]
N_SEEDED_RUNS = 10


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


@pytest.fixture(scope="session")
def shared_runs():
    """Self-play runs for criteria 3-5: every concentrated distribution,
    both heuristics, ten seeds each, plus fixed most-hardened baselines."""
    cfg = default_config(c_classifier=INCREASING_COSTS)
    runs = {}
    baselines = {}
    with Timer() as timer:
        for focus in range(4):
            true_p = TypeDistribution.concentrated(focus, 4)
            for method in (SelectionMethod.UCB, SelectionMethod.BNE):
                results = []
                for k in range(N_SEEDED_RUNS):
                    run = SelfPlayConfig(
                        selection=method,
                        classification_mode=ClassificationMode.EXPECTATION,
                        true_p=true_p,
                        seed=10_000 + 97 * focus + 7 * k + (0 if method is SelectionMethod.UCB else 1),
                    )
                    results.append(self_play(cfg, run))
                runs[(focus, method)] = results
            base = []
            for k in range(N_SEEDED_RUNS):
                run = SelfPlayConfig(
                    classification_mode=ClassificationMode.EXPECTATION,
                    true_p=true_p, seed=20_000 + 97 * focus + 7 * k,
                )
                base.append(self_play(cfg, run, 2))
            baselines[focus] = base
    return cfg, runs, baselines, timer.elapsed


def test_criterion_1_oracle_fidelity(tmp_path):
    spec = spec_from_dict({"output_dir": str(tmp_path), "run": {"seed": 404}})
    with Timer() as timer:
        csv_path, _ = preset_accuracy_check(spec, n=50_000)
        rows = read_report(csv_path)
        errors = [row.value for row in rows
                  if row.metric.startswith("acc_abs_error")]
    ok = len(errors) == 12 and max(errors) <= 0.01 and timer.elapsed < 10
    report(1, "oracle fidelity", ok,
           f"max cell error {max(errors):.4f} over {len(errors)} cells "
           f"in {timer.elapsed:.1f}s")
    assert len(errors) == 12
    assert max(errors) <= 0.01
    assert timer.elapsed < 10


def test_criterion_2_kl_convergence(tmp_path):
    spec = spec_from_dict({
        "output_dir": str(tmp_path),
        "repetitions": 10,
        "run": {"h": 20, "n_trials": 10, "q": 10, "ucb_c": 2, "seed": 808},
    })
    with Timer() as timer:
        csv_path, _ = preset_kl_convergence(spec)
        rows = read_report(csv_path)
    curves = {}
    for rule in ("fp", "bu"):
        curve = [row.value for row in rows
                 if row.experiment == f"kl:{rule}:mean" and row.metric == "kl"]
        assert len(curve) == 11  # baseline plus one point per trial
        curves[rule] = curve
    by_six = {rule: curves[rule][6] for rule in curves}
    final = {rule: curves[rule][-1] for rule in curves}
    ok = all(v <= 0.05 for v in by_six.values()) \
        and all(v <= 0.05 for v in final.values()) and timer.elapsed < 120
    report(2, "kl convergence", ok,
           f"mean KL at trial 6: fp={by_six['fp']:.4f} bu={by_six['bu']:.4f}; "
           f"final: fp={final['fp']:.4f} bu={final['bu']:.4f} "
           f"in {timer.elapsed:.1f}s")
    for rule in ("fp", "bu"):
        assert by_six[rule] <= 0.05
        assert final[rule] <= 0.05
    assert timer.elapsed < 120


def test_criterion_3_classifier_alignment(shared_runs):
    _, runs, _, build_time = shared_runs
    hits = {}
    for focus, want in ((1, 1), (2, 2)):
        for method in (SelectionMethod.UCB, SelectionMethod.BNE):
            modal = [int(np.argmax(r.selection_counts.sum(axis=0)))
                     for r in runs[(focus, method)]]
            hits[(focus, method.value)] = sum(m == want for m in modal)
    ok = all(h >= 7 for h in hits.values()) and build_time < 300
    detail = ", ".join(f"T{f}/{m}: {h}/{N_SEEDED_RUNS}"
                       for (f, m), h in hits.items())
    report(3, "classifier alignment", ok,
           f"{detail}; shared runs built in {build_time:.1f}s")
    for key, h in hits.items():
        assert h >= 7, f"modal alignment failed for {key}: {h}/{N_SEEDED_RUNS}"
    assert build_time < 300


def test_criterion_4_accuracy_non_degradation(shared_runs):
    cfg, runs, _, _ = shared_runs
    gaps = {}
    for focus in range(4):
        best_single = float(cfg.accuracy.acc[:, focus].max())
        for method in (SelectionMethod.UCB, SelectionMethod.BNE):
            mean_acc = float(np.mean(
                [r.overall_accuracy for r in runs[(focus, method)]]))
            gaps[(focus, method.value)] = mean_acc - best_single
    ok = all(abs(g) <= 0.05 for g in gaps.values())
    detail = ", ".join(f"T{f}/{m}: {g:+.4f}" for (f, m), g in gaps.items())
    report(4, "accuracy non-degradation", ok, detail)
    for key, gap in gaps.items():
        assert abs(gap) <= 0.05, f"accuracy gap too large for {key}: {gap:+.4f}"


def test_criterion_5_utility_improvement(shared_runs):
    _, runs, baselines, _ = shared_runs
    margins = {}
    for focus in range(4):
        base = float(np.mean([b.mean_learner_utility for b in baselines[focus]]))
        for method in (SelectionMethod.UCB, SelectionMethod.BNE):
            got = float(np.mean(
                [r.mean_learner_utility for r in runs[(focus, method)]]))
            margins[(focus, method.value)] = got - base
    ok = all(m >= -0.01 for m in margins.values())
    detail = ", ".join(f"T{f}/{m}: {v:+.4f}" for (f, m), v in margins.items())
    report(5, "utility improvement", ok, detail)
    for key, margin in margins.items():
        assert margin >= -0.01, f"self-play fell below baseline for {key}: {margin:+.4f}"


def test_criterion_6_equilibrium_oracles():
    rng = np.random.default_rng(606)
    with Timer() as timer:
        bne_mismatches = 0
        for _ in range(1000):
            nc, nt = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = GameConfig(
                    AccuracyMatrix(rng.random((nc, nt))),
                    PayoffConfig(rng.random((nc, nt)), rng.random((nc, nt)),
                                 rng.random(nc) * 0.3, rng.random(nt) * 0.3))
            raw = rng.random(nt) + 1e-9
            belief = TypeDistribution(raw / raw.sum())
            j_star, theta = bne_select(belief, cfg)
            # independent oracle: exhaustive scan of pure strategies
            from clfgame import adversary_utility, expected_learner_utility
            best_j, best_u = 0, -math.inf
            for j in range(nc):
                u = expected_learner_utility(Strategy.pure(j, nc), belief, cfg)
                if u > best_u:
                    best_j, best_u = j, u
            best_i, best_a = 0, -math.inf
            for i in range(nt):
                u = adversary_utility(Strategy.pure(best_j, nc), i, cfg)
                if u > best_a:
                    best_i, best_a = i, u
            bne_mismatches += (j_star, theta) != (best_j, best_i)

        from tests.test_belief import brute_force_bayes, state_with_counts
        bu_max_err = 0.0
        for _ in range(1000):
            nc, nt = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            counts = rng.integers(0, 8, size=(nc, nt))
            raw = rng.random(nt) + 1e-9
            prior = raw / raw.sum()
            b = state_with_counts(counts, p_hat=prior)
            action = int(rng.integers(nc))
            got = bu_conditional(b, action).probs
            want = brute_force_bayes(counts, action, prior)
            want = (TypeDistribution.uniform(nt).probs if want is None
                    else np.asarray(want))
            bu_max_err = max(bu_max_err, float(np.max(np.abs(got - want))))
    ok = bne_mismatches == 0 and bu_max_err <= 1e-12 and timer.elapsed < 10
    report(6, "equilibrium oracles", ok,
           f"bne mismatches {bne_mismatches}/1000, bayes max err "
           f"{bu_max_err:.2e} in {timer.elapsed:.1f}s")
    assert bne_mismatches == 0
    assert bu_max_err <= 1e-12
    assert timer.elapsed < 10


def test_criterion_7_property_suites():
    from clfgame import BeliefState, record_observation
    rng = np.random.default_rng(707)
    with Timer() as timer:
        # simplex invariants after constructors and belief updates
        for _ in range(200):
            n = int(rng.integers(1, 7))
            raw = rng.random(n) + 1e-9
            for dist in (Strategy(raw / raw.sum()),
                         TypeDistribution.uniform(n),
                         TypeDistribution.concentrated(int(rng.integers(n)), n)):
                assert abs(dist.probs.sum() - 1.0) <= 1e-9

        # KL identity and non-negativity
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = rng.random(n) + 1e-9
            b = rng.random(n) + 1e-9
            pa = TypeDistribution(a / a.sum())
            pb = TypeDistribution(b / b.sum())
            assert kl_divergence(pa, pa) == 0.0
            assert kl_divergence(pa, pb) >= 0.0

        # UCB: C=0 greedy equivalence and unvisited-first
        for _ in range(200):
            n = int(rng.integers(1, 6))
            visits = rng.integers(1, 9, size=n)
            sums = rng.normal(size=n)
            assert ucb_select_learner(visits.tolist(), sums.tolist(), 0.0) == int(np.argmax(sums))
            gap = rng.integers(n)
            visits2 = visits.copy()
            visits2[gap] = 0
            first_zero = int(np.nonzero(visits2 == 0)[0][0])
            assert ucb_select_learner(visits2.tolist(), sums.tolist(), 2.0) == first_zero

        # belief count bookkeeping
        b = BeliefState.fresh(3, 4)
        for _ in range(200):
            record_observation(b, int(rng.integers(3)), int(rng.integers(4)))
            assert (b.action_counts == b.joint_counts.sum(axis=1)).all()

        # seed determinism, bit identical
        cfg = default_config()
        run = SelfPlayConfig(h=8, n_trials=3, q=4, seed=4242)
        a = self_play(cfg, run)
        b2 = self_play(cfg, run)
        assert a.per_trial_kl.tolist() == b2.per_trial_kl.tolist()
        assert a.selection_counts.tolist() == b2.selection_counts.tolist()
        assert a.mean_learner_utility == b2.mean_learner_utility
    ok = timer.elapsed < 30
    report(7, "property suites", ok, f"all properties held in {timer.elapsed:.1f}s")
    assert timer.elapsed < 30
