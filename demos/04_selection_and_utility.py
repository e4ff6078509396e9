"""Match hardened classifiers to attack strengths, and price the decision.

Against traffic concentrated on one perturbation strength, self-play should
route most queries to the commensurately hardened classifier -- and, once
deployment costs rise with hardening level, it should beat the strategy of
always using the most-hardened classifier by serving easy traffic cheaply.
"""

import numpy as np

from clfgame import (
    ClassificationMode,
    SelectionMethod,
    SelfPlayConfig,
    TypeDistribution,
    default_config,
    evaluate_fixed_policy,
    self_play,
)

cfg = default_config(c_classifier=[0.0, 0.01, 0.02])
print("Classifier deployment costs:", cfg.payoff.c_classifier.tolist())

print("\nSelection shares per 98%-concentrated type distribution, pooled")
print("over 5 seeds (rows: traffic type; columns: queries answered by L0/L1/L2):")
for method in (SelectionMethod.UCB, SelectionMethod.BNE):
    print(f"\n  {method.value.upper()}:")
    for focus in range(4):
        counts = np.zeros((4, 3), dtype=int)
        correct = total = 0.0
        for seed in range(5):
            run = SelfPlayConfig(
                selection=method,
                classification_mode=ClassificationMode.EXPECTATION,
                true_p=TypeDistribution.concentrated(focus, 4),
                seed=9_000 + 10 * focus + seed,
            )
            result = self_play(cfg, run)
            counts += result.selection_counts
            total += result.selection_counts.sum()
            correct += result.overall_accuracy * result.selection_counts.sum()
        shares = counts.sum(axis=0) / counts.sum()
        modal = int(np.argmax(shares))
        print(f"    T{focus}: " + "  ".join(f"{s:6.1%}" for s in shares)
              + f"   acc {correct / total:.4f}   modal L{modal}")

print("\nMean learner utility: self-play vs always-most-hardened baseline:")
hardened = cfg.n_classifiers - 1
for focus in range(4):
    true_p = TypeDistribution.concentrated(focus, 4)
    run = SelfPlayConfig(classification_mode=ClassificationMode.EXPECTATION,
                         true_p=true_p, seed=9_100 + focus)
    baseline = evaluate_fixed_policy(cfg, run, hardened).mean_learner_utility
    line = f"  T{focus}: baseline {baseline:.4f}"
    for method in (SelectionMethod.UCB, SelectionMethod.BNE):
        result = self_play(cfg, SelfPlayConfig(
            selection=method,
            classification_mode=ClassificationMode.EXPECTATION,
            true_p=true_p, seed=9_200 + focus,
        ))
        line += (f"   {method.value} {result.mean_learner_utility:.4f} "
                 f"({result.mean_learner_utility - baseline:+.4f})")
    print(line)
