"""Watch the learner's belief converge to the adversary's type distribution.

Each self-play trial realizes a batch of plays against the opponent model
and folds the observed (classifier, type) pairs into the belief.  The KL divergence between belief and actual distribution
drops as observations accumulate, under both update rules.
"""

import numpy as np

from clfgame import SelfPlayConfig, TypeDistribution, UpdateRule, default_config, self_play

cfg = default_config()
rng = np.random.default_rng(7)
true_p = TypeDistribution(rng.dirichlet(np.ones(4)))
print("Adversary's actual type distribution:",
      np.array2string(true_p.probs, precision=4))

for rule in (UpdateRule.FICTITIOUS_PLAY, UpdateRule.BAYESIAN_UPDATE):
    curves = []
    for seed in range(10):
        run = SelfPlayConfig(update_rule=rule, true_p=true_p, seed=300 + seed)
        curves.append(self_play(cfg, run).per_trial_kl)
    mean_curve = np.mean(curves, axis=0)
    print(f"\n{rule.name.replace('_', ' ').title()} - mean KL per trial (10 runs):")
    for trial, kl in enumerate(mean_curve, start=1):
        bar = "#" * max(1, int(kl * 400))
        print(f"  trial {trial:2d}: {kl:.4f} {bar}")

run = SelfPlayConfig(true_p=true_p, seed=42)
result = self_play(cfg, run)
print("\nFinal belief after one run:  ",
      np.array2string(result.final_belief.probs, precision=4))
print("Actual distribution:         ",
      np.array2string(true_p.probs, precision=4))
print(f"Largest per-type gap: {np.max(np.abs(result.final_belief.probs - true_p.probs)):.4f}")
