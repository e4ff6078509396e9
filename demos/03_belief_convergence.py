"""Watch the learner's belief converge to the adversary's type distribution.

Each self-play trial realizes a batch of plays against the opponent model
and folds the observed (classifier, type) pairs into the belief.  The KL
divergence between belief and actual distribution drops as observations
accumulate.  The belief is the empirical type distribution; the
fictitious-play and Bayes-rule conditionals per classifier are diagnostics
read off the same counts.
"""

import numpy as np

from clfgame import (
    SelfPlayConfig,
    TypeDistribution,
    bu_conditional,
    default_config,
    fp_conditional,
    kl_divergence,
    self_play,
)

cfg = default_config()
rng = np.random.default_rng(7)
true_p = TypeDistribution(rng.dirichlet(np.ones(4)))
print("Adversary's actual type distribution:",
      np.array2string(true_p.probs, precision=4))

curves = [self_play(cfg, SelfPlayConfig(true_p=true_p, seed=300 + seed)).per_trial_kl
          for seed in range(10)]
print("\nMean KL per trial (10 runs):")
for trial, kl in enumerate(np.mean(curves, axis=0), start=1):
    bar = "#" * max(1, int(kl * 400))
    print(f"  trial {trial:2d}: {kl:.4f} {bar}")

run = SelfPlayConfig(true_p=true_p, seed=42)
result = self_play(cfg, run)
final = result.belief_state.p_hat
print("\nFinal belief after one run:  ",
      np.array2string(final.probs, precision=4))
print("Actual distribution:         ",
      np.array2string(true_p.probs, precision=4))
print(f"Largest per-type gap: {np.max(np.abs(final.probs - true_p.probs)):.4f}")

# With p_hat at the empirical marginal, Bayes' rule gives back the
# per-classifier frequencies, so the two agree up to rounding.
print("\nFinal KL of each classifier's type conditional (fp = fictitious play, "
      "bu = Bayes rule):")
for j in range(cfg.n_classifiers):
    fp = kl_divergence(fp_conditional(result.belief_state, j), true_p)
    bu = kl_divergence(bu_conditional(result.belief_state, j), true_p)
    print(f"  L{j}: fp {fp:.4f}   bu {bu:.4f}")
