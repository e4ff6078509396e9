"""Reconstruct the accuracy matrix from the stochastic classifier oracle.

Queries carry no features here: a query is its type, and a classifier's
answer to a type-i query is a Bernoulli draw with the matrix entry as its
success probability.  Long-run
frequencies must therefore recover the configured matrix, which is the
sanity check behind the `clfgame acc-check` command.
"""

import numpy as np

from clfgame import default_config, empirical_accuracy

cfg = default_config()
rng = np.random.default_rng(20_240_601)
n = 50_000

reconstructed = np.zeros_like(cfg.accuracy.acc)
for j in range(cfg.n_classifiers):
    for i in range(cfg.n_types):
        reconstructed[j, i] = empirical_accuracy(j, i, n, cfg, rng)

print(f"Configured matrix vs oracle reconstruction ({n} draws per cell):")
for j in range(cfg.n_classifiers):
    for i in range(cfg.n_types):
        configured = cfg.accuracy.acc[j, i]
        got = reconstructed[j, i]
        print(f"  L{j}/T{i}: configured {configured:.4f}  "
              f"measured {got:.4f}  |error| {abs(got - configured):.4f}")

worst = float(np.max(np.abs(reconstructed - cfg.accuracy.acc)))
print(f"\nLargest cell error: {worst:.4f} "
      f"(binomial noise at this sample size is about "
      f"{2 * np.sqrt(0.25 / n):.4f} two-sigma)")
