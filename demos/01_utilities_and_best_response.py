"""Walk through the core game: utilities, beliefs, and best responses.

The learner owns three classifiers hardened at increasing levels; the
adversary sends query batches whose hidden type is a perturbation strength
(type 0 = clean data).  The accuracy matrix is all the game knows about
classifier behavior, and both sides' utilities follow from it.
"""

import numpy as np

from clfgame import (
    TypeDistribution,
    bne_select,
    default_config,
    pure_learner_utilities,
)

cfg = default_config()
print("Accuracy matrix (rows: classifiers L0..L2, columns: types T0..T3):")
print(np.array2string(cfg.accuracy.acc, precision=4))

# Utility of each pure classifier choice against each realized type: the
# game caches one [learner, adversary] x classifier table per type.  Every
# move is a pure one; a mixed strategy's utility is the mix of these entries.
print("\nLearner utility per (classifier, realized type), unit values, no costs:")
for j in range(3):
    row = [cfg.expected_utilities[i][0, j] for i in range(4)]
    print(f"  L{j}: " + "  ".join(f"{u:.4f}" for u in row))

# Under type uncertainty the learner scores classifiers by expected utility.
belief = TypeDistribution.uniform(4)
print("\nExpected utility under a uniform belief:")
for j, u in enumerate(pure_learner_utilities(belief, cfg)):
    print(f"  L{j}: {u:.4f}")

# The adversary's best reply to each classifier is cached on the game.
print("\nAdversary's best reply per classifier:",
      ", ".join(f"L{j}->T{i}" for j, i in enumerate(cfg.best_response_types)))

j_star, theta_star = bne_select(belief, cfg)
print(f"\nBest response to the uniform belief: L{j_star}, "
      f"and the adversary's best reply is type T{theta_star} "
      f"(utility {cfg.expected_utilities[theta_star][1, j_star]:.4f}).")

# Deployment costs change the calculus: hardened classifiers must earn
# their keep, so cheap classifiers win on mostly-clean traffic.
priced = default_config(c_classifier=[0.0, 0.01, 0.02])
for focus in range(4):
    concentrated = TypeDistribution.concentrated(focus, 4)
    utilities = pure_learner_utilities(concentrated, priced)
    j, _ = bne_select(concentrated, priced)
    print(f"98% type-T{focus} traffic with costs (0, 0.01, 0.02): "
          f"best response L{j} "
          f"(pure utilities: {np.array2string(utilities, precision=4)})")
