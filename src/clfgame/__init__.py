"""Game-theoretic selection among differently hardened classifiers.

A learner repeatedly faces an adversary whose queries carry a hidden
perturbation strength.  Self-play against a model of the adversary feeds
realized plays into a belief over the adversary's type distribution, while
the learner balances classification accuracy against classifier deployment
cost.
"""

from .belief import (
    BeliefState,
    UpdateRule,
    bu_conditional,
    fp_conditional,
    kl_divergence,
    max_componentwise_error,
    record_observation,
    refresh_marginal,
)
from .game import (
    AccuracyMatrix,
    AdversaryTypeId,
    ClassifierId,
    ConfigurationError,
    GameConfig,
    PayoffConfig,
    Strategy,
    TypeDistribution,
    adversary_utilities,
    adversary_utility,
    default_config,
    expected_learner_utility,
    learner_utility,
    pure_learner_utilities,
)
from .oracle import (
    ClassificationMode,
    classify,
    empirical_accuracy,
    generate_queries,
)
from .selection import (
    SelectionMethod,
    bne_select,
    ucb_select_adversary,
    ucb_select_learner,
)
from .selfplay import (
    SelfPlayConfig,
    SelfPlayResult,
    self_play,
)
from .tree import (
    AdversaryMode,
    Plays,
    game_play,
    play_batch,
    proportional_choice,
    tree_traverse,
)

__version__ = "0.1.0"
