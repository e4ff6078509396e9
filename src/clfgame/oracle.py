"""Stochastic classifier oracle and query generation.

Queries carry no features: once per-type accuracies are measured, a
classifier's behavior on a type-i query collapses to a Bernoulli draw with
the matrix entry as its success probability (or the entry itself, in
expectation mode, for variance-free runs).  So a query is its type id, and
a batch of queries is an int array of type ids.  Every draw comes from a
plain `numpy.random.Generator` seeded by the caller, so runs replay bit for
bit.

`classify` answers a whole batch with one range-checked lookup and, in
stochastic mode, one `random` call.  That call yields the same doubles, in
the same order, as one call per query did, so a seed reproduces the
reports of the per-query code.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .game import AdversaryTypeId, ClassifierId, GameConfig


class ClassificationMode(str, Enum):
    STOCHASTIC = "stochastic"
    EXPECTATION = "expectation"


def generate_queries(theta: AdversaryTypeId, q: int) -> np.ndarray:
    """Batch of q type-theta queries: a read-only int array of type ids.

    Draws nothing: an answer depends on a query's type only.
    """
    queries = np.empty(q, dtype=np.int64)
    queries.fill(theta)
    queries.flags.writeable = False
    return queries


def _check_range(ids: np.ndarray, check) -> None:
    if ids.size:
        check(int(ids.min()))
        check(int(ids.max()))


def classify(chosen: np.ndarray, queries: np.ndarray, cfg: GameConfig,
             mode: ClassificationMode, rng: np.random.Generator) -> np.ndarray:
    """Correctness of each classifier in `chosen` on the matching query.

    `chosen` holds classifier ids and `queries` query type ids, as int
    arrays of one shape.  Stochastic mode returns 1.0 where one
    `rng.random(shape)` double falls below acc[chosen, queries], else 0.0;
    expectation mode returns those accuracy entries and draws nothing.

    Both ranges are checked in the one pass that turns the id pairs into
    flat indexes of the accuracy matrix; only a batch that fails it pays
    for the check that names the bad id.
    """
    if chosen.shape != queries.shape:
        raise ValueError(f"shape mismatch: {chosen.shape} classifiers for "
                         f"{queries.shape} queries")
    acc = cfg.accuracy.acc
    try:
        cells = np.ravel_multi_index((chosen, queries), acc.shape)
    except ValueError:
        _check_range(chosen, cfg.check_classifier)
        _check_range(queries, cfg.check_type)
        raise
    p_correct = acc.take(cells)
    if mode is ClassificationMode.EXPECTATION:
        return p_correct
    return (rng.random(chosen.shape) < p_correct).astype(float)


def empirical_accuracy(j: ClassifierId, i: AdversaryTypeId, n: int,
                       cfg: GameConfig, rng: np.random.Generator) -> float:
    """Fraction correct over n stochastic classifications of type-i queries.

    Sanity harness: reconstructs an accuracy-matrix cell from the oracle.
    """
    correct = classify(np.full(n, j), np.full(n, i), cfg,
                       ClassificationMode.STOCHASTIC, rng)
    return float(correct.mean())
