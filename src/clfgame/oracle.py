"""Stochastic classifier oracle and query generation.

Queries carry no features: once per-type accuracies are measured, a
classifier's behavior on a type-i query collapses to a Bernoulli draw with
the matrix entry as its success probability (or the entry itself, in
expectation mode, for variance-free runs).  So a query is its type id, and
a batch of queries is an int array of type ids: one shared read-only array
per type and batch size.

`classify` answers a whole batch with one classifier in one range-checked
lookup and, in stochastic mode, one comparison with the uniform doubles
its caller drew from a plain seeded `numpy.random.Generator`, one per
query.  A caller that draws them with one `random(n)` call gets the doubles n single draws give,
in the same order, so runs replay bit for bit.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .game import AdversaryTypeId, ClassifierId, GameConfig, _check_index, _check_integer


class ClassificationMode(str, Enum):
    STOCHASTIC = "stochastic"
    EXPECTATION = "expectation"


#: The query batches `generate_queries` has built for one batch size, keyed
#: by (type, q); a call with another q drops them.
_QUERY_BATCHES: dict[tuple[AdversaryTypeId, int], np.ndarray] = {}


def generate_queries(theta: AdversaryTypeId, q: int) -> np.ndarray:
    """Batch of q type-theta queries: a read-only int array of type ids.

    Draws nothing: an answer depends on a query's type only.  One array per
    (theta, q) is built and then shared, which is safe because it is
    read-only.  Only the current q's arrays are kept, so a run of huge
    batches leaves none behind once the batch size changes.
    """
    key = (theta, q)
    queries = _QUERY_BATCHES.get(key)
    if queries is None:
        if any(size != q for _, size in _QUERY_BATCHES):
            _QUERY_BATCHES.clear()
        queries = np.full(q, theta, dtype=np.int64)
        queries.flags.writeable = False
        _QUERY_BATCHES[key] = queries
    return queries


def classify(classifier: ClassifierId, queries: np.ndarray, cfg: GameConfig,
             mode: ClassificationMode, u: np.ndarray) -> np.ndarray:
    """Correctness of classifier `classifier` on each query of `queries`.

    `classifier` is one index (an array, which would broadcast, is
    refused) and `queries` an int array of type ids.  Stochastic mode
    returns a bool array of its shape, True where the matching uniform
    double of `u` (an array of that shape too) falls below
    acc[classifier, query]; expectation mode returns those accuracy
    entries and reads no double, so `u` may be empty.

    A run passes a Python int; any other classifier (a `bool`, a float,
    an array) goes to `_check_index`, which refuses it in one line or
    admits a numpy integer.  Both ranges are checked in the one pass that
    turns the id pairs into flat indexes of the accuracy matrix; only a
    batch that fails it pays for the check that names the bad id.
    """
    acc = cfg.accuracy.acc
    if type(classifier) is not int:
        _check_index(classifier, acc.shape[0], "classifier")
    try:
        cells = np.ravel_multi_index((classifier, queries), acc.shape)
    except ValueError:
        _check_index(classifier, acc.shape[0], "classifier")
        if queries.size:
            _check_index(int(queries.min()), acc.shape[1], "type")
            _check_index(int(queries.max()), acc.shape[1], "type")
        raise
    p_correct = acc.take(cells)
    if mode is ClassificationMode.EXPECTATION:
        return p_correct
    if u.shape != queries.shape:
        raise ValueError(f"shape mismatch: {u.shape} doubles for "
                         f"{queries.shape} queries")
    return u < p_correct


def empirical_accuracy(j: ClassifierId, i: AdversaryTypeId, n: int,
                       cfg: GameConfig, rng: np.random.Generator) -> float:
    """Fraction correct over n stochastic classifications of type-i queries.

    Sanity harness: reconstructs an accuracy-matrix cell from the oracle.
    `n` must be an integer of at least 1.
    """
    n = _check_integer(n, 1, "n")
    correct = classify(j, np.full(n, i), cfg, ClassificationMode.STOCHASTIC,
                       rng.random(n))
    return float(correct.mean())
