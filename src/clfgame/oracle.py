"""Stochastic classifier oracle and query generation.

Queries carry no features: once per-type accuracies are measured, a
classifier's behavior on a type-i query collapses to a Bernoulli draw with
the matrix entry as its success probability (or the entry itself, in
expectation mode, for variance-free runs).  All randomness flows through an
explicit, splittable RandomSource so trials can be replayed bit-for-bit.

A play answers a batch of queries of one type, so `classify` also takes a
whole array of classifiers and makes one random call for the batch.  That
call yields the same doubles, in the same order, as one scalar call per
query did, so a seed reproduces the reports of the per-query code.

A batch of queries is a `QueryBatch`: the labels are drawn up front, as
before, but a `Query` is only built when an item is read.  A play reads one
query of its batch, so it no longer builds q of them.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Union

import numpy as np

from .game import AdversaryTypeId, ClassifierId, GameConfig


class ClassificationMode(str, Enum):
    STOCHASTIC = "stochastic"
    EXPECTATION = "expectation"


class RandomSource:
    """Seeded random stream with deterministic per-trial splitting.

    The same seed and call sequence reproduce identical draws; `split`
    derives independent child streams so parallel trials never share a
    generator.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        self._sequence = (
            seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self.seed = self._sequence.entropy
        self.generator = np.random.default_rng(self._sequence)

    def split(self, n: int) -> list["RandomSource"]:
        return [RandomSource(child) for child in self._sequence.spawn(n)]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


class Query(NamedTuple):
    """One query instance: a hidden ground-truth label and the perturbation
    strength (adversary type) used to produce it."""

    true_label: int
    type_id: AdversaryTypeId
    query_id: int


class QueryBatch(Sequence):
    """Read-only sequence of the queries of one batch, built on access.

    Item i is `Query(labels[i], type_id, i)`.  Indexing (negative indexes
    too), slicing, iteration and `len` behave as on the list of those
    queries, and the batch compares equal to that list.
    """

    __slots__ = ("labels", "type_id")

    def __init__(self, labels: np.ndarray, type_id: AdversaryTypeId):
        labels.flags.writeable = False
        self.labels = labels
        self.type_id = type_id

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("query index out of range")
        return Query(int(self.labels[i]), self.type_id, i)

    def __iter__(self):
        return map(Query, self.labels.tolist(), repeat(self.type_id), range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (list, QueryBatch)):
            return list(self) == list(other)
        return NotImplemented


def generate_queries(theta: AdversaryTypeId, q: int, rng: RandomSource) -> QueryBatch:
    """Batch of q type-theta queries with uniformly random binary labels.

    All q labels are drawn now, with one `integers(0, 2, size=q)` call, so
    the random stream is the same whether or not the queries are read; the
    `Query` tuples are built only when they are (see `QueryBatch`).
    """
    return QueryBatch(rng.generator.integers(0, 2, size=q), theta)


def classify(j: Union[ClassifierId, np.ndarray], query: Query, cfg: GameConfig,
             mode: ClassificationMode,
             rng: RandomSource) -> Union[float, np.ndarray]:
    """Correctness of classifier j on one query, or of a batch of them.

    Stochastic mode returns 1.0 with probability acc[j][type], else 0.0;
    expectation mode returns the accuracy entry itself.

    Batch form: `j` is an int array holding the classifier that answers
    each query of a batch, and `query` is any query of that batch (all share
    its type).  The ranges are checked once, stochastic mode makes a single
    `random` call for the whole batch, and a float array of correctness
    comes back.  That call draws exactly the doubles that one scalar call
    per query would, in order, so seeds reproduce earlier reports.
    """
    if isinstance(j, np.ndarray):
        if j.size:
            cfg.check_classifier(int(j.min()))
            cfg.check_classifier(int(j.max()))
        cfg.check_type(query.type_id)
        p_batch = cfg.accuracy.acc[j, query.type_id]
        if mode is ClassificationMode.EXPECTATION:
            return p_batch
        return (rng.generator.random(j.shape) < p_batch).astype(float)
    cfg.check_classifier(j)
    cfg.check_type(query.type_id)
    p_correct = float(cfg.accuracy.acc[j, query.type_id])
    if mode is ClassificationMode.EXPECTATION:
        return p_correct
    return 1.0 if rng.generator.random() < p_correct else 0.0


def empirical_accuracy(j: ClassifierId, i: AdversaryTypeId, n: int,
                       cfg: GameConfig, rng: RandomSource) -> float:
    """Fraction correct over n stochastic classifications of type-i queries.

    Sanity harness: reconstructs an accuracy-matrix cell from the oracle.
    """
    cfg.check_classifier(j)
    cfg.check_type(i)
    p_correct = float(cfg.accuracy.acc[j, i])
    draws = rng.generator.random(n) < p_correct
    return float(draws.mean())
