"""Multinomial Naive Bayes over sparse vectors.

A second base-classifier family for the pluggable P2P layer.  Its key
property for P2P learning: the model is fully determined by *sufficient
statistics* (per-class feature-count sums and document counts) that are
additive across peers — summing every peer's statistics reproduces the
centralized model exactly, with communication proportional to vocabulary
use rather than to documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.constraints import (
    at_least, check_value, in_range, integer, positive,
)
from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.sparse import SparseVector


@dataclass
class NBSufficientStats:
    """Additive sufficient statistics for one binary (tag) problem.

    ``feature_sums[c][fid]`` is the total feature mass of feature ``fid``
    in class ``c`` (c in {0, 1}); ``doc_counts[c]`` the number of training
    documents; ``total_mass[c]`` the summed feature mass.
    """

    feature_sums: List[Dict[int, float]] = field(
        default_factory=lambda: [{}, {}]
    )
    doc_counts: List[int] = field(default_factory=lambda: [0, 0])
    total_mass: List[float] = field(default_factory=lambda: [0.0, 0.0])

    def add_document(self, vector: SparseVector, label: int) -> None:
        """Accumulate one document with label in {-1, +1}."""
        if label not in (-1, 1):
            raise ConfigurationError(f"label must be ±1, got {label}")
        c = 1 if label == 1 else 0
        sums = self.feature_sums[c]
        for fid, value in vector.items():
            sums[fid] = sums.get(fid, 0.0) + value
            self.total_mass[c] += value
        self.doc_counts[c] += 1

    def merge(self, other: "NBSufficientStats") -> None:
        """Fold another peer's statistics in (the P2P aggregation step)."""
        for c in (0, 1):
            sums = self.feature_sums[c]
            for fid, value in other.feature_sums[c].items():
                sums[fid] = sums.get(fid, 0.0) + value
            self.doc_counts[c] += other.doc_counts[c]
            self.total_mass[c] += other.total_mass[c]

    def wire_size(self) -> int:
        """Bytes to ship: 12 B per (feature, sum) entry + counters."""
        entries = sum(len(s) for s in self.feature_sums)
        return 12 * entries + 32

    @property
    def num_documents(self) -> int:
        return self.doc_counts[0] + self.doc_counts[1]


#: the largest smoothing pseudo-count: a document's term mass (at most a
#: few units) keeps about 20 bits beside it in float64, where 2**63 drowns
#: it and every score reads 0.5
MAX_ALPHA = 2 ** 32


class MultinomialNB:
    """Binary multinomial NB with Laplace smoothing.

    Built from aggregated :class:`NBSufficientStats` via :meth:`from_stats`.
    """

    def __init__(self, alpha: float = 1.0, vocabulary_size: int = 2 ** 18) -> None:
        check_value("alpha", alpha, positive, in_range(0, MAX_ALPHA))
        check_value("vocabulary_size", vocabulary_size, integer, at_least(1))
        self.alpha = alpha
        self.vocabulary_size = vocabulary_size
        self._stats: Optional[NBSufficientStats] = None

    # -- training ----------------------------------------------------------

    @classmethod
    def from_stats(
        cls,
        stats: NBSufficientStats,
        alpha: float = 1.0,
        vocabulary_size: int = 2 ** 18,
    ) -> "MultinomialNB":
        if stats.num_documents == 0:
            raise ConfigurationError("statistics contain no documents")
        model = cls(alpha=alpha, vocabulary_size=vocabulary_size)
        model._stats = stats
        return model

    @property
    def stats(self) -> NBSufficientStats:
        if self._stats is None:
            raise NotTrainedError("MultinomialNB has not been fitted")
        return self._stats

    # -- prediction -------------------------------------------------------------

    def log_odds(self, vector: SparseVector) -> float:
        """log P(y=+1 | x) - log P(y=-1 | x) up to the shared constant."""
        stats = self.stats
        n = stats.num_documents
        # Smoothed class priors.
        prior = math.log((stats.doc_counts[1] + self.alpha) /
                         (stats.doc_counts[0] + self.alpha))
        score = prior
        v = self.vocabulary_size
        denom_pos = stats.total_mass[1] + self.alpha * v
        denom_neg = stats.total_mass[0] + self.alpha * v
        for fid, value in vector.items():
            pos = stats.feature_sums[1].get(fid, 0.0) + self.alpha
            neg = stats.feature_sums[0].get(fid, 0.0) + self.alpha
            score += value * (
                math.log(pos / denom_pos) - math.log(neg / denom_neg)
            )
        return score

    def probability(self, vector: SparseVector) -> float:
        """P(y=+1 | x) via the logistic of the log-odds."""
        z = self.log_odds(vector)
        if z >= 0:
            ez = math.exp(-min(z, 500.0))
            return 1.0 / (1.0 + ez)
        return math.exp(max(z, -500.0)) / (1.0 + math.exp(max(z, -500.0)))
