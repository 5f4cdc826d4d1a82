"""k-means clustering over sparse vectors (k-means++ initialization).

PACE peers "perform clustering on the training data" and propagate the
cluster centroids alongside their linear models; receiving peers index models
by those centroids.  Centroids are kept sparse (they are means of sparse
documents) so their wire size is honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.sparse import SparseVector


def _mean_vector(vectors: Sequence[SparseVector]) -> SparseVector:
    """Sparse mean of a non-empty list of sparse vectors."""
    accumulator: dict[int, float] = {}
    for vector in vectors:
        for fid, value in vector.items():
            accumulator[fid] = accumulator.get(fid, 0.0) + value
    n = float(len(vectors))
    return SparseVector({fid: value / n for fid, value in accumulator.items()})


@dataclass
class KMeansResult:
    """Clustering output: centroids, assignments, and inertia."""

    centroids: List[SparseVector]
    assignments: List[int]
    inertia: float
    iterations: int


class KMeans:
    """Lloyd's algorithm with k-means++ seeding on sparse vectors.

    Parameters
    ----------
    k:
        Number of clusters.  If the data has fewer distinct points than
        ``k``, the effective number of centroids shrinks to match.
    max_iterations:
        Lloyd iteration cap.
    seed:
        RNG seed for k-means++ sampling.
    """

    def __init__(self, k: int, max_iterations: int = 50, seed: int = 0) -> None:
        if k <= 0:
            raise ConfigurationError("k must be positive")
        self.k = k
        self.max_iterations = max_iterations
        self.seed = seed

    def fit(self, vectors: Sequence[SparseVector]) -> KMeansResult:
        if not vectors:
            raise ConfigurationError("cannot cluster an empty dataset")
        k = min(self.k, len(vectors))
        rng = np.random.default_rng(self.seed)
        centroids = self._kmeanspp_init(vectors, k, rng)

        assignments = [0] * len(vectors)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            moved = False
            for i, vector in enumerate(vectors):
                best = min(
                    range(len(centroids)),
                    key=lambda c: vector.distance_squared(centroids[c]),
                )
                if best != assignments[i]:
                    assignments[i] = best
                    moved = True
            new_centroids: List[SparseVector] = []
            for c in range(len(centroids)):
                members = [v for v, a in zip(vectors, assignments) if a == c]
                if members:
                    new_centroids.append(_mean_vector(members))
                else:
                    # Re-seed an empty cluster at the farthest point.
                    far = max(
                        vectors,
                        key=lambda v: min(
                            v.distance_squared(existing) for existing in centroids
                        ),
                    )
                    new_centroids.append(far)
            converged = not moved and all(
                old.distance_squared(new) < 1e-12
                for old, new in zip(centroids, new_centroids)
            )
            centroids = new_centroids
            if converged:
                break

        inertia = sum(
            vector.distance_squared(centroids[assignment])
            for vector, assignment in zip(vectors, assignments)
        )
        return KMeansResult(
            centroids=centroids,
            assignments=assignments,
            inertia=inertia,
            iterations=iterations,
        )

    @staticmethod
    def _kmeanspp_init(
        vectors: Sequence[SparseVector], k: int, rng: np.random.Generator
    ) -> List[SparseVector]:
        """k-means++ seeding: spread initial centroids proportionally to D^2."""
        first = int(rng.integers(0, len(vectors)))
        centroids = [vectors[first]]
        while len(centroids) < k:
            distances = np.array(
                [
                    min(v.distance_squared(c) for c in centroids)
                    for v in vectors
                ]
            )
            total = distances.sum()
            if total <= 0:
                # All points identical to some centroid; duplicate arbitrarily.
                centroids.append(vectors[int(rng.integers(0, len(vectors)))])
                continue
            probabilities = distances / total
            choice = int(rng.choice(len(vectors), p=probabilities))
            centroids.append(vectors[choice])
        return centroids
