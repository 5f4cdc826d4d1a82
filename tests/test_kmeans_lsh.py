"""Tests for k-means clustering and the random-hyperplane LSH index."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ml.kmeans import KMeans, _mean_vector
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.sparse import SparseVector


def blobs(centers, per_center=15, spread=0.1, seed=0):
    rng = np.random.default_rng(seed)
    vectors = []
    for cx, cy in centers:
        for _ in range(per_center):
            vectors.append(
                SparseVector(
                    {0: cx + rng.normal(0, spread), 1: cy + rng.normal(0, spread)}
                )
            )
    return vectors


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        vectors = blobs([(0, 0), (10, 10), (-10, 5)])
        result = KMeans(k=3, seed=1).fit(vectors)
        assert len(result.centroids) == 3
        # Each blob's members share an assignment.
        for blob_index in range(3):
            members = result.assignments[blob_index * 15 : (blob_index + 1) * 15]
            assert len(set(members)) == 1

    def test_inertia_decreases_with_more_clusters(self):
        vectors = blobs([(0, 0), (5, 5)], per_center=20)
        inertia_1 = KMeans(k=1, seed=0).fit(vectors).inertia
        inertia_2 = KMeans(k=2, seed=0).fit(vectors).inertia
        assert inertia_2 < inertia_1

    def test_k_larger_than_dataset_shrinks(self):
        vectors = blobs([(0, 0)], per_center=3)
        result = KMeans(k=10, seed=0).fit(vectors)
        assert len(result.centroids) == 3

    def test_empty_dataset_raises(self):
        with pytest.raises(ConfigurationError):
            KMeans(k=2).fit([])

    def test_bad_k_raises(self):
        with pytest.raises(ConfigurationError):
            KMeans(k=0)

    def test_identical_points(self):
        vectors = [SparseVector({0: 1.0})] * 5
        result = KMeans(k=2, seed=0).fit(vectors)
        assert result.inertia == pytest.approx(0.0)

    def test_deterministic_given_seed(self):
        vectors = blobs([(0, 0), (4, 4)])
        r1 = KMeans(k=2, seed=9).fit(vectors)
        r2 = KMeans(k=2, seed=9).fit(vectors)
        assert r1.assignments == r2.assignments

    def test_mean_vector(self):
        mean = _mean_vector([SparseVector({0: 2.0}), SparseVector({1: 2.0})])
        assert mean.to_dict() == {0: 1.0, 1: 1.0}


class TestLSH:
    def test_identical_vectors_same_signature(self):
        lsh = RandomHyperplaneLSH(num_bits=16, seed=4)
        v = SparseVector({1: 1.0, 5: 2.0})
        assert lsh.signature(v) == lsh.signature(SparseVector({1: 1.0, 5: 2.0}))

    def test_shared_seed_agrees_across_instances(self):
        a = RandomHyperplaneLSH(num_bits=16, seed=4)
        b = RandomHyperplaneLSH(num_bits=16, seed=4)
        v = SparseVector({3: 1.5, 7: -2.0})
        assert a.signature(v) == b.signature(v)

    def test_different_seed_differs_usually(self):
        vectors = [SparseVector({i: 1.0, i + 1: 2.0}) for i in range(20)]
        a = RandomHyperplaneLSH(num_bits=16, seed=1)
        b = RandomHyperplaneLSH(num_bits=16, seed=2)
        assert any(a.signature(v) != b.signature(v) for v in vectors)

    def test_query_returns_nearest(self):
        lsh = RandomHyperplaneLSH(num_bits=8, seed=0)
        near = SparseVector({0: 1.0, 1: 1.0})
        far = SparseVector({0: -5.0, 1: -5.0})
        lsh.insert(near, "near")
        lsh.insert(far, "far")
        results = lsh.query(SparseVector({0: 0.9, 1: 1.1}), top_k=1)
        assert results[0][1] == "near"

    def test_query_top_k_ordering(self):
        lsh = RandomHyperplaneLSH(num_bits=4, seed=0)
        for i in range(10):
            lsh.insert(SparseVector({0: float(i)}), i)
        results = lsh.query(SparseVector({0: 0.0}), top_k=5)
        distances = [d for d, _ in results]
        assert distances == sorted(distances)
        assert len(results) == 5

    def test_query_empty_index(self):
        lsh = RandomHyperplaneLSH()
        assert lsh.query(SparseVector({0: 1.0}), top_k=3) == []

    def test_query_invalid_k(self):
        lsh = RandomHyperplaneLSH()
        with pytest.raises(ConfigurationError):
            lsh.query(SparseVector({0: 1.0}), top_k=0)

    def test_bad_num_bits(self):
        with pytest.raises(ConfigurationError):
            RandomHyperplaneLSH(num_bits=0)
        with pytest.raises(ConfigurationError):
            RandomHyperplaneLSH(num_bits=65)

    def test_similar_vectors_collide_more(self):
        """Statistical property: near-duplicates share more signature bits."""
        lsh = RandomHyperplaneLSH(num_bits=32, seed=11)
        rng = np.random.default_rng(3)
        agree_similar, agree_random = [], []
        for _ in range(30):
            base = SparseVector({i: rng.normal() for i in range(10)})
            similar = base.add(
                SparseVector({i: rng.normal() * 0.01 for i in range(10)})
            )
            unrelated = SparseVector({i: rng.normal() for i in range(10)})
            s_base = lsh.signature(base)
            agree_similar.append(32 - bin(s_base ^ lsh.signature(similar)).count("1"))
            agree_random.append(32 - bin(s_base ^ lsh.signature(unrelated)).count("1"))
        assert np.mean(agree_similar) > np.mean(agree_random)
