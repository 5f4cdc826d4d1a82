"""Tests for the shared P2P classification machinery."""

import numpy as np
import pytest

from repro.data.delicious import DeliciousGenerator
from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import (
    P2PTagClassifier,
    TaggedVector,
    binary_problems,
    collect_tag_universe,
    corpus_to_peer_data,
)
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig


def tv(entries, tags):
    return TaggedVector(vector=SparseVector(entries), tags=frozenset(tags))


def scenario(n=4, seed=0):
    return Scenario(
        ScenarioConfig(num_peers=n, shard=ShardSpec(num_peers=n), seed=seed)
    )


ITEMS = [
    tv({0: 1.0}, {"a"}),
    tv({1: 1.0}, {"a", "b"}),
    tv({2: 1.0}, {"b"}),
    tv({3: 1.0}, {"c"}),
]


class TestBinaryProblems:
    def test_positive_and_negative_labels(self):
        problems = binary_problems(
            ITEMS, ["a", "b", "c"], 3.0, np.random.default_rng(0)
        )
        vectors, labels = problems["a"]
        assert labels.count(1) == 2
        assert all(label in (-1, 1) for label in labels)
        assert len(vectors) == len(labels)

    def test_tag_without_positives_skipped(self):
        problems = binary_problems(
            ITEMS, ["zzz"], 3.0, np.random.default_rng(0)
        )
        assert problems == {}

    def test_negative_ratio_cap(self):
        many = [tv({i: 1.0}, {"x"} if i == 0 else {"y"}) for i in range(50)]
        problems = binary_problems(many, ["x"], 2.0, np.random.default_rng(0))
        _, labels = problems["x"]
        assert labels.count(-1) <= 2

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            binary_problems(ITEMS, ["a"], 0, np.random.default_rng(0))

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_non_finite_ratio_is_refused_by_name(self, ratio):
        with pytest.raises(ConfigurationError, match="max_negative_ratio"):
            binary_problems(ITEMS, ["a"], ratio, np.random.default_rng(0))

    def test_deterministic_with_rng(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        p1 = binary_problems(ITEMS, ["a"], 3.0, rng1)
        p2 = binary_problems(ITEMS, ["a"], 3.0, rng2)
        assert p1["a"][1] == p2["a"][1]


class TestHelpers:
    def test_collect_tag_universe(self):
        peer_data = {0: ITEMS[:2], 1: ITEMS[2:]}
        assert collect_tag_universe(peer_data) == ["a", "b", "c"]

    def test_corpus_to_peer_data(self):
        corpus = DeliciousGenerator(num_users=3, seed=0).generate()
        peer_data = corpus_to_peer_data(corpus)
        assert set(peer_data) == set(corpus.owners)
        total = sum(len(v) for v in peer_data.values())
        assert total == len(corpus)
        for items in peer_data.values():
            for item in items:
                assert item.vector.nnz > 0
                assert item.tags

    def test_tagged_vector_wire_size(self):
        item = tv({0: 1.0, 1: 2.0}, {"ab"})
        assert item.wire_size() == 24 + 2 + 2


class _StubClassifier(P2PTagClassifier):
    """Minimal concrete classifier for interface tests."""

    def train(self):
        self._trained = True

    def predict_scores(self, origin, vector):
        return {"a": 0.9, "b": 0.4, "c": 0.1}


class TestInterface:
    def make(self):
        s = scenario()
        peer_data = {0: ITEMS[:2], 1: ITEMS[2:]}
        return _StubClassifier(s, peer_data)

    def test_tags_inferred(self):
        assert self.make().tags == ["a", "b", "c"]

    def test_untrained_guard(self):
        classifier = self.make()
        with pytest.raises(NotTrainedError):
            classifier.predict_tags(0, SparseVector({0: 1.0}))

    def test_predict_tags_threshold(self):
        classifier = self.make()
        classifier.train()
        tags = classifier.predict_tags(0, SparseVector({0: 1.0}), threshold=0.5)
        assert tags == {"a"}

    def test_predict_tags_never_empty(self):
        classifier = self.make()
        classifier.train()
        tags = classifier.predict_tags(0, SparseVector({0: 1.0}), threshold=0.99)
        assert tags == {"a"}  # falls back to the single best tag

    def test_rank_tags_sorted(self):
        classifier = self.make()
        classifier.train()
        ranked = classifier.rank_tags(0, SparseVector({0: 1.0}))
        assert [t for t, _ in ranked] == ["a", "b", "c"]

    def test_empty_peer_data_rejected(self):
        with pytest.raises(ConfigurationError):
            _StubClassifier(scenario(), {})

    def test_unknown_peer_rejected(self):
        with pytest.raises(ConfigurationError):
            _StubClassifier(scenario(n=2), {5: ITEMS})

    def test_no_tags_rejected(self):
        with pytest.raises(ConfigurationError):
            _StubClassifier(scenario(), {0: [tv({0: 1.0}, set())]})
