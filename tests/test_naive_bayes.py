"""Tests for multinomial NB, its sufficient statistics, and NB-Agg."""

import pytest

from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.naive_bayes import MultinomialNB, NBSufficientStats
from repro.ml.sparse import SparseVector

from tests.test_classifiers import (
    PEER_DATA,
    TAGS,
    TEST_ITEMS,
    evaluate,
    fresh_scenario,
)


def topic_data():
    """Two 'topics': features 0-2 vs features 10-12."""
    pos = [SparseVector({0: 2.0, 1: 1.0}), SparseVector({1: 2.0, 2: 1.0}),
           SparseVector({0: 1.0, 2: 2.0})]
    neg = [SparseVector({10: 2.0, 11: 1.0}), SparseVector({11: 2.0, 12: 1.0}),
           SparseVector({10: 1.0, 12: 2.0})]
    return pos + neg, [1, 1, 1, -1, -1, -1]


class TestSufficientStats:
    def test_add_document(self):
        stats = NBSufficientStats()
        stats.add_document(SparseVector({0: 2.0, 1: 1.0}), 1)
        stats.add_document(SparseVector({0: 1.0}), -1)
        assert stats.doc_counts == [1, 1]
        assert stats.feature_sums[1][0] == 2.0
        assert stats.feature_sums[0][0] == 1.0
        assert stats.total_mass == [1.0, 3.0]

    def test_bad_label_rejected(self):
        with pytest.raises(ConfigurationError):
            NBSufficientStats().add_document(SparseVector({0: 1.0}), 0)

    def test_merge_additivity(self):
        """Merged peer statistics equal statistics over pooled data."""
        vectors, labels = topic_data()
        pooled = NBSufficientStats()
        for v, y in zip(vectors, labels):
            pooled.add_document(v, y)
        half_a, half_b = NBSufficientStats(), NBSufficientStats()
        for v, y in zip(vectors[:3], labels[:3]):
            half_a.add_document(v, y)
        for v, y in zip(vectors[3:], labels[3:]):
            half_b.add_document(v, y)
        half_a.merge(half_b)
        assert half_a.doc_counts == pooled.doc_counts
        assert half_a.total_mass == pooled.total_mass
        assert half_a.feature_sums == pooled.feature_sums

    def test_wire_size(self):
        stats = NBSufficientStats()
        stats.add_document(SparseVector({0: 1.0, 1: 1.0}), 1)
        assert stats.wire_size() == 12 * 2 + 32


def pooled_model(vectors, labels):
    """The model NB-Agg builds: statistics summed, then ``from_stats``."""
    stats = NBSufficientStats()
    for v, y in zip(vectors, labels):
        stats.add_document(v, y)
    return MultinomialNB.from_stats(stats, vocabulary_size=100)


class TestMultinomialNB:
    def test_separates_topics(self):
        vectors, labels = topic_data()
        nb = pooled_model(vectors, labels)
        assert nb.log_odds(SparseVector({0: 1.0, 1: 1.0})) > 0
        assert nb.log_odds(SparseVector({10: 1.0, 11: 1.0})) < 0
        assert all((nb.log_odds(v) >= 0) == (y == 1) for v, y in zip(vectors, labels))

    def test_probability_bounds_and_ordering(self):
        vectors, labels = topic_data()
        nb = pooled_model(vectors, labels)
        p_pos = nb.probability(SparseVector({0: 3.0}))
        p_neg = nb.probability(SparseVector({10: 3.0}))
        assert 0.0 <= p_neg < p_pos <= 1.0

    def test_distributed_equals_centralized(self):
        """The NB-Agg exactness property at the model level."""
        vectors, labels = topic_data()
        central = pooled_model(vectors, labels)
        shards = [NBSufficientStats(), NBSufficientStats(), NBSufficientStats()]
        for index, (v, y) in enumerate(zip(vectors, labels)):
            shards[index % 3].add_document(v, y)
        merged = shards[0]
        merged.merge(shards[1])
        merged.merge(shards[2])
        distributed = MultinomialNB.from_stats(merged, vocabulary_size=100)
        for probe in vectors:
            assert central.log_odds(probe) == pytest.approx(
                distributed.log_odds(probe)
            )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MultinomialNB(alpha=0)
        with pytest.raises(ConfigurationError):
            MultinomialNB.from_stats(NBSufficientStats())
        with pytest.raises(NotTrainedError):
            MultinomialNB().log_odds(SparseVector({0: 1.0}))


class TestNBAggClassifier:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.p2pclass.nbagg import NBAggClassifier, NBAggConfig

        classifier = NBAggClassifier(
            fresh_scenario(), PEER_DATA, TAGS,
            NBAggConfig(vocabulary_size=2 ** 16),
        )
        classifier.train()
        return classifier

    def test_learns(self, trained):
        assert evaluate(trained, TEST_ITEMS) > 0.4

    def test_statistics_uploaded_once_per_tag_peer(self, trained):
        stats = trained.scenario.stats
        assert stats.messages_for("nbagg.stats_upload") > 0

    def test_scores_cover_tags(self, trained):
        scores = trained.predict_scores(0, TEST_ITEMS[0][0])
        assert set(scores) == set(TAGS)
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_query_traffic_charged(self, trained):
        stats = trained.scenario.stats
        before = stats.messages_for("nbagg.query")
        trained.predict_scores(2, TEST_ITEMS[0][0])
        assert stats.messages_for("nbagg.query") >= before

    def test_invalid_config(self):
        from repro.p2pclass.nbagg import NBAggClassifier, NBAggConfig

        with pytest.raises(ConfigurationError):
            NBAggClassifier(
                fresh_scenario(), PEER_DATA, TAGS, NBAggConfig(alpha=0)
            )

    def test_system_integration(self):
        from repro.core.tagger import P2PDocTaggerSystem
        from repro.data.delicious import DeliciousGenerator

        corpus = DeliciousGenerator(
            num_users=5, seed=2, num_tags=6, docs_per_user_range=(12, 16),
            vocabulary_size=400, topic_words_per_tag=30,
            doc_length_range=(30, 60),
        ).generate()
        system = P2PDocTaggerSystem.from_corpus(
            corpus, algorithm="nbagg", train_fraction=0.3
        )
        system.train()
        report = system.evaluate(max_documents=20)
        assert report.algorithm == "nbagg"
        assert report.metrics.micro_f1 > 0.2
