"""Integration tests: the full P2PDocTagger system end to end."""

import pytest

from repro.core.metadata import TagSource
from repro.core.tagger import (
    ALGORITHMS,
    EvaluationReport,
    P2PDocTaggerSystem,
    SystemConfig,
)
from repro.data.delicious import DeliciousGenerator
from repro.errors import ConfigurationError, NotTrainedError


def small_corpus(seed=0, num_users=5):
    return DeliciousGenerator(
        num_users=num_users,
        seed=seed,
        num_tags=6,
        docs_per_user_range=(12, 16),
        vocabulary_size=400,
        topic_words_per_tag=30,
        doc_length_range=(30, 60),
    ).generate()


@pytest.fixture(scope="module")
def trained_system():
    system = P2PDocTaggerSystem.from_corpus(
        small_corpus(), algorithm="pace", seed=1, train_fraction=0.35
    )
    system.train()
    return system


class TestConstruction:
    def test_from_corpus_defaults(self):
        system = P2PDocTaggerSystem.from_corpus(small_corpus())
        assert system.config.algorithm == "pace"
        assert len(system.peers) == 5

    def test_empty_corpus_rejected(self):
        from repro.data.corpus import Corpus

        with pytest.raises(ConfigurationError):
            P2PDocTaggerSystem.from_corpus(Corpus([]))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(algorithm="magic").validate()

    def test_all_algorithms_construct(self):
        corpus = small_corpus()
        for algorithm in ALGORITHMS:
            system = P2PDocTaggerSystem.from_corpus(corpus, algorithm=algorithm)
            assert system.classifier is not None

    def test_default_split_is_the_papers_protocol(self):
        assert SystemConfig().train_fraction == 0.2  # 20 % tagged by hand

    def test_algorithm_options_reach_classifier(self):
        system = P2PDocTaggerSystem.from_corpus(
            small_corpus(), algorithm="pace", algorithm_options={"top_k": 3}
        )
        assert system.classifier.config.top_k == 3

    def test_overlay_option(self):
        system = P2PDocTaggerSystem.from_corpus(
            small_corpus(), algorithm="local", overlay="pastry"
        )
        assert system.scenario.overlay.name == "pastry"

    def test_train_test_split_follows_fraction(self):
        system = P2PDocTaggerSystem.from_corpus(
            small_corpus(), train_fraction=0.2
        )
        total = len(system.train_corpus) + len(system.test_corpus)
        assert total == len(system.corpus)
        fraction = len(system.train_corpus) / total
        assert 0.1 < fraction < 0.35

    def test_manual_tags_registered_for_training_docs(self):
        system = P2PDocTaggerSystem.from_corpus(small_corpus())
        tagged = sum(len(p.store) for p in system.peers.values())
        assert tagged == len(system.train_corpus)
        for peer in system.peers.values():
            for doc_id in peer.store.documents():
                records = peer.store.records_of(doc_id)
                assert all(r.source == TagSource.MANUAL for r in records)


class TestTraining:
    def test_evaluate_before_train_raises(self):
        system = P2PDocTaggerSystem.from_corpus(small_corpus())
        with pytest.raises(NotTrainedError):
            system.evaluate()

    def test_evaluate_returns_report(self, trained_system):
        report = trained_system.evaluate(max_documents=25)
        assert isinstance(report, EvaluationReport)
        assert report.algorithm == "pace"
        assert 0.0 <= report.metrics.micro_f1 <= 1.0
        assert report.total_messages > 0
        assert "microF1" in report.summary()

    def test_learns_something(self, trained_system):
        report = trained_system.evaluate(max_documents=30)
        assert report.metrics.micro_f1 > 0.3

    def test_vector_cache(self, trained_system):
        document = trained_system.test_corpus[0]
        first = trained_system.vector_of(document)
        second = trained_system.vector_of(document)
        assert first is second


class TestPeerOperations:
    def test_auto_tag_persists_metadata(self, trained_system):
        document = trained_system.test_corpus[0]
        peer = trained_system.peer_of(document)
        assigned = peer.auto_tag(document.untagged())
        assert assigned
        assert peer.store.tags_of(document.doc_id) == assigned
        records = peer.store.records_of(document.doc_id)
        assert all(r.source == TagSource.AUTO for r in records)

    def test_auto_tag_all(self, trained_system):
        assignments = trained_system.auto_tag_all()
        assert len(assignments) == len(trained_system.test_corpus)
        assert all(tags for tags in assignments.values())

    def test_manual_tag(self, trained_system):
        peer = trained_system.peers[0]
        peer.manual_tag(999_999, ["custom-tag"])
        assert "custom-tag" in peer.store.tags_of(999_999)
        with pytest.raises(ConfigurationError):
            peer.manual_tag(1, [])

    def test_suggest_tags_structure(self, trained_system):
        document = trained_system.test_corpus[1]
        peer = trained_system.peer_of(document)
        suggestions = peer.suggest_tags(document, confidence_threshold=0.2)
        assert suggestions
        kept = [s for s in suggestions if not s.struck_out]
        struck = [s for s in suggestions if s.struck_out]
        # Kept block alphabetical, struck block alphabetical, kept first.
        assert [s.tag for s in kept] == sorted(s.tag for s in kept)
        assert [s.tag for s in struck] == sorted(s.tag for s in struck)

    def test_tag_cloud_from_peer(self, trained_system):
        peer = trained_system.peers[0]
        cloud = peer.tag_cloud()
        assert len(cloud.frequencies()) > 0

    def test_global_tag_cloud(self, trained_system):
        cloud = trained_system.global_tag_cloud()
        assert len(cloud.frequencies()) > 0


class TestRefinementIntegration:
    def test_refine_updates_store_and_schedules_retrain(self):
        system = P2PDocTaggerSystem.from_corpus(
            small_corpus(seed=3), algorithm="local", train_fraction=0.3
        )
        system.train()
        document = system.test_corpus[0]
        peer = system.peer_of(document)
        fired = peer.refine(document, ["music"])
        assert not fired  # batch threshold not reached
        assert peer.store.tags_of(document.doc_id) == {"music"}
        assert system.refinement.pending_count == 1

    def test_refinement_batch_triggers_retrain(self):
        system = P2PDocTaggerSystem.from_corpus(
            small_corpus(seed=4), algorithm="local", train_fraction=0.3
        )
        system.train()
        system.refinement.retrain_every = 3
        fired_any = False
        for document in system.test_corpus.documents[:3]:
            peer = system.peer_of(document)
            fired_any |= peer.refine(document, sorted(document.tags)[:1])
        assert fired_any
        assert system.refinement.retrain_count == 1
        assert system.refinement.pending_count == 0

    def test_refinement_improves_or_maintains_accuracy(self):
        system = P2PDocTaggerSystem.from_corpus(
            small_corpus(seed=5), algorithm="local", train_fraction=0.25
        )
        system.train()
        before = system.evaluate(max_documents=30).metrics.micro_f1
        system.refinement.retrain_every = 1000  # batch manually
        for document in system.test_corpus.documents[:20]:
            peer = system.peer_of(document)
            peer.refine(document, sorted(document.tags))  # perfect corrections
        system.refinement.flush()
        after = system.evaluate(max_documents=30).metrics.micro_f1
        assert after >= before - 0.02


class TestChurnIntegration:
    def test_training_under_churn_still_works(self):
        system = P2PDocTaggerSystem.from_corpus(
            small_corpus(seed=6),
            algorithm="pace",
            churn="exponential",
            mean_session=400.0,
            mean_downtime=30.0,
            train_fraction=0.3,
        )
        system.train()
        report = system.evaluate(max_documents=20)
        assert report.metrics.micro_f1 >= 0.0  # completes without error
