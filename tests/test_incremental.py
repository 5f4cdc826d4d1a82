"""Tests for incremental (delta-statistics) refinement updates."""

import pytest

from repro.core.metadata import TagMetadataStore
from repro.core.refinement import Refinement, RefinementLoop
from repro.core.tagger import P2PDocTaggerSystem
from repro.data.delicious import DeliciousGenerator
from repro.p2pclass.base import TaggedVector
from repro.p2pclass.cempar import CemparClassifier
from repro.p2pclass.nbagg import NBAggClassifier
from repro.p2pclass.pace import PaceClassifier, PaceConfig
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig

from tests.test_classifiers import (
    NUM_PEERS,
    PEER_DATA,
    TAGS,
    TEST_ITEMS,
    fresh_scenario,
)


def delta_items():
    return [
        TaggedVector(vector=TEST_ITEMS[0][0], tags=TEST_ITEMS[0][1]),
        TaggedVector(vector=TEST_ITEMS[1][0], tags=TEST_ITEMS[1][1]),
    ]


class TestIncrementalProtocol:
    def test_nbagg_advertises_support(self):
        assert NBAggClassifier.supports_incremental
        assert not PaceClassifier.supports_incremental

    def test_unsupported_classifier_raises(self):
        classifier = PaceClassifier(
            fresh_scenario(), PEER_DATA, TAGS, PaceConfig()
        )
        classifier.train()
        with pytest.raises(NotImplementedError):
            classifier.incremental_update(0, delta_items())

    def test_update_before_train_raises(self):
        from repro.errors import NotTrainedError

        classifier = NBAggClassifier(fresh_scenario(), PEER_DATA, TAGS)
        with pytest.raises(NotTrainedError):
            classifier.incremental_update(0, delta_items())


class TestNBAggIncremental:
    def test_delta_matches_full_retrain_statistics(self):
        """Additivity: delta upload == retraining with the enlarged corpus
        (for tags the peer already uploads for)."""
        incremental = NBAggClassifier(fresh_scenario(), PEER_DATA, TAGS)
        incremental.train()
        items = delta_items()
        incremental.incremental_update(0, items)

        enlarged = {k: list(v) for k, v in PEER_DATA.items()}
        enlarged[0] = enlarged[0] + items
        retrained = NBAggClassifier(fresh_scenario(), enlarged, TAGS)
        retrained.train()

        probe = TEST_ITEMS[5][0]
        common = set(incremental._models) & set(retrained._models)
        assert common
        for tag in common:
            a = incremental._models[tag]
            b = retrained._models[tag]
            if a.stats.num_documents == b.stats.num_documents:
                assert a.log_odds(probe) == pytest.approx(b.log_odds(probe))

    def test_delta_upload_is_cheaper_than_retrain(self):
        incremental = NBAggClassifier(fresh_scenario(), PEER_DATA, TAGS)
        incremental.train()
        base = incremental.scenario.stats.total_bytes
        incremental.incremental_update(0, delta_items())
        delta_bytes = incremental.scenario.stats.total_bytes - base
        assert 0 <= delta_bytes < base / 2

    def test_empty_delta_noop(self):
        classifier = NBAggClassifier(fresh_scenario(), PEER_DATA, TAGS)
        classifier.train()
        base = classifier.scenario.stats.total_messages
        classifier.incremental_update(0, [])
        assert classifier.scenario.stats.total_messages == base


def _perpeer_scenario():
    """Training draws keyed by (seed, peer), so a retrain and a fresh train
    over the same data cascade the same models."""
    return Scenario(ScenarioConfig(
        num_peers=NUM_PEERS, shard=ShardSpec(num_peers=NUM_PEERS),
        rng_mode="perpeer", jitter_floor=0.5,
    ))


class TestRetrainDropsThePredictionBlock:
    """CEMPaR predicts from a block packed on the first query after
    ``train()``: a refinement retrain must drop it, or the old models keep
    answering."""

    def test_retrained_predictions_equal_a_freshly_built_classifiers(self):
        def scores(classifier):
            return [
                classifier.predict_scores(owner, vector)
                for vector, _, owner in TEST_ITEMS
            ]

        data = {address: list(items) for address, items in PEER_DATA.items()}
        refined = CemparClassifier(_perpeer_scenario(), data, TAGS)
        refined.train()
        before = scores(refined)  # packs the first block
        loop = RefinementLoop(refined, TagMetadataStore(), retrain_every=8)
        for doc_id, (vector, tags, owner) in enumerate(TEST_ITEMS[:8]):
            loop.refine(Refinement(doc_id, owner, vector, frozenset(tags)))
        assert loop.retrain_count == 1

        fresh = CemparClassifier(_perpeer_scenario(), data, TAGS)  # the refined data
        fresh.train()
        after = scores(refined)
        assert after == scores(fresh)
        assert after != before  # the refinements moved the models

    def test_cempar_packs_on_the_first_query_and_train_lets_go(self):
        classifier = CemparClassifier(fresh_scenario(), PEER_DATA, TAGS)
        classifier.train()
        assert classifier._block is None  # train() packs nothing
        vector, _, owner = TEST_ITEMS[0]
        classifier.predict_scores(owner, vector)
        first = classifier._block
        assert first.keys == sorted(classifier.regional_models)
        # one copy of the support vectors: the calibration's packs are gone
        assert all(model.svm._packed is None for model in first.models)
        classifier.predict_scores(owner, vector)
        assert classifier._block is first
        classifier.train()
        assert classifier._block is None


class TestRefinementLoopIntegration:
    def make_system(self, algorithm):
        corpus = DeliciousGenerator(
            num_users=5, seed=8, num_tags=6, docs_per_user_range=(12, 16),
            vocabulary_size=400, topic_words_per_tag=30,
            doc_length_range=(30, 60),
        ).generate()
        system = P2PDocTaggerSystem.from_corpus(
            corpus, algorithm=algorithm, train_fraction=0.3
        )
        system.train()
        return system

    def test_loop_uses_incremental_path_for_nbagg(self):
        system = self.make_system("nbagg")
        system.refinement.retrain_every = 2
        for document in system.test_corpus.documents[:2]:
            peer = system.peer_of(document)
            peer.refine(document, sorted(document.tags))
        assert system.refinement.incremental_count == 1
        assert system.refinement.retrain_count == 0

    def test_loop_falls_back_to_retrain_for_local(self):
        system = self.make_system("local")
        system.refinement.retrain_every = 2
        for document in system.test_corpus.documents[:2]:
            peer = system.peer_of(document)
            peer.refine(document, sorted(document.tags))
        assert system.refinement.retrain_count == 1
        assert system.refinement.incremental_count == 0

    def test_incremental_refinement_improves_accuracy(self):
        system = self.make_system("nbagg")
        before = system.evaluate(max_documents=25).metrics.micro_f1
        system.refinement.retrain_every = 10 ** 9
        for document in system.test_corpus.documents[25:45]:
            peer = system.peer_of(document)
            peer.refine(document, sorted(document.tags))
        system.refinement.flush()
        after = system.evaluate(max_documents=25).metrics.micro_f1
        assert after >= before - 0.03
