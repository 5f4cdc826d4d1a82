"""End-to-end tests for CEMPaR, PACE, and the baselines on synthetic corpora."""

import pytest

from repro.baselines.centralized import CentralizedConfig, CentralizedTagger
from repro.baselines.localonly import LocalOnlyConfig, LocalOnlyTagger
from repro.baselines.popularity import PopularityTagger
from repro.data.delicious import DeliciousGenerator
from repro.data.splits import per_user_split
from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.metrics import micro_f1
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import corpus_to_peer_data
from repro.p2pclass.cempar import CemparClassifier, CemparConfig
from repro.p2pclass.nbagg import NBAggConfig
from repro.p2pclass.pace import PaceClassifier, PaceConfig
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.text.vectorizer import PreprocessingPipeline

NUM_PEERS = 6


def make_setting(seed=0, train_fraction=0.35):
    """Small corpus split per user; returns scenario factory inputs."""
    corpus = DeliciousGenerator(
        num_users=NUM_PEERS,
        seed=seed,
        num_tags=6,
        docs_per_user_range=(14, 18),
        vocabulary_size=400,
        topic_words_per_tag=30,
        doc_length_range=(30, 60),
    ).generate()
    train, test = per_user_split(corpus, train_fraction=train_fraction, seed=seed)
    pipeline = PreprocessingPipeline(dimension=2 ** 16)
    peer_data = corpus_to_peer_data(train, pipeline)
    test_items = [
        (pipeline.process(d.text), d.tags, d.owner) for d in test.documents[:40]
    ]
    tags = corpus.tag_universe()
    return peer_data, test_items, tags


def fresh_scenario(seed=0):
    return Scenario(
        ScenarioConfig(
            num_peers=NUM_PEERS, shard=ShardSpec(num_peers=NUM_PEERS), seed=seed
        )
    )


def evaluate(classifier, test_items, threshold=0.5):
    true_sets, predicted = [], []
    for vector, tags, owner in test_items:
        true_sets.append(tags)
        predicted.append(classifier.predict_tags(owner, vector, threshold))
    return micro_f1(true_sets, predicted)


PEER_DATA, TEST_ITEMS, TAGS = make_setting()


@pytest.fixture(scope="module")
def trained_cempar():
    classifier = CemparClassifier(
        fresh_scenario(), PEER_DATA, TAGS, CemparConfig(num_regions=2)
    )
    classifier.train()
    return classifier


@pytest.fixture(scope="module")
def trained_pace():
    classifier = PaceClassifier(
        fresh_scenario(), PEER_DATA, TAGS, PaceConfig(top_k=6)
    )
    classifier.train()
    return classifier


class TestCempar:
    def test_learns_better_than_chance(self, trained_cempar):
        f1 = evaluate(trained_cempar, TEST_ITEMS)
        assert f1 > 0.35

    def test_scores_in_unit_interval(self, trained_cempar):
        scores = trained_cempar.predict_scores(0, TEST_ITEMS[0][0])
        assert set(scores) == set(TAGS)
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_regional_models_exist(self, trained_cempar):
        assert len(trained_cempar.regional_models) > 0
        tags_covered = {tag for tag, _ in trained_cempar.regional_models}
        assert tags_covered <= set(TAGS)

    def test_communication_charged(self, trained_cempar):
        stats = trained_cempar.scenario.stats
        assert stats.messages_for("cempar.model_upload") > 0
        assert stats.bytes_for("cempar.model_upload") > 0

    def test_query_charges_messages(self, trained_cempar):
        stats = trained_cempar.scenario.stats
        before = stats.messages_for("cempar.query")
        trained_cempar.predict_scores(1, TEST_ITEMS[0][0])
        assert stats.messages_for("cempar.query") > before

    def test_untrained_guard(self):
        classifier = CemparClassifier(fresh_scenario(), PEER_DATA, TAGS)
        with pytest.raises(NotTrainedError):
            classifier.predict_scores(0, SparseVector({0: 1.0}))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            CemparClassifier(
                fresh_scenario(), PEER_DATA, TAGS, CemparConfig(num_regions=0)
            )

    @pytest.mark.parametrize("field, value", [
        ("C", float("nan")),
        ("gamma", float("nan")),
        ("gamma", float("inf")),
        ("max_cascade_training_size", 0),
        ("max_cascade_training_size", 2.5),
        ("max_negative_ratio", float("nan")),
        ("kernel_name", "sigmoid"),
        ("num_regions", 1.5),
        ("num_regions", 2.0),
    ])
    def test_config_that_fails_late_is_refused_by_validate(self, field, value):
        """Each used to pass ``validate``: NaN C and gamma trained empty
        models, a zero cascade cap raised only after the upload round, a
        NaN ratio failed inside ``binary_problems`` without its name, and
        inside ``train()`` an unknown kernel raised ``gram_matrix``'s bare
        ``ValueError``, a fractional cascade cap numpy's ``TypeError`` and a
        float region count a ``TypeError`` in ``SuperPeerDirectory``."""
        with pytest.raises(ConfigurationError, match=rf"\b{field}\b"):
            CemparConfig(**{field: value}).validate()

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_upload_window_that_cannot_schedule_is_refused(self, value):
        """A negative window raised numpy's bare ``scale < 0`` inside
        ``train()``; a NaN one trained without a word."""
        with pytest.raises(ConfigurationError, match=r"\bupload_window\b"):
            CemparConfig(upload_window=value).validate()
        with pytest.raises(ConfigurationError, match=r"\bupload_window\b"):
            NBAggConfig(upload_window=value).validate()

    def test_upload_privacy_no_text(self, trained_cempar):
        """CEMPaR messages carry vectors (word ids + counts), never strings."""
        for (tag, region), model in trained_cempar.regional_models.items():
            for sv in model.svm.support_vectors:
                assert isinstance(sv.vector, SparseVector)


class TestPace:
    def test_learns_better_than_chance(self, trained_pace):
        f1 = evaluate(trained_pace, TEST_ITEMS)
        assert f1 > 0.35

    def test_prediction_is_local(self, trained_pace):
        stats = trained_pace.scenario.stats
        before = stats.total_messages
        trained_pace.predict_scores(2, TEST_ITEMS[0][0])
        assert stats.total_messages == before  # zero query traffic

    def test_broadcast_charged(self, trained_pace):
        stats = trained_pace.scenario.stats
        assert stats.messages_for("pace.model_broadcast") > 0

    def test_all_peers_indexed_models(self, trained_pace):
        for address in range(NUM_PEERS):
            assert trained_pace.models_indexed_at(address) >= NUM_PEERS - 1

    def test_no_document_vectors_in_bundles(self, trained_pace):
        """PACE privacy property: bundles hold weights/centroids only."""
        for receiver in range(NUM_PEERS):
            for bundle in trained_pace.held_bundles(receiver).values():
                assert not hasattr(bundle, "documents")
                assert set(vars(bundle)) == {
                    "origin", "models", "accuracies", "calibration", "centroids",
                }

    def test_scores_cover_tag_universe(self, trained_pace):
        scores = trained_pace.predict_scores(0, TEST_ITEMS[0][0])
        assert set(scores) == set(TAGS)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            PaceClassifier(fresh_scenario(), PEER_DATA, TAGS, PaceConfig(top_k=0))

    @pytest.mark.parametrize("field, value", [
        ("propagation_window", -1.0),
        ("propagation_window", float("nan")),
        ("propagation_window", float("inf")),
        ("distance_smoothing", float("nan")),
        ("distance_smoothing", float("inf")),
        ("num_clusters", 1.5),
        ("lambda_reg", float("nan")),
        ("lambda_reg", float("inf")),
        ("lambda_reg", 0.0),
        ("epochs", 0),
        ("lsh_bits", 0),
        ("lsh_bits", 65),
        ("lsh_bits", 8.5),
        ("top_k", 2.5),
        ("max_negative_ratio", 0.0),
        ("max_negative_ratio", float("nan")),
    ])
    def test_config_that_fails_late_is_refused_by_validate(self, field, value):
        """Each used to pass ``validate``: a negative window raised numpy's
        bare ``scale < 0`` inside ``train()``, a NaN one trained without a
        word, a NaN smoothing made every score 0.0, a fractional cluster
        count clustered into its ceiling, and the linear SVM's settings were
        refused only inside ``train()``, without the config's word for
        them; an LSH width outside [1, 64] was refused only after the
        Pegasos and k-means blocks, a fractional one raised a bare
        ``TypeError`` mid-train, a fractional ``top_k`` one at the first
        AutoTag, and a zero or NaN negative ratio inside ``train()``."""
        with pytest.raises(ConfigurationError, match=rf"\b{field}\b"):
            PaceConfig(**{field: value}).validate()

    def test_a_zero_propagation_window_still_trains(self):
        classifier = PaceClassifier(
            fresh_scenario(), PEER_DATA, TAGS, PaceConfig(propagation_window=0.0)
        )
        classifier.train()
        assert classifier.models_indexed_at(0) >= NUM_PEERS - 1


class TestBaselines:
    def test_centralized_accuracy_best_or_close(self):
        classifier = CentralizedTagger(fresh_scenario(), PEER_DATA, TAGS)
        classifier.train()
        f1 = evaluate(classifier, TEST_ITEMS)
        assert f1 > 0.4

    def test_centralized_uploads_raw_data(self):
        classifier = CentralizedTagger(fresh_scenario(), PEER_DATA, TAGS)
        classifier.train()
        stats = classifier.scenario.stats
        assert stats.messages_for("central.data_upload") == NUM_PEERS - 1
        assert stats.bytes_for("central.data_upload") > 0

    def test_centralized_server_validation(self):
        with pytest.raises(ConfigurationError):
            CentralizedTagger(
                fresh_scenario(), PEER_DATA, TAGS, CentralizedConfig(server=99)
            )

    @pytest.mark.parametrize("config", [LocalOnlyConfig, CentralizedConfig])
    @pytest.mark.parametrize("field, value", [
        ("lambda_reg", float("nan")),
        ("lambda_reg", float("inf")),
        ("lambda_reg", 0.0),
        ("lambda_reg", -1e-4),
        ("epochs", 0),
    ])
    def test_linear_svm_settings_are_refused_by_validate(self, config, field, value):
        """A bad ``lambda_reg`` used to pass ``validate`` and fail only
        when ``train()`` built its ``LinearSVM``."""
        with pytest.raises(ConfigurationError, match=rf"\b{field}\b"):
            config(**{field: value}).validate()

    @pytest.mark.parametrize("config", [LocalOnlyConfig, CentralizedConfig])
    @pytest.mark.parametrize("field, value", [
        ("max_negative_ratio", 0.0),
        ("max_negative_ratio", float("nan")),
        ("max_negative_ratio", float("inf")),
    ])
    def test_config_that_fails_late_is_refused_by_validate(self, config, field, value):
        """Each used to pass ``validate`` (``CemparConfig`` refused them) and
        fail inside ``train()``'s ``binary_problems``."""
        with pytest.raises(ConfigurationError, match=rf"\b{field}\b"):
            config(**{field: value}).validate()

    def test_local_only_zero_traffic(self):
        classifier = LocalOnlyTagger(fresh_scenario(), PEER_DATA, TAGS)
        classifier.train()
        evaluate(classifier, TEST_ITEMS)
        assert classifier.scenario.stats.total_messages == 0

    def test_local_only_weaker_than_centralized(self):
        local = LocalOnlyTagger(fresh_scenario(), PEER_DATA, TAGS)
        local.train()
        central = CentralizedTagger(fresh_scenario(), PEER_DATA, TAGS)
        central.train()
        assert evaluate(local, TEST_ITEMS) <= evaluate(central, TEST_ITEMS) + 0.05

    def test_popularity_scores_constant(self):
        classifier = PopularityTagger(fresh_scenario(), PEER_DATA, TAGS)
        classifier.train()
        a = classifier.predict_scores(0, TEST_ITEMS[0][0])
        b = classifier.predict_scores(3, TEST_ITEMS[1][0])
        assert a == b
        assert max(a.values()) == pytest.approx(1.0)


class TestCollaborationValue:
    def test_p2p_beats_local_only(self):
        """The paper's core claim: collaboration recovers accuracy that
        isolated peers cannot reach."""
        local = LocalOnlyTagger(fresh_scenario(), PEER_DATA, TAGS)
        local.train()
        pace = PaceClassifier(fresh_scenario(), PEER_DATA, TAGS, PaceConfig(top_k=6))
        pace.train()
        assert evaluate(pace, TEST_ITEMS) >= evaluate(local, TEST_ITEMS) - 0.02

    def test_centralized_concentrates_load_p2p_spreads_it(self):
        """The scalability argument: the central server receives nearly all
        training traffic, while CEMPaR spreads uploads over super-peers."""
        central = CentralizedTagger(fresh_scenario(), PEER_DATA, TAGS)
        central.train()
        received = central.scenario.stats.per_peer_received
        total = sum(received.values())
        server_share = received[0] / total
        assert server_share > 0.95

        cempar = CemparClassifier(fresh_scenario(), PEER_DATA, TAGS)
        cempar.train()
        received = cempar.scenario.stats.per_peer_received
        total = sum(received.values())
        cempar_max_share = max(received.values()) / total
        assert cempar_max_share < server_share

    def test_pace_queries_free_centralized_queries_cost(self):
        """After training, PACE predictions are local; centralized ones pay
        a round trip per document — the usage-proportional cost."""
        queries = [
            (vector, 1 + (i % (NUM_PEERS - 1)))  # never the server itself
            for i, (vector, _, _) in enumerate(TEST_ITEMS[:10])
        ]
        central = CentralizedTagger(fresh_scenario(), PEER_DATA, TAGS)
        central.train()
        base = central.scenario.stats.total_bytes
        for vector, origin in queries:
            central.predict_scores(origin, vector)
        central_query_bytes = central.scenario.stats.total_bytes - base

        pace = PaceClassifier(fresh_scenario(), PEER_DATA, TAGS)
        pace.train()
        base = pace.scenario.stats.total_bytes
        for vector, origin in queries:
            pace.predict_scores(origin, vector)
        pace_query_bytes = pace.scenario.stats.total_bytes - base

        assert pace_query_bytes == 0
        assert central_query_bytes > 0
