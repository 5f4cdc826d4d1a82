"""Failure injection: packet loss, crashed super-peers, offline servers.

These tests verify the systems *degrade* rather than break when the network
misbehaves — the fault-tolerance story of paper §1.1.
"""


from repro.baselines.centralized import CentralizedTagger
from repro.p2pclass.cempar import CemparClassifier, CemparConfig
from repro.p2pclass.nbagg import NBAggClassifier
from repro.p2pclass.pace import PaceClassifier, PaceConfig
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig

from tests.test_classifiers import NUM_PEERS, PEER_DATA, TAGS, TEST_ITEMS, evaluate


def lossy_scenario(drop_probability: float, seed: int = 0) -> Scenario:
    return Scenario(
        ScenarioConfig(
            num_peers=NUM_PEERS,
            shard=ShardSpec(num_peers=NUM_PEERS),
            drop_probability=drop_probability,
            seed=seed,
        )
    )


class TestPacketLoss:
    def test_pace_trains_through_moderate_loss(self):
        classifier = PaceClassifier(
            lossy_scenario(0.2), PEER_DATA, TAGS, PaceConfig()
        )
        classifier.train()
        # Some bundles were dropped, but every peer can still predict.
        assert classifier.scenario.stats.counters["messages_dropped"] > 0
        f1 = evaluate(classifier, TEST_ITEMS)
        assert f1 > 0.25

    def test_cempar_trains_through_moderate_loss(self):
        classifier = CemparClassifier(
            lossy_scenario(0.2, seed=1), PEER_DATA, TAGS, CemparConfig()
        )
        classifier.train()
        stats = classifier.scenario.stats
        assert stats.counters["messages_dropped"] > 0
        assert stats.counters["cempar_upload_lost"] > 0
        assert evaluate(classifier, TEST_ITEMS) > 0.25

    def test_total_loss_leaves_local_models_only(self):
        """With 100% loss nothing propagates; PACE falls back to each peer's
        own bundle (self-indexed without the network)."""
        classifier = PaceClassifier(
            lossy_scenario(1.0), PEER_DATA, TAGS, PaceConfig()
        )
        classifier.train()
        for address in range(NUM_PEERS):
            assert classifier.models_indexed_at(address) == 1  # self only
        scores = classifier.predict_scores(0, TEST_ITEMS[0][0])
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_loss_degrades_but_never_errors(self):
        f1_by_loss = {}
        for loss in (0.0, 0.5):
            classifier = NBAggClassifier(
                lossy_scenario(loss, seed=2), PEER_DATA, TAGS
            )
            classifier.train()
            f1_by_loss[loss] = evaluate(classifier, TEST_ITEMS)
        assert f1_by_loss[0.5] <= f1_by_loss[0.0] + 0.05


class TestCrashes:
    def test_cempar_superpeer_crash_between_train_and_query(self):
        scenario = Scenario(
            ScenarioConfig(
                num_peers=NUM_PEERS, shard=ShardSpec(num_peers=NUM_PEERS)
            )
        )
        classifier = CemparClassifier(scenario, PEER_DATA, TAGS, CemparConfig())
        classifier.train()
        # Crash a super-peer holding regional models.
        holder = next(iter(classifier._model_holder.values()))
        scenario.overlay.leave(holder)
        scenario.network.set_down(holder)
        scenario.overlay.stabilize()
        origin = 0 if holder != 0 else 1
        scores = classifier.predict_scores(origin, TEST_ITEMS[0][0])
        # Tags held elsewhere still answer; the crashed region abstains.
        assert set(scores) == set(TAGS)
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_central_server_down_fails_closed(self):
        scenario = Scenario(
            ScenarioConfig(
                num_peers=NUM_PEERS, shard=ShardSpec(num_peers=NUM_PEERS)
            )
        )
        classifier = CentralizedTagger(scenario, PEER_DATA, TAGS)
        classifier.train()
        scenario.network.set_down(0)  # the server
        scores = classifier.predict_scores(3, TEST_ITEMS[0][0])
        assert all(s == 0.0 for s in scores.values())
        assert scenario.stats.counters["central_query_lost"] == 1

    def test_all_but_one_peer_crashes(self):
        scenario = Scenario(
            ScenarioConfig(
                num_peers=NUM_PEERS, shard=ShardSpec(num_peers=NUM_PEERS)
            )
        )
        classifier = PaceClassifier(scenario, PEER_DATA, TAGS, PaceConfig())
        classifier.train()
        for address in range(1, NUM_PEERS):
            scenario.overlay.leave(address)
            scenario.network.set_down(address)
        # The survivor keeps its full index and predicts locally.
        scores = classifier.predict_scores(0, TEST_ITEMS[0][0])
        assert any(s > 0.0 for s in scores.values())
