"""Tests for data distribution, scenarios, and visualization helpers."""

import numpy as np
import pytest

from repro.data.delicious import DeliciousGenerator
from repro.errors import ConfigurationError, DataError
from repro.sim.distribution import DataDistributor, ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.visualize import (
    ascii_summary,
    connectivity_report,
    degree_statistics,
    overlay_to_graph,
)


def corpus(num_users=6, seed=0):
    return DeliciousGenerator(
        num_users=num_users, seed=seed, docs_per_user_range=(10, 10)
    ).generate()


class TestShardSpec:
    def test_valid(self):
        ShardSpec(num_peers=4).validate()

    def test_invalid(self):
        with pytest.raises(DataError):
            ShardSpec(num_peers=0).validate()
        with pytest.raises(DataError):
            ShardSpec(num_peers=2, size_distribution="weird").validate()
        with pytest.raises(DataError):
            ShardSpec(num_peers=2, class_distribution="weird").validate()
        with pytest.raises(DataError):
            ShardSpec(num_peers=2, dirichlet_alpha=0).validate()


class TestDataDistributor:
    def test_every_document_assigned_once(self):
        data = corpus()
        sharded = DataDistributor(ShardSpec(num_peers=8)).distribute(data)
        assert len(sharded) == len(data)
        assert {d.doc_id for d in sharded} == {d.doc_id for d in data}

    def test_owners_are_peer_indices(self):
        sharded = DataDistributor(ShardSpec(num_peers=8)).distribute(corpus())
        assert set(sharded.owners) <= set(range(8))

    def test_every_peer_nonempty(self):
        sharded = DataDistributor(ShardSpec(num_peers=10)).distribute(corpus())
        assert len(sharded.owners) == 10

    def test_uniform_sizes_balanced(self):
        sharded = DataDistributor(ShardSpec(num_peers=6)).distribute(corpus())
        sizes = [len(sharded.documents_of(o)) for o in sharded.owners]
        assert max(sizes) - min(sizes) <= 3

    def test_zipf_sizes_skewed(self):
        spec = ShardSpec(
            num_peers=10, size_distribution="zipf", zipf_exponent=1.5, seed=1
        )
        sharded = DataDistributor(spec).distribute(corpus(num_users=12))
        sizes = sorted(len(sharded.documents_of(o)) for o in sharded.owners)
        assert sizes[-1] >= 3 * max(1, sizes[0])

    def test_dirichlet_class_skew(self):
        """Smaller alpha concentrates each peer's tags more."""

        def mean_peer_tag_entropy(alpha):
            spec = ShardSpec(
                num_peers=6,
                class_distribution="dirichlet",
                dirichlet_alpha=alpha,
                seed=0,
            )
            sharded = DataDistributor(spec).distribute(corpus(num_users=10, seed=3))
            entropies = []
            for owner in sharded.owners:
                counts = sharded.user_profile(owner).tag_counts()
                total = sum(counts.values())
                p = np.array([c / total for c in counts.values()])
                entropies.append(-(p * np.log(p + 1e-12)).sum())
            return float(np.mean(entropies))

        assert mean_peer_tag_entropy(0.05) < mean_peer_tag_entropy(100.0)

    def test_reproducible(self):
        spec = ShardSpec(num_peers=5, seed=9)
        a = DataDistributor(spec).distribute(corpus())
        b = DataDistributor(spec).distribute(corpus())
        assert [d.owner for d in a] == [d.owner for d in b]

    def test_too_few_documents(self):
        small = corpus(num_users=1)
        with pytest.raises(DataError):
            DataDistributor(ShardSpec(num_peers=1000)).distribute(small)

    def test_empty_corpus(self):
        from repro.data.corpus import Corpus

        with pytest.raises(DataError):
            DataDistributor(ShardSpec(num_peers=2)).distribute(Corpus([]))


class TestScenario:
    def test_build_defaults(self):
        scenario = Scenario(
            ScenarioConfig(num_peers=16, shard=ShardSpec(num_peers=16))
        )
        assert len(scenario.overlay.members()) == 16
        assert scenario.live_peers() == list(range(16))

    def test_mismatched_shard_peers_rejected(self):
        config = ScenarioConfig(num_peers=8, shard=ShardSpec(num_peers=4))
        with pytest.raises(ConfigurationError):
            Scenario(config)

    def test_each_overlay_type_builds(self):
        for overlay in ("chord", "kademlia", "unstructured"):
            config = ScenarioConfig(
                num_peers=8, overlay=overlay, shard=ShardSpec(num_peers=8)
            )
            scenario = Scenario(config)
            assert scenario.overlay.name == overlay

    def test_churn_changes_membership(self):
        config = ScenarioConfig(
            num_peers=16,
            churn="exponential",
            mean_session=10.0,
            mean_downtime=20.0,
            shard=ShardSpec(num_peers=16),
            seed=5,
        )
        scenario = Scenario(config)
        scenario.start_churn()
        scenario.run(duration=60.0)
        assert scenario.stats.counters["churn_leaves"] > 0
        assert len(scenario.live_peers()) < 16

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            Scenario(ScenarioConfig(num_peers=0, shard=ShardSpec(num_peers=1)))
        with pytest.raises(ConfigurationError):
            Scenario(
                ScenarioConfig(
                    num_peers=2, overlay="hypercube", shard=ShardSpec(num_peers=2)
                )
            )

    @pytest.mark.parametrize("field, value", [
        ("stabilize_interval", 0.0),
        ("stabilize_interval", -1.0),
        ("base_latency", -0.05),
        ("bandwidth", 0.0),
        ("drop_probability", 1.5),
    ])
    def test_configs_that_hang_or_crash_a_run_are_rejected(self, field, value):
        config = ScenarioConfig(
            num_peers=4, churn="exponential", shard=ShardSpec(num_peers=4),
            **{field: value},
        )
        with pytest.raises(ConfigurationError, match=field):
            config.validate()


class TestVisualize:
    def overlay(self):
        from repro.overlay.unstructured import UnstructuredOverlay

        overlay = UnstructuredOverlay(degree=3, seed=0)
        for address in range(12):
            overlay.join(address)
        return overlay

    def test_graph_export(self):
        graph = overlay_to_graph(self.overlay())
        assert graph.number_of_nodes() == 12
        assert graph.number_of_edges() > 0

    def test_degree_statistics(self):
        stats = degree_statistics(self.overlay())
        assert stats["nodes"] == 12
        assert stats["mean_degree"] >= 2

    def test_connectivity(self):
        report = connectivity_report(self.overlay())
        assert report["connected"] == 1.0

    def test_ascii_and_table(self):
        overlay = self.overlay()
        assert "unstructured" in ascii_summary(overlay)

    def test_empty_overlay(self):
        from repro.overlay.unstructured import UnstructuredOverlay

        empty = UnstructuredOverlay()
        assert degree_statistics(empty)["nodes"] == 0
        assert connectivity_report(empty)["components"] == 0.0
