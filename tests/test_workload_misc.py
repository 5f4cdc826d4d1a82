"""Tests for the query workload generator plus assorted edge coverage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import TagMetadataStore, TagSource
from repro.errors import ConfigurationError
from repro.overlay.chord import ChordOverlay
from repro.overlay.superpeer import SuperPeerDirectory
from repro.sim.engine import Simulator
from repro.sim.visualize import ascii_summary, degree_statistics
from repro.sim.workload import QueryWorkload, WorkloadConfig


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(peers=[]).validate()
        with pytest.raises(ConfigurationError):
            WorkloadConfig(peers=[0], rate_per_peer=0).validate()
        with pytest.raises(ConfigurationError):
            WorkloadConfig(peers=[0], duration=0).validate()


class TestQueryWorkload:
    def test_deterministic(self):
        config = WorkloadConfig(peers=[0, 1, 2], seed=5)
        a = QueryWorkload(config).generate()
        b = QueryWorkload(config).generate()
        assert a == b

    def test_events_sorted_and_bounded(self):
        events = QueryWorkload(
            WorkloadConfig(peers=[0, 1], duration=100.0, rate_per_peer=0.2)
        ).generate()
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 < t < 100.0 for t in times)

    def test_rate_matches_expectation(self):
        config = WorkloadConfig(
            peers=list(range(10)), rate_per_peer=0.1, duration=1000.0, seed=0
        )
        workload = QueryWorkload(config)
        events = workload.generate()
        assert len(events) == pytest.approx(workload.expected_total(), rel=0.15)

    def test_doc_indices_sequential_per_peer(self):
        events = QueryWorkload(
            WorkloadConfig(peers=[7], duration=200.0, rate_per_peer=0.1, seed=1)
        ).generate()
        indices = [e.doc_index for e in events]
        assert indices == list(range(len(indices)))

    def test_diurnal_thins_traffic(self):
        base = WorkloadConfig(
            peers=list(range(5)), rate_per_peer=0.2, duration=2000.0, seed=3
        )
        flat = len(QueryWorkload(base).generate())
        diurnal_config = WorkloadConfig(
            peers=list(range(5)), rate_per_peer=0.2, duration=2000.0,
            seed=3, diurnal=True, diurnal_period=500.0,
        )
        modulated = len(QueryWorkload(diurnal_config).generate())
        assert modulated < flat

    def test_replay_direct(self):
        events = QueryWorkload(
            WorkloadConfig(peers=[0, 1], duration=50.0, rate_per_peer=0.2)
        ).generate()
        seen = []
        count = QueryWorkload(
            WorkloadConfig(peers=[0], duration=1.0)
        ).replay(events, seen.append)
        assert count == len(events) == len(seen)

    def test_replay_through_simulator(self):
        simulator = Simulator()
        events = QueryWorkload(
            WorkloadConfig(peers=[0], duration=30.0, rate_per_peer=0.3, seed=2)
        ).generate()
        times = []
        QueryWorkload(WorkloadConfig(peers=[0], duration=1.0)).replay(
            events, lambda e: times.append(simulator.now), simulator=simulator
        )
        assert len(times) == len(events)
        assert times == sorted(times)
        assert simulator.now == pytest.approx(events[-1].time)


class TestMiscEdgeCoverage:
    def test_visualize_works_on_chord(self):
        overlay = ChordOverlay()
        for address in range(12):
            overlay.join(address)
        overlay.stabilize()
        stats = degree_statistics(overlay)
        assert stats["nodes"] == 12
        assert "chord" in ascii_summary(overlay)

    def test_superpeer_label_stable(self):
        assert SuperPeerDirectory.label("music", 2) == "sp|music|2"

    def test_metadata_clear(self):
        store = TagMetadataStore()
        store.assign(1, "a")
        store.clear(1)
        assert 1 not in store
        store.clear(999)  # no-op


doc_tags = st.dictionaries(
    st.integers(min_value=0, max_value=20),
    st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3),
    min_size=1,
    max_size=10,
)


@given(assignments=doc_tags)
@settings(max_examples=40)
def test_metadata_store_roundtrip_property(tmp_path_factory, assignments):
    store = TagMetadataStore()
    for doc_id, tags in assignments.items():
        for tag in tags:
            store.assign(doc_id, tag, TagSource.AUTO, confidence=0.5)
    path = tmp_path_factory.mktemp("meta") / "tags.json"
    store.save(path)
    loaded = TagMetadataStore.load(path)
    assert loaded.documents() == store.documents()
    for doc_id in store.documents():
        assert loaded.tags_of(doc_id) == store.tags_of(doc_id)


@given(
    st.lists(
        st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=30
    )
)
def test_simulator_executes_in_sorted_time_order(delays):
    simulator = Simulator()
    fired = []
    for delay in delays:
        simulator.schedule(delay, lambda d=delay: fired.append(simulator.now))
    simulator.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
