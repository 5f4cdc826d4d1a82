"""Assorted edge coverage: visualization, the super-peer directory, the
metadata store and the event kernel's time order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import TagMetadataStore, TagSource
from repro.overlay.chord import ChordOverlay
from repro.overlay.superpeer import SuperPeerDirectory
from repro.sim.engine import Simulator
from repro.sim.visualize import ascii_summary, degree_statistics


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
