"""Tests for metadata store, library, tag cloud, suggestions, and policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.library import Library
from repro.core.metadata import TagMetadataStore, TagSource
from repro.core.multilabel import FixedThreshold, TopKPolicy
from repro.core.suggestions import Suggestion, SuggestionEngine
from repro.core.tagcloud import TagCloud
from repro.errors import ConfigurationError


class TestThresholdPolicies:
    SCORES = {"a": 0.9, "b": 0.6, "c": 0.2}

    def test_fixed_threshold(self):
        assert FixedThreshold(0.5).assign(self.SCORES) == {"a", "b"}

    def test_fixed_threshold_fallback(self):
        assert FixedThreshold(0.99).assign(self.SCORES) == {"a"}

    def test_fixed_threshold_empty_scores(self):
        assert FixedThreshold(0.5).assign({}) == frozenset()

    def test_fixed_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            FixedThreshold(1.5)

    def test_top_k(self):
        assert TopKPolicy(k=2).assign(self.SCORES) == {"a", "b"}

    def test_top_k_floor(self):
        assert TopKPolicy(k=3, floor=0.5).assign(self.SCORES) == {"a", "b"}

    def test_top_k_validation(self):
        with pytest.raises(ConfigurationError):
            TopKPolicy(k=0)
        with pytest.raises(ConfigurationError):
            TopKPolicy(k=1, floor=2.0)

    def test_top_k_deterministic_tie_break(self):
        scores = {"z": 0.5, "a": 0.5, "m": 0.5}
        assert TopKPolicy(k=2).assign(scores) == {"a", "m"}


class TestMetadataStore:
    def make(self):
        store = TagMetadataStore()
        store.assign(1, "music", TagSource.MANUAL)
        store.assign(1, "jazz", TagSource.AUTO, confidence=0.7)
        store.assign(2, "music", TagSource.AUTO, confidence=0.4)
        return store

    def test_tags_of(self):
        store = self.make()
        assert store.tags_of(1) == {"music", "jazz"}
        assert store.tags_of(99) == frozenset()

    def test_confidence_filter(self):
        store = self.make()
        assert store.tags_of(1, min_confidence=0.9) == {"music"}

    def test_documents_with(self):
        store = self.make()
        assert store.documents_with("music") == [1, 2]
        assert store.documents_with("music", min_confidence=0.5) == [1]

    def test_remove(self):
        store = self.make()
        assert store.remove(1, "jazz")
        assert not store.remove(1, "jazz")
        assert store.tags_of(1) == {"music"}

    def test_remove_last_tag_drops_document(self):
        store = TagMetadataStore()
        store.assign(5, "only")
        store.remove(5, "only")
        assert 5 not in store

    def test_replace(self):
        store = self.make()
        store.replace(1, {"rock": 1.0}, source=TagSource.REFINED)
        assert store.tags_of(1) == {"rock"}
        assert store.records_of(1)[0].source == TagSource.REFINED

    def test_all_tags_sorted(self):
        assert self.make().all_tags() == ["jazz", "music"]

    def test_iter_assignments(self):
        pairs = list(self.make().iter_assignments())
        assert len(pairs) == 3
        assert pairs[0][0] == 1

    def test_persistence_roundtrip(self, tmp_path):
        store = self.make()
        path = tmp_path / "tags.json"
        store.save(path)
        loaded = TagMetadataStore.load(path)
        assert loaded.tags_of(1) == store.tags_of(1)
        assert loaded.records_of(2)[0].confidence == pytest.approx(0.4)
        assert loaded.records_of(1)[0].source in (TagSource.MANUAL, TagSource.AUTO)

    def test_assign_many(self):
        store = TagMetadataStore()
        store.assign_many(7, {"a": 0.9, "b": 0.8}, source=TagSource.AUTO)
        assert store.tags_of(7) == {"a", "b"}


class TestLibrary:
    def make(self):
        store = TagMetadataStore()
        store.assign(1, "music", TagSource.MANUAL)
        store.assign(1, "jazz", TagSource.MANUAL)
        store.assign(2, "music", TagSource.AUTO, confidence=0.6)
        store.assign(3, "travel", TagSource.AUTO, confidence=0.3)
        return Library(store)

    def test_browse_by_tag(self):
        library = self.make()
        assert library.browse_by_tag("music") == [1, 2]

    def test_search_all_of(self):
        assert self.make().search(all_of=["music", "jazz"]) == [1]

    def test_search_any_of(self):
        assert self.make().search(any_of=["jazz", "travel"]) == [1, 3]

    def test_search_none_of(self):
        assert self.make().search(any_of=["music"], none_of=["jazz"]) == [2]

    def test_search_confidence(self):
        assert self.make().search(any_of=["travel"], min_confidence=0.5) == []

    def test_search_tag_names(self):
        assert self.make().search_tag_names("mus") == ["music"]
        assert self.make().search_tag_names("MUS") == ["music"]

    def test_tag_frequencies(self):
        assert self.make().tag_frequencies()["music"] == 2

    def test_summary(self):
        assert "documents=3" in self.make().summary()


class TestTagCloud:
    def two_cluster_sets(self):
        # Cluster 1: {python, linux, code}; cluster 2: {travel, photo, maps};
        # "navigation" bridges both — the Fig. 4 shape.
        return (
            [["python", "linux"], ["python", "code"], ["linux", "code"]] * 3
            + [["travel", "photo"], ["travel", "maps"], ["photo", "maps"]] * 3
            + [["code", "navigation"], ["maps", "navigation"]]
        )

    def test_frequencies(self):
        cloud = TagCloud([["a", "b"], ["a"]])
        assert cloud.frequencies() == {"a": 2, "b": 1}

    def test_cooccurrence_symmetric(self):
        cloud = TagCloud([["a", "b"], ["b", "a"], ["a", "c"]])
        assert cloud.cooccurrence("a", "b") == 2
        assert cloud.cooccurrence("b", "a") == 2
        assert cloud.cooccurrence("a", "zzz") == 0

    def test_duplicate_tags_in_one_doc_count_once(self):
        cloud = TagCloud([["a", "a", "b"]])
        assert cloud.frequencies()["a"] == 1

    def test_font_size_monotone_in_frequency(self):
        cloud = TagCloud([["common"]] * 10 + [["rare"]])
        assert cloud.font_size("common") > cloud.font_size("rare")
        assert cloud.font_size("unknown") == 0

    @pytest.mark.parametrize("buckets", [1, 2, 3, 5, 7])
    def test_font_size_buckets_tied_frequencies_by_rank(self, buckets):
        """Every tag's bucket is the definition's: its rank is the count of
        strictly rarer tags, so tied tags share one bucket."""
        frequencies = {"a": 1, "b": 1, "c": 1, "d": 2, "e": 2, "f": 4,
                       "g": 4, "h": 4, "i": 4, "j": 9}
        cloud = TagCloud(
            [[tag] for tag, count in frequencies.items() for _ in range(count)]
        )
        counts = sorted(frequencies.values())
        for tag, count in frequencies.items():
            slow = 1 + counts.index(count) * buckets // len(counts)
            assert cloud.font_size(tag, buckets=buckets) == min(buckets, slow)
        assert [entry.font_size for entry in cloud.entries()] == [
            cloud.font_size(tag) for tag in sorted(frequencies)
        ]

    @given(
        tag_sets=st.lists(
            st.lists(st.sampled_from("abcdefghijkl"), min_size=1, max_size=4),
            min_size=1, max_size=30,
        ),
        buckets=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_font_size_is_the_rank_definition_on_any_cloud(
        self, tag_sets, buckets
    ):
        """The bucket of every tag of any cloud is the one the definition
        gives: the index of its frequency in the sorted frequencies."""
        cloud = TagCloud(tag_sets)
        counts = sorted(cloud.frequencies().values())
        for tag, count in cloud.frequencies().items():
            slow = 1 + counts.index(count) * buckets // len(counts)
            assert cloud.font_size(tag, buckets=buckets) == min(buckets, slow)

    def test_two_communities_detected(self):
        cloud = TagCloud(self.two_cluster_sets())
        communities = cloud.communities()
        assert len(communities) >= 2
        largest_two = sorted(communities, key=len, reverse=True)[:2]
        assert {"python", "linux", "code"} <= (largest_two[0] | largest_two[1])
        assert {"travel", "photo", "maps"} <= (largest_two[0] | largest_two[1])

    def test_bridge_tag_found(self):
        cloud = TagCloud(self.two_cluster_sets())
        assert "navigation" in cloud.bridge_tags(top=2)

    def test_no_bridges_in_single_cluster(self):
        cloud = TagCloud([["a", "b"], ["b", "c"], ["a", "c"]])
        assert cloud.bridge_tags() == []

    def test_entries_cover_all_tags(self):
        cloud = TagCloud(self.two_cluster_sets())
        entries = cloud.entries()
        assert {e.tag for e in entries} == set(cloud.frequencies())
        for entry in entries:
            assert 1 <= entry.font_size <= 5
            assert entry.community >= 0

    def test_empty_cloud(self):
        cloud = TagCloud([])
        assert cloud.frequencies() == {}
        assert cloud.communities() == []
        assert cloud.bridge_tags() == []

    def test_ascii_cloud_renders(self):
        cloud = TagCloud([["alpha", "beta"]] * 5)
        rendered = cloud.ascii_cloud()
        assert "(" in rendered

    @pytest.mark.parametrize("method, tag, name, value", [
        ("bridge_tags", None, "top", -1),
        ("bridge_tags", None, "top", 1.5),
        ("ascii_cloud", None, "max_tags", -1),
        ("ascii_cloud", None, "max_tags", 2.0),
        ("font_size", "python", "buckets", 0),
        ("font_size", "python", "buckets", -3),
        ("font_size", "python", "buckets", 2.5),
        ("font_size", "unknown", "buckets", 0),
    ])
    def test_a_bad_parameter_is_refused_by_name(self, method, tag, name, value):
        call = getattr(TagCloud(self.two_cluster_sets()), method)
        args = () if tag is None else (tag,)
        with pytest.raises(ConfigurationError, match=rf"^{name} must be"):
            call(*args, **{name: value})

    def test_the_smallest_parameters_are_admitted(self):
        cloud = TagCloud(self.two_cluster_sets())
        assert cloud.bridge_tags(top=0) == []
        assert cloud.ascii_cloud(max_tags=0) == ""
        assert {cloud.font_size(tag, buckets=1) for tag in cloud.frequencies()} == {1}


class _FakeClassifier:
    """Stand-in ranking classifier for suggestion tests."""

    trained = True

    def rank_tags(self, origin, vector):
        return [("jazz", 0.92), ("music", 0.55), ("travel", 0.10)]


class TestSuggestions:
    def engine(self):
        return SuggestionEngine(_FakeClassifier(), max_suggestions=10)

    def test_alphabetical_kept_then_struck(self):
        suggestions = self.engine().suggest(0, None, confidence_threshold=0.3)
        tags = [s.tag for s in suggestions]
        assert tags == ["jazz", "music", "travel"]
        assert not suggestions[0].struck_out
        assert suggestions[2].struck_out

    def test_confidence_slider_strikes_more(self):
        suggestions = self.engine().suggest(0, None, confidence_threshold=0.8)
        struck = [s.tag for s in suggestions if s.struck_out]
        assert set(struck) == {"music", "travel"}

    def test_font_buckets(self):
        suggestions = self.engine().suggest(0, None, confidence_threshold=0.0)
        by_tag = {s.tag: s for s in suggestions}
        assert by_tag["jazz"].font_size > by_tag["travel"].font_size
        assert 1 <= by_tag["travel"].font_size <= 5

    def test_render(self):
        suggestion = Suggestion(
            tag="jazz", confidence=0.9, font_size=5, struck_out=False
        )
        assert suggestion.render() == "JAZZ"
        struck = Suggestion(
            tag="travel", confidence=0.1, font_size=1, struck_out=True
        )
        assert struck.render() == "~~travel~~"

    def test_render_cloud(self):
        rendered = SuggestionEngine.render_cloud(
            self.engine().suggest(0, None, 0.3)
        )
        assert "~~travel~~" in rendered

    def test_top_tags(self):
        assert self.engine().top_tags(0, None, 2) == ["jazz", "music"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SuggestionEngine(_FakeClassifier(), max_suggestions=0)
        with pytest.raises(ConfigurationError):
            self.engine().suggest(0, None, confidence_threshold=2.0)
        with pytest.raises(ConfigurationError):
            self.engine().top_tags(0, None, 0)
