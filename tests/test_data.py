"""Tests for corpus types, the Delicious generator, splits, and loaders."""

import numpy as np
import pytest

from repro.data.corpus import Corpus, Document
from repro.data.delicious import DeliciousGenerator, GeneratorConfig
from repro.data.loaders import load_corpus, save_corpus
from repro.data.splits import per_user_split
from repro.errors import DataError


def doc(doc_id, tags, owner=0, text="some text"):
    return Document(doc_id=doc_id, text=text, tags=frozenset(tags), owner=owner)


class TestDocument:
    def test_with_tags(self):
        d = doc(1, {"a"})
        d2 = d.with_tags({"b", "c"})
        assert d2.tags == {"b", "c"}
        assert d2.doc_id == 1 and d2.text == d.text

    def test_untagged(self):
        assert doc(1, {"a", "b"}).untagged().tags == frozenset()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            doc(1, {"a"}).text = "mutate"


class TestCorpus:
    def make(self):
        return Corpus(
            [
                doc(0, {"a", "b"}, owner=0),
                doc(1, {"a"}, owner=0),
                doc(2, {"c"}, owner=1),
                doc(3, set(), owner=1),
            ]
        )

    def test_len_iter_getitem(self):
        corpus = self.make()
        assert len(corpus) == 4
        assert corpus[2].doc_id == 2
        assert sum(1 for _ in corpus) == 4

    def test_owners_and_documents_of(self):
        corpus = self.make()
        assert corpus.owners == [0, 1]
        assert len(corpus.documents_of(0)) == 2
        assert corpus.documents_of(99) == []

    def test_tag_universe_sorted(self):
        assert self.make().tag_universe() == ["a", "b", "c"]

    def test_tag_counts(self):
        counts = self.make().tag_counts()
        assert counts["a"] == 2 and counts["b"] == 1

    def test_mean_tags_per_document(self):
        assert self.make().mean_tags_per_document() == pytest.approx(1.0)

    def test_filter_tags(self):
        filtered = self.make().filter_tags({"a"})
        assert filtered.tag_universe() == ["a"]

    def test_min_tag_support(self):
        pruned = self.make().restrict_to_min_tag_support(2)
        assert pruned.tag_universe() == ["a"]

    def test_user_profile(self):
        profile = self.make().user_profile(0)
        assert profile.num_documents == 2
        assert profile.tag_counts()["a"] == 2

    def test_summary_string(self):
        assert "docs=4" in self.make().summary()


class TestGeneratorConfig:
    def test_defaults_valid(self):
        GeneratorConfig().validate()

    def test_invalid_configs(self):
        with pytest.raises(DataError):
            GeneratorConfig(num_users=0).validate()
        with pytest.raises(DataError):
            GeneratorConfig(num_tags=1).validate()
        with pytest.raises(DataError):
            GeneratorConfig(docs_per_user_range=(5, 2)).validate()
        with pytest.raises(DataError):
            GeneratorConfig(vocabulary_size=10).validate()
        with pytest.raises(DataError):
            GeneratorConfig(interest_concentration=0).validate()
        with pytest.raises(DataError):
            GeneratorConfig(within_group_bias=1.5).validate()
        with pytest.raises(DataError):
            GeneratorConfig(num_tag_groups=99).validate()

    # Each of these passed validate() and then failed partway through
    # generate() with an error that was not a DataError.
    @pytest.mark.parametrize("field, overrides", [
        # background words come from the first 50 ids: IndexError
        ("vocabulary_size", dict(vocabulary_size=30, num_tags=2,
                                 num_tag_groups=2, topic_words_per_tag=10)),
        # numpy's "low >= high"
        ("doc_length_range", dict(doc_length_range=(5, 3))),
        # numpy's "high <= 0"
        ("topic_words_per_tag", dict(topic_words_per_tag=0)),
    ])
    def test_configs_that_broke_generation_are_rejected(self, field, overrides):
        with pytest.raises(DataError, match=field):
            DeliciousGenerator(num_users=2, seed=0, **overrides).generate()

    def test_out_of_range_vocabulary_and_lengths_are_rejected(self):
        # _make_vocabulary would look for the 82,317,026th word forever
        GeneratorConfig(vocabulary_size=82_317_025).validate()
        with pytest.raises(DataError, match="vocabulary_size"):
            GeneratorConfig(vocabulary_size=82_317_026).validate()
        for lengths in [(0, 10), (1, 2 ** 32)]:  # an empty document; n >= 2**32
            with pytest.raises(DataError, match="doc_length_range"):
                GeneratorConfig(doc_length_range=lengths).validate()


class TestDeliciousGenerator:
    def test_reproducible(self):
        a = DeliciousGenerator(num_users=4, seed=7).generate()
        b = DeliciousGenerator(num_users=4, seed=7).generate()
        assert [d.text for d in a] == [d.text for d in b]
        assert [d.tags for d in a] == [d.tags for d in b]

    def test_different_seeds_differ(self):
        a = DeliciousGenerator(num_users=4, seed=1).generate()
        b = DeliciousGenerator(num_users=4, seed=2).generate()
        assert [d.text for d in a] != [d.text for d in b]

    def test_user_document_counts_in_range(self):
        gen = DeliciousGenerator(
            num_users=6, seed=0, docs_per_user_range=(5, 9)
        )
        corpus = gen.generate()
        for owner in corpus.owners:
            assert 5 <= len(corpus.documents_of(owner)) <= 9

    def test_every_document_tagged(self):
        corpus = DeliciousGenerator(num_users=4, seed=3).generate()
        for document in corpus:
            assert 1 <= len(document.tags) <= 5

    def test_tag_names_not_in_text(self):
        """The paper stresses tags need not occur in the document text."""
        gen = DeliciousGenerator(num_users=4, seed=5)
        corpus = gen.generate()
        for document in corpus:
            words = set(document.text.split())
            assert not (document.tags & words)

    def test_zipf_popularity_head_heavy(self):
        corpus = DeliciousGenerator(num_users=24, seed=1).generate()
        counts = corpus.tag_counts()
        gen_tags = DeliciousGenerator(num_users=24, seed=1).tags
        head = counts.get(gen_tags[0], 0)
        tail = counts.get(gen_tags[-1], 0)
        assert head > tail

    def test_topic_words_disjoint_across_tags(self):
        gen = DeliciousGenerator(num_users=2, seed=0)
        seen = set()
        for tag in gen.tags:
            words = set(gen._topic_words[tag])  # vocabulary ids generate() draws
            assert not (words & seen)
            seen |= words

    def test_bridge_tag_in_two_groups(self):
        gen = DeliciousGenerator(num_users=2, seed=0, bridge_tags=1)
        multi = [tag for tag in gen.tags if len(gen.groups_of(tag)) == 2]
        assert len(multi) == 1

    def test_non_iid_concentration(self):
        """Lower interest concentration -> users concentrate on fewer tags."""

        def mean_user_entropy(concentration):
            corpus = DeliciousGenerator(
                num_users=12,
                seed=0,
                interest_concentration=concentration,
                docs_per_user_range=(20, 20),
            ).generate()
            entropies = []
            for owner in corpus.owners:
                counts = corpus.user_profile(owner).tag_counts()
                total = sum(counts.values())
                probabilities = np.array([c / total for c in counts.values()])
                entropies.append(
                    -(probabilities * np.log(probabilities + 1e-12)).sum()
                )
            return float(np.mean(entropies))

        assert mean_user_entropy(0.05) < mean_user_entropy(50.0)


class TestSplits:
    def corpus(self):
        return DeliciousGenerator(
            num_users=5, seed=2, docs_per_user_range=(10, 10)
        ).generate()

    def test_per_user_split_every_user_trains(self):
        train, test = per_user_split(self.corpus(), 0.2, seed=0)
        assert set(train.owners) == set(self.corpus().owners)
        for owner in train.owners:
            assert len(train.documents_of(owner)) == 2  # 20% of 10

    def test_per_user_split_minimum_one(self):
        corpus = Corpus([doc(i, {"t"}, owner=i) for i in range(3)])
        train, _ = per_user_split(corpus, 0.2, seed=0)
        assert len(train) == 3  # one per user despite tiny shards

    def test_invalid_fraction(self):
        with pytest.raises(DataError):
            per_user_split(self.corpus(), 0.0)
        with pytest.raises(DataError):
            per_user_split(self.corpus(), 1.0)


class TestLoaders:
    def test_roundtrip(self, tmp_path):
        corpus = DeliciousGenerator(num_users=3, seed=4).generate()
        path = tmp_path / "corpus.jsonl"
        written = save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert written == len(corpus) == len(loaded)
        for original, restored in zip(corpus, loaded):
            assert original.doc_id == restored.doc_id
            assert original.tags == restored.tags
            assert original.text == restored.text
            assert original.owner == restored.owner

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "not json enough"}\n')
        with pytest.raises(DataError):
            load_corpus(path)

    def test_blank_lines_skipped(self, tmp_path):
        corpus = Corpus([doc(0, {"a"})])
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_corpus(path)) == 1
