"""Tests for the lexicon and vectorization pipeline."""

import dataclasses

import pytest

from repro.errors import VocabularyError
from repro.ml.sparse import SparseVector
from repro.text.lexicon import Lexicon, stable_word_id
from repro.text.sensitive import SensitiveWordFilter
from repro.text.vectorizer import (
    PreprocessingPipeline,
    TfidfTransformer,
    build_lexicon,
)


class TestStableWordId:
    def test_deterministic(self):
        assert stable_word_id("peer", 1000) == stable_word_id("peer", 1000)

    def test_in_range(self):
        for word in ("a", "tagging", "classification"):
            assert 0 <= stable_word_id(word, 128) < 128

    def test_different_words_usually_differ(self):
        ids = {stable_word_id(w, 2 ** 18) for w in ("peer", "tag", "doc", "net")}
        assert len(ids) == 4


class TestLexicon:
    def test_add_and_lookup(self):
        lex = Lexicon()
        ids = lex.add_document(["tag", "peer", "tag"])
        assert len(ids) == 3
        assert lex.id_of("tag") is not None
        assert lex.word_of(lex.id_of("tag")) == "tag"

    def test_document_frequency_counts_documents_not_tokens(self):
        lex = Lexicon()
        lex.add_document(["tag", "tag", "tag"])
        lex.add_document(["tag", "peer"])
        assert lex.document_frequency("tag") == 2
        assert lex.document_frequency("peer") == 1

    def test_frozen_lexicon_drops_unknown(self):
        lex = Lexicon()
        lex.add_document(["known"])
        lex.freeze()
        ids = lex.add_document(["known", "unknown"])
        assert len(ids) == 1
        assert "unknown" not in lex

    def test_prune_by_min_df(self):
        lex = Lexicon()
        lex.add_document(["common", "rare"])
        lex.add_document(["common"])
        pruned = lex.prune(min_df=2)
        assert "common" in pruned
        assert "rare" not in pruned

    def test_prune_by_max_df_fraction(self):
        lex = Lexicon()
        for i in range(10):
            tokens = ["boilerplate"] if i >= 5 else ["boilerplate", "unique"]
            lex.add_document(tokens)
        pruned = lex.prune(max_df_fraction=0.8)
        assert "boilerplate" not in pruned
        assert "unique" in pruned

    def test_prune_empty_raises(self):
        with pytest.raises(VocabularyError):
            Lexicon().prune()

    def test_word_of_out_of_range_raises(self):
        with pytest.raises(VocabularyError):
            Lexicon().word_of(0)


class TestBagOfWords:
    def test_counts_repeated_tokens(self):
        pipeline = PreprocessingPipeline(dimension=2 ** 16, normalize=False)
        v = pipeline.process("tag tag peer")
        tag_id = stable_word_id("tag", 2 ** 16)
        assert v[tag_id] == 2.0

    def test_sublinear_tf(self):
        pipeline = PreprocessingPipeline(
            dimension=2 ** 16, sublinear_tf=True, normalize=False
        )
        v = pipeline.process(" ".join(["tag"] * 10))
        tag_id = stable_word_id("tag", 2 ** 16)
        assert 1.0 < v[tag_id] < 10.0

    def test_empty_tokens(self):
        assert PreprocessingPipeline().process("the a of 42").nnz == 0

    def test_bad_dimension_raises(self):
        with pytest.raises(VocabularyError):
            PreprocessingPipeline(dimension=0)


class TestTfidf:
    def test_transform_before_fit_raises(self):
        with pytest.raises(VocabularyError):
            TfidfTransformer().transform({1: 1.0})

    def test_rare_features_upweighted(self):
        common = SparseVector({1: 1.0})
        rare = SparseVector({2: 1.0})
        both = SparseVector({1: 1.0, 2: 1.0})
        transformer = TfidfTransformer().fit([common, common, common, both])
        weighted = transformer.transform({1: 1, 2: 1})
        assert weighted[2] > weighted[1]
        assert list(weighted) == [1, 2]

    def test_normalized_output(self):
        t = TfidfTransformer().fit([SparseVector({1: 1.0, 2: 2.0})])
        out = SparseVector.from_weights(t.transform({1: 3, 2: 1}), normalize=True)
        assert out.norm() == pytest.approx(1.0)


class TestPipeline:
    def test_stop_words_removed(self):
        pipeline = PreprocessingPipeline()
        tokens = pipeline.tokens("the peer and the network")
        assert "the" not in tokens
        assert "and" not in tokens

    def test_stemming_applied(self):
        pipeline = PreprocessingPipeline()
        assert pipeline.tokens("tagging documents") == ["tag", "document"]

    def test_sensitive_words_never_vectorized(self):
        pipeline = PreprocessingPipeline(
            sensitive_filter=SensitiveWordFilter(["confidential"])
        )
        v_with = pipeline.process("confidential project report")
        v_without = pipeline.process("project report")
        assert v_with == v_without

    def test_process_deterministic_across_instances(self):
        a = PreprocessingPipeline(dimension=2 ** 16)
        b = PreprocessingPipeline(dimension=2 ** 16)
        text = "peers collaboratively tag shared documents"
        assert a.process(text) == b.process(text)

    def test_process_many(self):
        pipeline = PreprocessingPipeline()
        vectors = pipeline.process_many(["first document", "second document"])
        assert len(vectors) == 2
        assert all(v.nnz > 0 for v in vectors)

    def test_build_lexicon(self):
        lex = build_lexicon(["tagging documents", "tagging peers"])
        assert "tag" in lex
        assert lex.num_documents == 2
        assert lex.document_frequency("tag") == 2


class TestPipelineTfidf:
    def test_fit_enables_tfidf(self):
        pipeline = PreprocessingPipeline(dimension=2 ** 16)
        assert not pipeline.uses_tfidf
        pipeline.fit_tfidf(["alpha beta gamma", "alpha beta", "alpha"])
        assert pipeline.uses_tfidf

    def test_tfidf_downweights_common_words(self):
        pipeline = PreprocessingPipeline(dimension=2 ** 16)
        pipeline.fit_tfidf(["common rare", "common", "common word", "common also"])
        vector = pipeline.process("common rare")
        common_id = stable_word_id("common", 2 ** 16)
        rare_id = stable_word_id("rare", 2 ** 16)
        assert vector[rare_id] > vector[common_id]

    def test_tfidf_output_normalized(self):
        pipeline = PreprocessingPipeline(dimension=2 ** 16)
        pipeline.fit_tfidf(["alpha beta gamma", "beta gamma delta"])
        assert pipeline.process("alpha beta").norm() == pytest.approx(1.0)

    def test_fit_on_empty_raises(self):
        with pytest.raises(VocabularyError):
            PreprocessingPipeline().fit_tfidf([])

    def test_unnormalized_variant(self):
        pipeline = PreprocessingPipeline(dimension=2 ** 16, normalize=False)
        pipeline.fit_tfidf(["a word here", "another word there"])
        vector = pipeline.process("word word word")
        assert vector.norm() != pytest.approx(1.0)


class TestPipelineSettings:
    SETTINGS = [
        ("dimension", 16),
        ("sublinear_tf", True),
        ("normalize", False),
        ("use_stop_words", False),
        ("min_token_length", 1),
        ("sensitive_filter", SensitiveWordFilter(["peer*"])),
    ]

    def test_settings_are_read_only_after_construction(self):
        pipeline = PreprocessingPipeline()
        before = pipeline.process("hello world network peers")
        for name, value in self.SETTINGS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pipeline, name, value)
        # nothing half-applied: the memo and the settings still agree
        assert pipeline.process("hello world network peers") == before

    def test_pipelines_compare_on_settings_only(self):
        assert PreprocessingPipeline() == PreprocessingPipeline()
        used = PreprocessingPipeline()
        used.process("peers tag shared documents")
        assert used == PreprocessingPipeline()
        assert hash(used) == hash(PreprocessingPipeline())
        for name, value in self.SETTINGS:
            assert PreprocessingPipeline(**{name: value}) != PreprocessingPipeline()
        assert PreprocessingPipeline(
            sensitive_filter=SensitiveWordFilter(["salar*", "budget"])
        ) == PreprocessingPipeline(
            sensitive_filter=SensitiveWordFilter(["budget", "salar*"])
        )


class TestSensitiveWordsAfterUse:
    def test_a_word_registered_after_use_is_dropped(self):
        pipeline = PreprocessingPipeline()
        salary = stable_word_id(pipeline.tokens("salary")[0], pipeline.dimension)
        assert salary in pipeline.process("salary budget")
        pipeline.sensitive_filter.add("salar*")
        assert salary not in pipeline.process("salary budget")
        assert salary not in pipeline.process("salaries")
        pipeline.sensitive_filter.remove("salar*")
        assert salary in pipeline.process("salary budget")

    def test_a_filter_shared_by_two_pipelines_reaches_both(self):
        shared = SensitiveWordFilter()
        first = PreprocessingPipeline(sensitive_filter=shared)
        second = PreprocessingPipeline(sensitive_filter=shared)
        budget = stable_word_id("budget", first.dimension)
        assert budget in first.process("budget") and budget in second.process("budget")
        shared.add("budget")
        assert budget not in first.process("budget")
        assert budget not in second.process("budget")
