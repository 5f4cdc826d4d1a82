"""Tests for stop-word and sensitive-word filtering."""

from repro.text.sensitive import SensitiveWordFilter
from repro.text.stopwords import ENGLISH_STOP_WORDS
from repro.text.vectorizer import PreprocessingPipeline


class TestStopWords:
    def test_paper_examples_are_stop_words(self):
        # The paper names "a, for, and, not" explicitly.
        for word in ("a", "for", "and", "not"):
            assert word in ENGLISH_STOP_WORDS

    def test_content_words_are_not_stop_words(self):
        for word in ("document", "tagging", "peer", "network"):
            assert word not in ENGLISH_STOP_WORDS

    def test_remove_preserves_order(self):
        tokens = PreprocessingPipeline().tokens("the peer and the tag")
        assert tokens == ["peer", "tag"]

    def test_list_is_lowercase(self):
        assert all(word == word.lower() for word in ENGLISH_STOP_WORDS)

    def test_list_reasonably_sized(self):
        assert 150 <= len(ENGLISH_STOP_WORDS) <= 500


class TestSensitiveWordFilter:
    def test_exact_word_filtered(self):
        f = SensitiveWordFilter(["secret"])
        assert f.filter(["a", "secret", "plan"]) == ["a", "plan"]

    def test_prefix_pattern(self):
        f = SensitiveWordFilter(["salar*"])
        assert f.is_sensitive("salary")
        assert f.is_sensitive("salaries")
        assert not f.is_sensitive("salad")

    def test_case_normalized_on_add(self):
        f = SensitiveWordFilter(["SeCrEt"])
        assert f.is_sensitive("secret")

    def test_add_and_remove(self):
        f = SensitiveWordFilter()
        f.add("hidden")
        assert f.is_sensitive("hidden")
        f.remove("hidden")
        assert not f.is_sensitive("hidden")

    def test_remove_prefix_pattern(self):
        f = SensitiveWordFilter(["med*"])
        f.remove("med*")
        assert not f.is_sensitive("medical")

    def test_empty_and_blank_words_ignored(self):
        f = SensitiveWordFilter(["", "   "])
        assert len(f) == 0

    def test_bare_star_ignored(self):
        f = SensitiveWordFilter(["*"])
        assert len(f) == 0
        assert not f.is_sensitive("anything")

    def test_len_counts_both_kinds(self):
        f = SensitiveWordFilter(["a-word", "pre*"])
        assert len(f) == 2

    def test_duplicate_prefix_not_double_counted(self):
        f = SensitiveWordFilter(["pre*", "pre*"])
        assert len(f) == 1
