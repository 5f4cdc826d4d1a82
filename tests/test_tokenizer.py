"""Tests for repro.text.tokenizer."""

from repro.text.tokenizer import tokenize


class TestTokenize:
    def test_basic_lowercasing_and_splitting(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_punctuation_removed(self):
        assert tokenize("tags, files; docs!") == ["tags", "files", "docs"]

    def test_numbers_dropped(self):
        assert tokenize("version 42 released in 2010") == [
            "version",
            "released",
            "in",
        ]

    def test_single_letters_dropped_by_default(self):
        assert tokenize("a b c word") == ["word"]

    def test_min_length_configurable(self):
        assert tokenize("a b word", min_length=1) == ["a", "b", "word"]

    def test_possessives_collapsed(self):
        assert tokenize("the user's documents") == ["the", "user", "documents"]

    def test_hyphenated_words_split(self):
        assert tokenize("peer-to-peer") == ["peer", "to", "peer"]

    def test_empty_and_none_like_inputs(self):
        assert tokenize("") == []
        assert tokenize("   \n\t  ") == []
        assert tokenize("!!!???") == []

    def test_max_length_filter(self):
        long_word = "x" * 50
        assert tokenize(f"short {long_word}") == ["short"]

    def test_unicode_text_keeps_ascii_words(self):
        tokens = tokenize("café naïve documents")
        assert "documents" in tokens
