"""The Porter stemming algorithm (Porter, 1980), implemented from scratch.

The paper normalizes words "using the porter stemming algorithm to remove the
commoner morphological and inflexional endings (English)".  This is a faithful
implementation of the original algorithm as published in *Program* 14(3),
including all five steps and the measure/vowel/double-consonant conditions.

The canonical test pairs (``caresses -> caress``, ``ponies -> poni``,
``relational -> relat``, ...) from Porter's paper are exercised in the test
suite.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


class PorterStemmer:
    """Stateless Porter stemmer; use :meth:`stem` or module-level :func:`stem`."""

    # ------------------------------------------------------------------
    # Condition helpers.  All operate on the stem (word minus candidate
    # suffix) using the original paper's definitions.
    # ------------------------------------------------------------------

    @staticmethod
    def _is_consonant(word: str, i: int) -> bool:
        """True if ``word[i]`` is a consonant in Porter's sense.

        ``y`` is a consonant when at the start or when following a vowel-like
        position; concretely, ``y`` after a consonant is a vowel.
        """
        char = word[i]
        if char in _VOWELS:
            return False
        if char == "y":
            if i == 0:
                return True
            return not PorterStemmer._is_consonant(word, i - 1)
        return True

    @classmethod
    def _measure(cls, stem_: str) -> int:
        """Porter's *m*: the number of VC sequences in ``stem_``.

        A word has form ``[C](VC)^m[V]`` — ``m`` counts vowel-consonant
        alternations after the optional leading consonant run.
        """
        m = 0
        i = 0
        n = len(stem_)
        # Skip initial consonant run.
        while i < n and cls._is_consonant(stem_, i):
            i += 1
        while i < n:
            # Vowel run.
            while i < n and not cls._is_consonant(stem_, i):
                i += 1
            if i >= n:
                break
            # Consonant run -> one VC sequence completed.
            while i < n and cls._is_consonant(stem_, i):
                i += 1
            m += 1
        return m

    @classmethod
    def _contains_vowel(cls, stem_: str) -> bool:
        return any(not cls._is_consonant(stem_, i) for i in range(len(stem_)))

    @classmethod
    def _ends_double_consonant(cls, word: str) -> bool:
        if len(word) < 2:
            return False
        if word[-1] != word[-2]:
            return False
        return cls._is_consonant(word, len(word) - 1)

    @classmethod
    def _ends_cvc(cls, word: str) -> bool:
        """True if word ends consonant-vowel-consonant, last not w/x/y.

        Used by steps 1b and 5b to decide whether to restore a final 'e'.
        """
        if len(word) < 3:
            return False
        if not cls._is_consonant(word, len(word) - 3):
            return False
        if cls._is_consonant(word, len(word) - 2):
            return False
        if not cls._is_consonant(word, len(word) - 1):
            return False
        return word[-1] not in "wxy"

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    @classmethod
    def _step1a(cls, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    @classmethod
    def _step1b(cls, word: str) -> str:
        if word.endswith("eed"):
            stem_ = word[:-3]
            if cls._measure(stem_) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed"):
            stem_ = word[:-2]
            if cls._contains_vowel(stem_):
                word = stem_
                flag = True
        elif word.endswith("ing"):
            stem_ = word[:-3]
            if cls._contains_vowel(stem_):
                word = stem_
                flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if cls._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if cls._measure(word) == 1 and cls._ends_cvc(word):
                return word + "e"
        return word

    @classmethod
    def _step1c(cls, word: str) -> str:
        if word.endswith("y") and cls._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_SUFFIXES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    @classmethod
    def _step2(cls, word: str) -> str:
        for suffix, replacement in cls._STEP2_SUFFIXES:
            if word.endswith(suffix):
                stem_ = word[: -len(suffix)]
                if cls._measure(stem_) > 0:
                    return stem_ + replacement
                return word
        return word

    _STEP3_SUFFIXES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    @classmethod
    def _step3(cls, word: str) -> str:
        for suffix, replacement in cls._STEP3_SUFFIXES:
            if word.endswith(suffix):
                stem_ = word[: -len(suffix)]
                if cls._measure(stem_) > 0:
                    return stem_ + replacement
                return word
        return word

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    @classmethod
    def _step4(cls, word: str) -> str:
        for suffix in cls._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem_ = word[: -len(suffix)]
                if cls._measure(stem_) > 1:
                    return stem_
                return word
        if word.endswith("ion"):
            stem_ = word[:-3]
            if cls._measure(stem_) > 1 and stem_ and stem_[-1] in "st":
                return stem_
        return word

    @classmethod
    def _step5a(cls, word: str) -> str:
        if word.endswith("e"):
            stem_ = word[:-1]
            m = cls._measure(stem_)
            if m > 1:
                return stem_
            if m == 1 and not cls._ends_cvc(stem_):
                return stem_
        return word

    @classmethod
    def _step5b(cls, word: str) -> str:
        if (
            word.endswith("ll")
            and cls._measure(word) > 1
        ):
            return word[:-1]
        return word

    # ------------------------------------------------------------------

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (expects lowercase input)."""
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word


#: module-level convenience: the default :class:`PorterStemmer`'s ``stem``
stem = PorterStemmer().stem
