"""Synthetic Delicious-like corpus generator.

Substitute for the Wetzker et al. (2008) del.icio.us crawl the paper
demonstrates on (not redistributable; no network access here).  The generator
reproduces the statistics the experiments actually depend on:

- **power-law tag popularity** (Zipf over the tag universe, as in social
  bookmarking data);
- **multi-label documents** (1..max tags per document);
- **per-user holdings of 50-200 documents** (the paper's spam filter range;
  configurable downward for fast simulations);
- **tag-correlated user interests** — a user's documents concentrate on a few
  tags (Dirichlet-controlled non-IIDness, the knob experiment E5 sweeps);
- **tag co-occurrence structure** — tags belong to concept groups; documents
  mostly combine tags within a group, and designated *bridge tags* join two
  groups (this regenerates the Fig. 4 tag-cloud shape);
- **tags disjoint from document words** — tag names never appear verbatim in
  the text (the paper stresses tags "may not necessarily be contained within
  the documents"), so indexing the words cannot produce the tags.

Document text is drawn from per-tag topic word distributions over a
synthetic vocabulary plus a background distribution, i.e. a small mixture-of-
multinomials language model.  That gives classifiers a learnable but noisy
signal — the same reason SVMs work on real bookmark text.

Every draw but a user's ``dirichlet`` interest and document count and the
vocabulary's ``permutation`` is made by :class:`_Pcg64Replay`: numpy's own
scalar ``random()``, ``integers(n)``, ``poisson(lam)`` and ``choice(k, p=p)``
replayed in plain Python over blocks of raw PCG64 words, one replay for the
vocabulary and one per user.  The stream is bit-identical to one numpy call
per draw; that generator is the oracle in ``tests/reference/scalar_corpus.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import length_hint
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.corpus import Corpus, Document
from repro.errors import DataError

# Plausible social-bookmarking tag names; extended synthetically when the
# configured universe is larger.
_TAG_NAME_POOL = [
    "programming", "python", "linux", "webdesign", "javascript", "security",
    "music", "photography", "travel", "recipes", "health", "finance",
    "science", "history", "politics", "sports", "gaming", "education",
    "art", "diy", "gardening", "parenting", "career", "productivity",
    "database", "networking", "hardware", "mobile", "cloud", "ai",
    "statistics", "visualization", "typography", "architecture", "economics",
    "psychology", "philosophy", "literature", "film", "cooking",
]

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
#: distinct pseudo-words :func:`_make_vocabulary` can spell (2-4 syllables)
_PSEUDO_WORDS = sum(
    (len(_CONSONANTS) * len(_VOWELS)) ** syllables for syllables in (2, 3, 4)
)
#: background words come from the first ``max(_BACKGROUND_HEAD_MIN,
#: vocabulary_size // 10)`` ids
_BACKGROUND_HEAD_MIN = 50

#: numpy's ``poisson(lam)`` is the multiplication method for ``lam`` below
#: this, PTRS at and above it; :meth:`_Pcg64Replay.poisson` replays the first
_POISSON_MULT_MAX = 10
#: raw words per block of the vocabulary's replay (~3.5 per pseudo-word)
_VOCABULARY_BLOCK = 4096

_MASK32 = 0xFFFFFFFF
_TWO_32 = 1 << 32
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53


class _Pcg64Replay:
    """``Generator.random()``, ``integers(n)``, ``poisson(lam)`` and
    ``choice(k, p=p)`` of a PCG64 ``rng``, replayed in plain Python over a
    block of its raw words.

    Each replays numpy's scalar algorithm exactly: ``random()`` is ``(word
    >> 11) * 2**-53`` over a fresh 64-bit word; ``integers(n)`` is Lemire's
    method over the generator's 32-bit halves — the low half of a fresh
    word first, its high half buffered for the next draw (``has_uint32`` /
    ``uinteger``, carried in from and written back to ``rng``) — and draws
    nothing when ``n == 1``; ``poisson(lam)`` is the multiplication method
    numpy uses below ``lam = 10``; ``choice`` is one ``random()`` located in
    the :func:`_cdf` of ``p`` by ``searchsorted(side="right")``.
    :meth:`close` rewinds ``rng`` to where the replay started and advances
    it by the words actually used, so draws made on ``rng`` afterwards
    continue the scalar stream.  ``words`` (>= 1) is the size of every block
    drawn.  Nothing else may draw from ``rng`` between construction and
    :meth:`close`.
    """

    __slots__ = ("_bitgen", "_start", "_spent", "_block", "_words", "_has", "_buf")

    def __init__(self, rng: np.random.Generator, words: int) -> None:
        bitgen = rng.bit_generator
        self._bitgen = bitgen
        self._start = bitgen.state
        self._has = self._start["has_uint32"]
        self._buf = self._start["uinteger"]
        self._spent = 0  # words of the blocks before the current one
        self._block = bitgen.random_raw(words).tolist()
        self._words = iter(self._block)

    def _word(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._spent += len(self._block)
            self._block = self._bitgen.random_raw(len(self._block)).tolist()
            self._words = iter(self._block)
            return next(self._words)

    def _half(self) -> int:
        """PCG64's ``next_uint32``: the buffered high half, else the low
        half of a fresh word (its high half buffered)."""
        if self._has:
            self._has = 0
            return self._buf
        word = self._word()
        self._has = 1
        self._buf = word >> 32
        return word & _MASK32

    def random(self) -> float:
        return (self._word() >> 11) * _TO_DOUBLE

    def integers(self, n: int) -> int:
        """A draw from ``range(n)``, ``1 <= n < 2**32``."""
        if n == 1:
            return 0
        m = self._half() * n
        if m & _MASK32 < n:
            threshold = (_TWO_32 - n) % n
            while m & _MASK32 < threshold:
                m = self._half() * n
        return m >> 32

    def poisson(self, lam: float) -> int:
        """A Poisson draw, ``0 <= lam < _POISSON_MULT_MAX``; no draw when
        ``lam == 0``."""
        if lam == 0:
            return 0
        enlam = math.exp(-lam)
        count, prod = 0, 1.0
        while True:
            prod *= self.random()
            if prod > enlam:
                count += 1
            else:
                return count

    def choice(self, cdf: List[float]) -> int:
        """``choice(len(p), p=p)`` given ``cdf = _cdf(p)``."""
        return bisect_right(cdf, self.random())

    def close(self) -> None:
        bitgen = self._bitgen
        bitgen.state = self._start
        # a list iterator's length hint is exactly the words it has left
        bitgen.advance(self._spent + len(self._block) - length_hint(self._words))
        state = bitgen.state  # advance() empties the 32-bit buffer
        state["has_uint32"] = self._has
        state["uinteger"] = self._buf
        bitgen.state = state


def _cdf(p: np.ndarray) -> List[float]:
    """The table ``Generator.choice(len(p), p=p)`` searches, computed as
    numpy computes it."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _make_vocabulary(size: int, draw: _Pcg64Replay) -> List[str]:
    """Deterministic pseudo-word vocabulary (CVCV[C] syllable strings)."""
    words: List[str] = []
    seen = set()
    integers = draw.integers
    while len(words) < size:
        syllables = 2 + integers(3)
        word = "".join(
            _CONSONANTS[integers(len(_CONSONANTS))]
            + _VOWELS[integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


@dataclass
class GeneratorConfig:
    """All the knobs of the synthetic corpus.

    The defaults produce a small corpus suitable for tests; experiment
    harnesses override ``num_users`` / ``docs_per_user_range`` upward
    (the paper's demonstration range is (50, 200)).
    """

    num_users: int = 16
    num_tags: int = 12
    docs_per_user_range: Tuple[int, int] = (10, 30)
    vocabulary_size: int = 1200
    topic_words_per_tag: int = 40
    doc_length_range: Tuple[int, int] = (40, 120)
    mean_tags_per_doc: float = 2.0
    max_tags_per_doc: int = 5
    zipf_exponent: float = 1.1
    interest_concentration: float = 0.5
    num_tag_groups: int = 3
    within_group_bias: float = 0.8
    bridge_tags: int = 1
    topic_word_weight: float = 0.7
    noise_weight: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.num_users <= 0:
            raise DataError("num_users must be positive")
        if self.num_tags < 2:
            raise DataError("need at least 2 tags")
        lo, hi = self.docs_per_user_range
        if not 0 < lo <= hi:
            raise DataError("docs_per_user_range must satisfy 0 < lo <= hi")
        if self.topic_words_per_tag < 1:
            raise DataError("topic_words_per_tag must be positive")
        if self.vocabulary_size < self.num_tags * self.topic_words_per_tag:
            raise DataError(
                "vocabulary too small for the requested topic words per tag"
            )
        if not _BACKGROUND_HEAD_MIN <= self.vocabulary_size <= _PSEUDO_WORDS:
            raise DataError(
                f"vocabulary_size must be in [{_BACKGROUND_HEAD_MIN}, "
                f"{_PSEUDO_WORDS}]: background words are the first "
                f"max({_BACKGROUND_HEAD_MIN}, vocabulary_size // 10) ids, and "
                "there are only so many distinct pseudo-words"
            )
        lo, hi = self.doc_length_range
        if not 0 < lo <= hi < _TWO_32:
            raise DataError("doc_length_range must satisfy 0 < lo <= hi < 2**32")
        if not 0 < self.mean_tags_per_doc <= self.max_tags_per_doc:
            raise DataError("mean_tags_per_doc must be in (0, max_tags_per_doc]")
        if self.mean_tags_per_doc >= 1 + _POISSON_MULT_MAX:
            raise DataError(
                f"mean_tags_per_doc must be below {1 + _POISSON_MULT_MAX}: the "
                "extra tags are Poisson(mean_tags_per_doc - 1), replayed by "
                "numpy's multiplication method, which serves lam < "
                f"{_POISSON_MULT_MAX}"
            )
        if not 0 <= self.zipf_exponent < math.inf:
            raise DataError("zipf_exponent must be finite and non-negative")
        # the user's Dirichlet alphas sum to interest_concentration * num_tags
        if not 0 < self.interest_concentration * self.num_tags < math.inf:
            raise DataError(
                "interest_concentration must be positive, and finite times "
                "num_tags"
            )
        if not 0.0 <= self.within_group_bias <= 1.0:
            raise DataError("within_group_bias must be in [0, 1]")
        if self.num_tag_groups < 1 or self.num_tag_groups > self.num_tags:
            raise DataError("num_tag_groups must be in [1, num_tags]")


class DeliciousGenerator:
    """Generates a :class:`~repro.data.corpus.Corpus` from a config."""

    def __init__(
        self,
        num_users: Optional[int] = None,
        seed: Optional[int] = None,
        config: Optional[GeneratorConfig] = None,
        **overrides,
    ) -> None:
        base = config or GeneratorConfig()
        if num_users is not None:
            overrides["num_users"] = num_users
        if seed is not None:
            overrides["seed"] = seed
        if overrides:
            base = GeneratorConfig(**{**base.__dict__, **overrides})
        base.validate()
        self.config = base
        self._rng = np.random.default_rng(base.seed)
        self._tags: List[str] = []
        self._tag_groups: Dict[str, List[int]] = {}
        self._topic_words: Dict[str, List[int]] = {}
        self._vocabulary: List[str] = []
        self._tag_popularity: Optional[np.ndarray] = None
        self._build_world()

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------

    def _build_world(self) -> None:
        cfg = self.config
        rng = self._rng
        # Tag names: real-ish pool first, synthetic overflow after.
        names = list(_TAG_NAME_POOL)
        while len(names) < cfg.num_tags:
            names.append(f"topic{len(names):03d}")
        self._tags = names[: cfg.num_tags]

        # Zipf popularity over tags (rank 1 most popular).
        ranks = np.arange(1, cfg.num_tags + 1, dtype=np.float64)
        weights = ranks ** (-cfg.zipf_exponent)
        self._tag_popularity = weights / weights.sum()

        # Concept groups: contiguous slices of the tag list; bridge tags are
        # members of their own group AND the next one.
        group_of: Dict[str, List[int]] = {tag: [] for tag in self._tags}
        for index, tag in enumerate(self._tags):
            group_of[tag].append(index % cfg.num_tag_groups)
        bridges = 0
        for index, tag in enumerate(self._tags):
            if bridges >= cfg.bridge_tags or cfg.num_tag_groups < 2:
                break
            primary = group_of[tag][0]
            group_of[tag].append((primary + 1) % cfg.num_tag_groups)
            bridges += 1
        self._tag_groups = group_of

        # Vocabulary and per-tag topic word sets (disjoint across tags).
        draw = _Pcg64Replay(rng, _VOCABULARY_BLOCK)
        self._vocabulary = _make_vocabulary(cfg.vocabulary_size, draw)
        draw.close()
        permutation = rng.permutation(cfg.vocabulary_size)
        cursor = 0
        for tag in self._tags:
            ids = permutation[cursor : cursor + cfg.topic_words_per_tag]
            self._topic_words[tag] = [int(i) for i in ids]
            cursor += cfg.topic_words_per_tag

    # -- introspection (used by tests and the tag-cloud experiment) -------

    @property
    def tags(self) -> List[str]:
        return list(self._tags)

    def groups_of(self, tag: str) -> List[int]:
        return list(self._tag_groups[tag])

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def generate(self) -> Corpus:
        cfg = self.config
        rng = self._rng
        # One raw word for a document's length and at most two per text word
        # (a roll, then up to two 32-bit halves): about a document a block.
        block = 1 + 2 * cfg.doc_length_range[1]
        documents: List[Document] = []
        doc_id = 0
        for user_id in range(cfg.num_users):
            interest = self._user_interest(rng)
            lo, hi = cfg.docs_per_user_range
            num_docs = int(rng.integers(lo, hi + 1))
            cdf = _cdf(interest)
            draw = _Pcg64Replay(rng, block)
            for _ in range(num_docs):
                tags = self._sample_tags(interest, cdf, draw)
                text = self._sample_text(tags, draw)
                documents.append(
                    Document(
                        doc_id=doc_id,
                        text=text,
                        tags=frozenset(tags),
                        owner=user_id,
                    )
                )
                doc_id += 1
            draw.close()
        return Corpus(documents)

    def _user_interest(self, rng: np.random.Generator) -> np.ndarray:
        """User's tag distribution: Dirichlet around global popularity.

        ``interest_concentration`` -> infinity gives IID users (everyone
        mirrors global popularity); small values give sharply non-IID users.
        """
        cfg = self.config
        alpha = cfg.interest_concentration * self._tag_popularity * cfg.num_tags
        alpha = np.maximum(alpha, 1e-3)
        return rng.dirichlet(alpha)

    def _sample_tags(
        self, interest: np.ndarray, cdf: List[float], draw: _Pcg64Replay
    ) -> List[str]:
        """A document's tags; ``cdf`` is ``_cdf(interest)``."""
        cfg = self.config
        num_tags = 1 + draw.poisson(max(0.0, cfg.mean_tags_per_doc - 1.0))
        num_tags = min(num_tags, cfg.max_tags_per_doc, cfg.num_tags)
        first = draw.choice(cdf)
        chosen = [first]
        first_groups = set(self._tag_groups[self._tags[first]])
        while len(chosen) < num_tags:
            if draw.random() < cfg.within_group_bias:
                # Prefer a tag sharing a concept group with the first tag.
                candidates = [
                    i
                    for i in range(cfg.num_tags)
                    if i not in chosen
                    and first_groups & set(self._tag_groups[self._tags[i]])
                ]
            else:
                candidates = [i for i in range(cfg.num_tags) if i not in chosen]
            if not candidates:
                break
            weights = interest[candidates] + 1e-9
            weights = weights / weights.sum()
            chosen.append(candidates[draw.choice(_cdf(weights))])
        return [self._tags[i] for i in chosen]

    def _sample_text(self, tags: Sequence[str], draw: _Pcg64Replay) -> str:
        cfg = self.config
        lo, hi = cfg.doc_length_range
        vocabulary = self._vocabulary
        topic_ids = [self._topic_words[tag] for tag in tags]
        head = max(_BACKGROUND_HEAD_MIN, cfg.vocabulary_size // 10)
        random, integers = draw.random, draw.integers
        length = lo + integers(hi - lo + 1)
        words: List[str] = []
        for _ in range(length):
            roll = random()
            if roll < cfg.noise_weight:
                # Pure noise word.
                words.append(vocabulary[integers(cfg.vocabulary_size)])
            elif roll < cfg.noise_weight + cfg.topic_word_weight and topic_ids:
                # Topic word from one of this document's tags.
                ids = topic_ids[integers(len(topic_ids))]
                words.append(vocabulary[ids[integers(len(ids))]])
            else:
                # Background word (shared head of the vocabulary).
                words.append(vocabulary[integers(head)])
        return " ".join(words)
