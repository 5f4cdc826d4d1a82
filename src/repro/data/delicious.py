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
replayed in plain Python over chunks of raw PCG64 words, one replay for the
vocabulary and one per user.  A user's replay (:class:`_TextReplay`) only
scans where each text word's draws fall, and computes all of the user's
words in one numpy pass after the last document.  The stream is
bit-identical to one numpy call per draw; that generator is the oracle in
``tests/reference/scalar_corpus.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.constraints import (
    at_least, check, finite, in_range, integer, positive, setting,
)
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
#: raw words a replay draws at a time (a user's documents take ~5,500 at the
#: benchmark's shape); a longer document reserves more chunks
_CHUNK = 2048

_MASK32 = 0xFFFFFFFF
_TWO_32 = 1 << 32
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53
#: a state past every position a replay can reach
_NEVER = 1 << 62
#: :class:`_TextReplay`'s state steps ``[has_uint32 == 0, has_uint32 == 1]``
#: for a word with one 32-bit draw
_ONE_HALF = bytes((5, 1))


class _Pcg64Replay:
    """``Generator.random()``, ``integers(n)``, ``poisson(lam)`` and
    ``choice(k, p=p)`` of a PCG64 ``rng``, replayed in plain Python over its
    raw words.

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
    continue the scalar stream.  Raw words are drawn ``words`` (>= 1) at a
    time, when the replay runs out or :meth:`reserve` asks for more; each
    draw drops the words used but the last two.  Nothing else may draw from
    ``rng`` between construction and :meth:`close`.
    """

    __slots__ = ("_bitgen", "_start", "_chunk", "_spent", "_words", "_pos",
                 "_has", "_buf")

    def __init__(self, rng: np.random.Generator, words: int) -> None:
        bitgen = rng.bit_generator
        self._bitgen = bitgen
        self._start = bitgen.state
        self._has = self._start["has_uint32"]
        self._buf = self._start["uinteger"]
        self._chunk = words
        self._spent = 0  # words dropped from the front of ``_words``
        self._words: List[int] = []  # raw word ``_spent + i`` at ``i``
        self._pos = 0  # words used

    def _extend(self) -> np.ndarray:
        """Draw the next chunk of raw words."""
        used = self._pos - 2 - self._spent
        if used > 0:
            del self._words[:used]
            self._spent += used
        raw = self._bitgen.random_raw(self._chunk)
        self._words += raw.tolist()
        return raw

    def reserve(self, count: int) -> None:
        """Draw chunks until ``count`` words past the position are drawn."""
        while self._spent + len(self._words) < self._pos + count:
            self._extend()

    def _word(self) -> int:
        pos = self._pos
        self._pos = pos + 1
        try:
            return self._words[pos - self._spent]
        except IndexError:
            self._extend()
            return self._words[pos - self._spent]

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
        bitgen.advance(self._pos)
        state = bitgen.state  # advance() empties the 32-bit buffer
        state["has_uint32"] = self._has
        state["uinteger"] = self._buf
        bitgen.state = state


class _TextModel:
    """What a document's words are drawn from, as :class:`_TextReplay`
    draws them.

    A word is a roll — ``random()`` — then up to two ``integers``: noise
    (``roll < noise``) is ``integers(vocabulary_size)``, a topic word
    (``roll < cut``) is ``integers(len(tags))`` for the tag, then
    ``integers(topic_words)`` within its topic words, and background is
    ``integers(head)``.
    """

    __slots__ = ("lo", "span", "noise", "cut", "vocabulary_size", "head",
                 "topic_words", "topic_ids", "topic_table", "words")

    def __init__(self, cfg: "GeneratorConfig", topic_ids: List[List[int]],
                 vocabulary: List[str]) -> None:
        lo, hi = cfg.doc_length_range
        self.lo, self.span = lo, hi - lo + 1
        self.noise = cfg.noise_weight
        self.cut = cfg.noise_weight + cfg.topic_word_weight
        self.vocabulary_size = cfg.vocabulary_size
        self.head = max(_BACKGROUND_HEAD_MIN, cfg.vocabulary_size // 10)
        self.topic_words = cfg.topic_words_per_tag
        self.topic_ids = topic_ids  # per tag index
        self.topic_table = np.array(topic_ids, dtype=np.int64)
        self.words = np.array(vocabulary, dtype=object)


class _TextReplay(_Pcg64Replay):
    """A user's replay, which also draws each document's text.

    :meth:`text` draws a document's length and then only *scans* its words.
    Without a retry, each word takes a fresh raw word for its roll, then a
    32-bit half per ``integers(n)`` with ``n > 1``: one for a noise or
    background word; for a topic word one for its tag if the document has
    two or more tags, and one within the tag's topic words if there are two
    or more.  The tag draws between documents take whole words only, so
    where each word's draws fall depends on its position ``p``,
    ``has_uint32`` and its raw word's roll alone.  The scan walks the state
    ``2·p + has_uint32`` through a step table built once per chunk of raw
    words, one table per number of halves a topic word takes: ``+1`` (the
    buffered half, emptied), ``+5`` (a fresh half, the other buffered) or
    ``+4`` (two halves).  Whenever the buffer is full, it holds the high
    half of the word before ``p``.

    :meth:`texts` then computes every word of the user's documents in one
    numpy pass over the recorded states — the halves, the Lemire products
    ``h·n >> 32``, the topic-table rows and vocabulary ids — and joins each
    document's slice.

    A word the table cannot step is drawn as numpy draws it (``random`` and
    ``integers``, retries and all) by :meth:`_scalar_word`: a word within one
    position of a raw word with a half that would retry for an ``n`` the
    user draws (a stop), the first word of a document whose buffered half
    no length draw replaced, and every word of a document whose topic words
    draw no half.
    """

    __slots__ = ("_model", "_sizes", "_rejecting", "_chunks", "_steps",
                 "_stops", "_states", "_lengths", "_tags", "_scalar_ids")

    def __init__(self, rng: np.random.Generator, model: _TextModel) -> None:
        super().__init__(rng, _CHUNK)
        self._model = model
        self._sizes: Set[int] = set()  # the n of every integers(n) seen
        self._rejecting: List[Tuple[np.uint32, np.uint32]] = []
        self._chunks: List[np.ndarray] = []
        # per number of halves a topic word draws: state -> step
        self._steps = (b"", bytearray(), bytearray())
        self._stops: List[int] = []  # sorted positions
        self._states: List[int] = []  # per word, ``2·p + has_uint32``
        self._lengths: List[int] = []  # per document
        self._tags: List[List[int]] = []  # per document, tag indices
        self._scalar_ids: Dict[int, int] = {}  # word index -> vocabulary id
        for n in (model.vocabulary_size, model.head, model.topic_words):
            self._reject(n)

    def _extend(self) -> np.ndarray:
        raw = super()._extend()
        model = self._model
        roll = (raw >> 11) * _TO_DOUBLE
        topic = (roll >= model.noise) & (roll < model.cut)
        self._steps[1].extend(_ONE_HALF * len(raw))
        # two little-endian bytes per position: (5, 1), or (4, 4) if topic
        self._steps[2].extend(
            (topic.astype("<u2") * 0x02FF + 0x0105).astype("<u2").tobytes()
        )
        drawn = self._spent + len(self._words)
        self._stops += _stops(raw, self._rejecting, drawn - len(raw))
        self._chunks.append(raw)
        return raw

    def _reject(self, n: int) -> None:
        """Stop also where ``integers(n)`` retries, in every word drawn so
        far and every chunk drawn later."""
        if n in self._sizes:
            return
        self._sizes.add(n)
        if n > 1 and _TWO_32 % n:
            added = [(np.uint32(n), np.uint32(_TWO_32 % n))]
            self._rejecting += added
            if self._chunks:
                stops = _stops(np.concatenate(self._chunks), added, 0)
                self._stops = sorted(set(self._stops).union(stops))

    def _next_stop(self, state: int) -> int:
        """The first state at or past ``state`` within one position of a
        stop."""
        stops = self._stops
        if not stops:
            return _NEVER
        # the first stop f with 2·f + 3 >= state
        at = bisect_left(stops, (state - 2) >> 1)
        return 2 * stops[at] - 2 if at < len(stops) else _NEVER

    def text(self, tags: List[int]) -> None:
        """Draw the length of a document tagged ``tags`` (tag indices) and
        scan its words."""
        model = self._model
        length = model.lo + self.integers(model.span)
        self._lengths.append(length)
        self._tags.append(tags)
        self._reject(len(tags))
        # a topic word's 32-bit draws: its tag, then its word within the tag
        halves = (len(tags) > 1) + (model.topic_words > 1)
        if not halves:
            # a topic word draws no half, so a buffered half outlives it
            # and the table's "the word before p" no longer holds
            for _ in range(length):
                self._scalar_word(tags)
            return
        if self._has and model.span == 1:
            # no length draw: the buffer was filled before the tag draws
            self._scalar_word(tags)
            length -= 1
        steps = self._steps[halves]
        states = self._states
        append = states.append
        while length:
            self.reserve(2 * length)
            state = 2 * self._pos + self._has
            stop = self._next_stop(state)
            if state >= stop:
                self._scalar_word(tags)
                length -= 1
                continue
            start = len(states)
            for _ in range(length):
                append(state)
                state += steps[state]
            if states[-1] >= stop:
                cut = bisect_left(states, stop, start)
                state = states[cut]
                del states[cut:]
            length -= len(states) - start
            pos = self._pos = state >> 1
            self._has = state & 1
            # numpy keeps the high half of the last word it split, buffered
            # or not: the word before pos, or before that if the last step
            # took the buffered half
            buffered = pos - 1 - (steps[states[-1]] == 1) - self._spent
            self._buf = self._words[buffered] >> 32

    def _scalar_word(self, tags: List[int]) -> None:
        """One word, drawn as numpy draws it."""
        model = self._model
        integers = self.integers
        self._states.append(2 * self._pos + self._has)
        roll = self.random()
        if roll < model.noise:
            word = integers(model.vocabulary_size)
        elif roll < model.cut:
            ids = model.topic_ids[tags[integers(len(tags))]]
            word = ids[integers(len(ids))]
        else:
            word = integers(model.head)
        self._scalar_ids[len(self._states) - 1] = word

    def texts(self) -> List[str]:
        """The text of every document :meth:`text` scanned, in order."""
        model = self._model
        raw = np.concatenate(self._chunks)
        state = np.fromiter(self._states, np.int64, len(self._states))
        pos = state >> 1
        has = (state & 1).astype(bool)
        # a scalar word's halves may lie anywhere: its id is replaced below
        following = raw.take(pos + 1, mode="clip")
        first = np.where(has, raw[pos - 1] >> 32, following & _MASK32)
        second = np.where(has, following & _MASK32, following >> 32)
        roll = (raw[pos] >> 11) * _TO_DOUBLE
        noise = roll < model.noise
        topic = ~noise & (roll < model.cut)
        counts = np.array([len(tags) for tags in self._tags])
        doc = np.repeat(np.arange(len(counts)), self._lengths)
        count = counts[doc]
        multi = count > 1
        n = np.where(noise, model.vocabulary_size, np.where(
            topic, np.where(multi, count, model.topic_words), model.head))
        ids = ((first * n.astype(np.uint64)) >> 32).astype(np.int64)
        at = np.flatnonzero(topic)
        if len(at):
            multi = multi[at]
            drawn = ids[at]
            flat = np.array([i for tags in self._tags for i in tags])
            offsets = np.cumsum(counts) - counts
            tag = flat[offsets[doc[at]] + np.where(multi, drawn, 0)]
            within = ((second[at] * np.uint64(model.topic_words)) >> 32)
            within = np.where(multi, within.astype(np.int64), drawn)
            ids[at] = model.topic_table[tag, within]
        if self._scalar_ids:
            ids[list(self._scalar_ids)] = list(self._scalar_ids.values())
        words = model.words[ids].tolist()
        texts, end = [], 0
        for length in self._lengths:
            start, end = end, end + length
            texts.append(" ".join(words[start:end]))
        return texts


def _stops(raw: np.ndarray, rejecting, base: int) -> List[int]:
    """The positions (``base`` + index) of the words in ``raw`` with a half
    ``h`` on which ``integers(n)`` retries, ``h·n mod 2**32 < 2**32 % n``,
    for some ``(n, 2**32 % n)`` in ``rejecting``."""
    halves = raw.view(np.uint32)  # either order: both halves are tested
    product = np.empty_like(halves)
    retries = np.zeros(len(halves), dtype=bool)
    for n, threshold in rejecting:
        np.multiply(halves, n, out=product)
        retries |= product < threshold
    return (np.flatnonzero(retries) // 2 + base).tolist()


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


#: users (each becomes a peer) and documents per user a corpus may hold:
#: the whole corpus is generated into memory
_MAX_USERS = 2 ** 20
_MAX_DOCS_PER_USER = 2 ** 20


@dataclass
class GeneratorConfig:
    """All the knobs of the synthetic corpus.

    The defaults produce a small corpus suitable for tests; experiment
    harnesses override ``num_users`` / ``docs_per_user_range`` upward
    (the paper's demonstration range is (50, 200)).
    """

    num_users: int = setting(16, integer, in_range(1, _MAX_USERS))
    num_tags: int = setting(12, integer, at_least(2))
    docs_per_user_range: Tuple[int, int] = setting(
        (10, 30), integer, in_range(1, _MAX_DOCS_PER_USER)
    )
    #: background words are the first max(_BACKGROUND_HEAD_MIN,
    #: vocabulary_size // 10) ids, and there are only so many distinct
    #: pseudo-words
    vocabulary_size: int = setting(
        1200, integer, in_range(_BACKGROUND_HEAD_MIN, _PSEUDO_WORDS)
    )
    topic_words_per_tag: int = setting(40, integer, at_least(1))
    doc_length_range: Tuple[int, int] = setting(
        (40, 120), integer, in_range(1, _TWO_32 - 1)
    )
    mean_tags_per_doc: float = setting(2.0, finite, positive)
    max_tags_per_doc: int = setting(5, integer, at_least(1))
    zipf_exponent: float = setting(1.1, finite, at_least(0))
    interest_concentration: float = setting(0.5, finite, positive)
    num_tag_groups: int = setting(3, integer, at_least(1))
    within_group_bias: float = setting(0.8, in_range(0, 1))
    bridge_tags: int = setting(1, integer, at_least(0))
    topic_word_weight: float = setting(0.7, in_range(0, 1))
    noise_weight: float = setting(0.05, in_range(0, 1))
    seed: int = setting(0, integer, at_least(0))

    def validate(self) -> None:
        check(self, DataError)
        _ranges_are_ordered(self)
        _topic_words_fit_the_vocabulary(self)
        _tag_counts_fit(self)
        _dirichlet_alphas_sum_finite(self)


def _ranges_are_ordered(config: GeneratorConfig) -> None:
    for name in ("docs_per_user_range", "doc_length_range"):
        lo, hi = getattr(config, name)
        if lo > hi:
            raise DataError(f"{name} must satisfy lo <= hi, got {(lo, hi)}")


def _topic_words_fit_the_vocabulary(config: GeneratorConfig) -> None:
    if config.vocabulary_size < config.num_tags * config.topic_words_per_tag:
        raise DataError(
            f"vocabulary_size {config.vocabulary_size} is too small for "
            f"num_tags * topic_words_per_tag = {config.num_tags} * "
            f"{config.topic_words_per_tag} disjoint topic words"
        )


def _tag_counts_fit(config: GeneratorConfig) -> None:
    if config.mean_tags_per_doc > config.max_tags_per_doc:
        raise DataError(
            f"mean_tags_per_doc {config.mean_tags_per_doc} must be at most "
            f"max_tags_per_doc {config.max_tags_per_doc}"
        )
    if config.mean_tags_per_doc >= 1 + _POISSON_MULT_MAX:
        raise DataError(
            f"mean_tags_per_doc must be below {1 + _POISSON_MULT_MAX}: the "
            "extra tags are Poisson(mean_tags_per_doc - 1), replayed by "
            "numpy's multiplication method, which serves lam < "
            f"{_POISSON_MULT_MAX}"
        )
    if config.num_tag_groups > config.num_tags:
        raise DataError(
            f"num_tag_groups {config.num_tag_groups} must be at most "
            f"num_tags {config.num_tags}"
        )


def _dirichlet_alphas_sum_finite(config: GeneratorConfig) -> None:
    """A user's Dirichlet alphas sum to interest_concentration * num_tags."""
    if not math.isfinite(config.interest_concentration * config.num_tags):
        raise DataError(
            "interest_concentration * num_tags must be finite, got "
            f"{config.interest_concentration} * {config.num_tags}"
        )


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

        # The tags sharing a concept group with each tag (itself included).
        self._group_mates = [
            [i for i, other in enumerate(self._tags)
             if set(group_of[tag]) & set(group_of[other])]
            for tag in self._tags
        ]

        # Vocabulary and per-tag topic word sets (disjoint across tags).
        draw = _Pcg64Replay(rng, _CHUNK)
        self._vocabulary = _make_vocabulary(cfg.vocabulary_size, draw)
        draw.close()
        permutation = rng.permutation(cfg.vocabulary_size)
        cursor = 0
        for tag in self._tags:
            ids = permutation[cursor : cursor + cfg.topic_words_per_tag]
            self._topic_words[tag] = [int(i) for i in ids]
            cursor += cfg.topic_words_per_tag
        self._text = _TextModel(
            cfg, [self._topic_words[tag] for tag in self._tags], self._vocabulary
        )

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
        documents: List[Document] = []
        for user_id in range(cfg.num_users):
            interest = self._user_interest(rng)
            lo, hi = cfg.docs_per_user_range
            num_docs = int(rng.integers(lo, hi + 1))
            cdf = _cdf(interest)
            cdfs: Dict[Tuple[int, ...], List[float]] = {}
            draw = _TextReplay(rng, self._text)
            drawn = []
            for _ in range(num_docs):
                tags = self._sample_tags(interest, cdf, cdfs, draw)
                draw.text(tags)
                drawn.append(frozenset([self._tags[i] for i in tags]))
            for tags, text in zip(drawn, draw.texts()):
                documents.append(Document(
                    doc_id=len(documents), text=text, tags=tags, owner=user_id,
                ))
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
        self,
        interest: np.ndarray,
        cdf: List[float],
        cdfs: Dict[Tuple[int, ...], List[float]],
        draw: _Pcg64Replay,
    ) -> List[int]:
        """A document's tag indices; ``cdf`` is ``_cdf(interest)`` and
        ``cdfs`` the user's memo of each candidate tuple's cdf."""
        cfg = self.config
        num_tags = 1 + draw.poisson(max(0.0, cfg.mean_tags_per_doc - 1.0))
        num_tags = min(num_tags, cfg.max_tags_per_doc, cfg.num_tags)
        first = draw.choice(cdf)
        chosen = [first]
        while len(chosen) < num_tags:
            if draw.random() < cfg.within_group_bias:
                # Prefer a tag sharing a concept group with the first tag.
                pool = self._group_mates[first]
            else:
                pool = range(cfg.num_tags)
            candidates = tuple([i for i in pool if i not in chosen])
            if not candidates:
                break
            try:
                candidate_cdf = cdfs[candidates]
            except KeyError:
                weights = interest[list(candidates)] + 1e-9
                candidate_cdf = cdfs[candidates] = _cdf(weights / weights.sum())
            chosen.append(candidates[draw.choice(candidate_cdf)])
        return chosen
