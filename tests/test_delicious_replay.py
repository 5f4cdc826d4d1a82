"""The corpus generator's PCG64 replay against numpy and against the
one-numpy-call-per-draw generator it replaced
(``tests/reference/scalar_corpus.py``).

``_Pcg64Replay`` re-implements numpy's scalar ``Generator.random()``,
``integers(n)``, ``poisson(lam)`` and ``choice(k, p=p)`` over raw PCG64
words, so it is pinned twice: draw for draw against a twin
``np.random.default_rng`` — a numpy release that changes any of the four
algorithms fails here by name rather than as a wall of golden mismatches —
and corpus for corpus against the scalar generator under hypothesis: the
vocabulary, every document and the generator's final state.

The text scan (``_TextReplay``) steps where no Lemire draw retries and
hands every other word to the scalar ``integers``; default shapes retry
about once in 10**7 draws, so two pinned cases reach that hand-over on
purpose: a corpus whose noise words retry, and a crafted buffered half of
0 (which retries for every ``n`` that can) ahead of documents that span a
refill of the replay's words.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import scalar_generator
from reference.scalar_corpus import sample_text
from repro.data import delicious
from repro.data.delicious import (
    DeliciousGenerator,
    _cdf,
    _Pcg64Replay,
    _TextReplay,
)

#: 1 draws nothing; 2**31 + 1 rejects about half its 32-bit draws; 3 * 2**30
#: leaves one of four remainders, a quarter of them equal to the threshold,
#: so an off-by-one in the threshold or its comparison changes draws
SIZES = [1, 2, 3, 7, 50, 120, 1200, 2 ** 31 + 1, 3 * 2 ** 30]
#: 0 draws nothing; 9.999 is the last stretch before numpy switches to PTRS
LAMS = [0, 0.3, 1, 2, 9.5, 9.999]
#: zero entries (ties in the cdf), one entry, and a sparse Dirichlet draw
PS = [
    np.array([0.0, 0.25, 0.0, 0.0, 0.75, 0.0]),
    np.array([1.0]),
    np.random.default_rng(12).dirichlet([0.01] * 12),
]


def _peek(rng):
    """The next ``rng.random()``, without drawing it."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin.random()


def _lam_at(u):
    """A ``lam`` with ``exp(-lam) == u`` exactly, for ``u >= 0.5`` (there
    ``exp`` steps less than a double's spacing per ``lam`` step, so it hits
    every ``u``): ``poisson(lam)``'s first product then ties ``exp(-lam)``,
    which stops the multiplication."""
    lam = -math.log(u)
    for _ in range(64):
        enlam = math.exp(-lam)
        if enlam == u:
            return lam
        lam = math.nextafter(lam, math.inf if enlam > u else -math.inf)
    raise AssertionError(f"no lam with exp(-lam) == {u!r}")


class _CountingReplay(_Pcg64Replay):
    halves = 0

    def _half(self):
        self.halves += 1
        return super()._half()


@pytest.mark.parametrize("carried", [False, True], ids=["empty", "carried"])
def test_the_replay_draws_what_numpy_draws(carried):
    ours, twin = np.random.default_rng(2024), np.random.default_rng(2024)
    if carried:
        # an odd number of 32-bit draws leaves a high half in the buffer
        ours.integers(7)
        twin.integers(7)
    assert ours.bit_generator.state["has_uint32"] == int(carried)

    # a 3-word first block: the draws below run through many more blocks
    replay = _CountingReplay(ours, 3)
    drawn, expected = [], []
    for _ in range(40):
        for n in SIZES:
            drawn.append(replay.integers(n))
            expected.append(int(twin.integers(n)))
            drawn.append(replay.random())
            expected.append(twin.random())
        for lam in LAMS:
            drawn.append(replay.poisson(lam))
            expected.append(int(twin.poisson(lam)))
        for p in PS:
            drawn.append(replay.choice(_cdf(p)))
            expected.append(int(twin.choice(len(p), p=p)))
        # the next draw tied on purpose: poisson's stop and choice's
        # side="right" both decide on equality
        while _peek(twin) < 0.5:
            drawn.append(replay.random())
            expected.append(twin.random())
        lam = _lam_at(_peek(twin))
        drawn.append(replay.poisson(lam))
        expected.append(int(twin.poisson(lam)))
        u = _peek(twin)
        p = np.array([u, 0.0, 1.0 - u])  # cdf [u, u, 1.0]
        drawn.append(replay.choice(_cdf(p)))
        expected.append(int(twin.choice(len(p), p=p)))
    replay.close()

    assert drawn == expected
    # one half per draw with n > 1, and more: the rejection loop really ran
    assert replay.halves > 40 * (len(SIZES) - 1)
    assert ours.bit_generator.state == twin.bit_generator.state


def _documents(generator):
    return [
        (document.doc_id, document.text, document.tags, document.owner)
        for document in generator.generate()
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    lengths=st.tuples(st.integers(1, 30), st.integers(0, 30)),
    topic_words_per_tag=st.integers(1, 12),
    num_tags=st.integers(3, 8),
    extra_vocabulary=st.integers(0, 400),
    noise_weight=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    topic_word_weight=st.sampled_from([0.0, 0.4, 0.7, 1.0]),
    mean_tags_per_doc=st.floats(1.0, 10.9),
    within_group_bias=st.sampled_from([0.0, 0.5, 1.0]),
)
# the edges, whatever hypothesis draws: one length, one topic word per tag,
# single-tag documents, no noise or no topic words, the largest Poisson
# mean the replay serves
@example(seed=3, lengths=(7, 0), topic_words_per_tag=1, num_tags=3,
         extra_vocabulary=0, noise_weight=0.0, topic_word_weight=1.0,
         mean_tags_per_doc=1.0, within_group_bias=1.0)
@example(seed=11, lengths=(1, 30), topic_words_per_tag=1, num_tags=8,
         extra_vocabulary=400, noise_weight=0.05, topic_word_weight=0.0,
         mean_tags_per_doc=10.9, within_group_bias=0.0)
def test_generate_matches_the_scalar_generator(
    seed, lengths, topic_words_per_tag, num_tags, extra_vocabulary,
    noise_weight, topic_word_weight, mean_tags_per_doc, within_group_bias,
):
    lo, span = lengths  # span 0: every document has length lo
    config = dict(
        num_users=3, seed=seed, num_tags=num_tags,
        docs_per_user_range=(2, 6), doc_length_range=(lo, lo + span),
        topic_words_per_tag=topic_words_per_tag,
        vocabulary_size=max(50, num_tags * topic_words_per_tag) + extra_vocabulary,
        noise_weight=noise_weight, topic_word_weight=topic_word_weight,
        mean_tags_per_doc=mean_tags_per_doc, max_tags_per_doc=11,
        within_group_bias=within_group_bias,
    )
    replayed = DeliciousGenerator(**config)
    scalar = scalar_generator(**config)

    assert replayed._vocabulary == scalar._vocabulary
    assert _documents(replayed) == _documents(scalar)
    assert replayed._rng.bit_generator.state == scalar._rng.bit_generator.state


def _count_retries(monkeypatch):
    """Count the ``integers`` calls that took more than one 32-bit half."""
    retries = []
    integers = _Pcg64Replay.integers

    def counting(self, n):
        pos, has = self._pos, self._has
        drawn = integers(self, n)
        if 2 * (self._pos - pos) + has - self._has > 1:  # halves taken
            retries.append(n)
        return drawn

    monkeypatch.setattr(_Pcg64Replay, "integers", counting)
    return retries


def test_a_retried_text_draw_matches_the_scalar_generator(monkeypatch):
    # every word is noise, integers(100_000), which retries on 67,296 of
    # 2**32 halves; the length draw's n = 1024 never retries.  Seed 2 is
    # the first whose text retries (found by search)
    config = dict(
        num_users=2, seed=2, num_tags=3, docs_per_user_range=(4, 4),
        doc_length_range=(1024, 2047), vocabulary_size=100_000,
        noise_weight=1.0, topic_word_weight=0.0,
    )
    replayed = DeliciousGenerator(**config)
    scalar = scalar_generator(**config)
    retries = _count_retries(monkeypatch)

    assert _documents(replayed) == _documents(scalar)
    assert replayed._rng.bit_generator.state == scalar._rng.bit_generator.state
    assert retries == [100_000]


@pytest.mark.parametrize("tag_lists", [
    [[0, 1, 2], [1], [2, 0], [0, 1, 2]],
    [[1], [0, 1, 2], [2], [1, 2]],
], ids=["three-tags-first", "one-tag-first"])
def test_a_carried_buffer_and_a_refill_match_the_scalar_text(
    monkeypatch, tag_lists
):
    # lo == hi draws no length, so the first word takes the carried half: 0,
    # which retries for every n but 2 (2**32 % n > 0); 3,000 words take
    # ~4,800 raw words, more than a chunk, so every document spans a refill
    generator = DeliciousGenerator(num_tags=3, doc_length_range=(3000, 3000))
    ours, twin = np.random.default_rng(5), np.random.default_rng(5)
    for rng in (ours, twin):
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
    retries = _count_retries(monkeypatch)

    replay = _TextReplay(ours, generator._text)
    for tags in tag_lists:
        replay.text(tags)
    texts = replay.texts()
    replay.close()
    expected = [
        sample_text(generator, [generator.tags[i] for i in tags], twin)
        for tags in tag_lists
    ]

    assert texts == expected
    assert ours.bit_generator.state == twin.bit_generator.state
    assert replay._pos > len(tag_lists) * delicious._CHUNK
    assert retries  # the carried 0 retried


def test_a_short_document_reserves_words_by_its_drawn_length():
    # doc_length_range admits 2**20 words, but seed 7212 draws 48 (found by
    # search); words were once reserved for the longest document the range
    # admits, 2**21 of them (~100 MiB here)
    generator = DeliciousGenerator(
        num_users=1, seed=7212, num_tags=3, topic_words_per_tag=10,
        vocabulary_size=50, docs_per_user_range=(1, 1),
        doc_length_range=(1, 2 ** 20),
    )
    tracemalloc.start()
    try:
        corpus = generator.generate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert len(corpus[0].text.split()) == 48
    assert peak < 4 * 2 ** 20
