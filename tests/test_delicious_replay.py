"""The corpus generator's PCG64 replay against numpy and against the scalar
loop it replaced (``tests/reference/scalar_text.py``).

``_Pcg64Replay`` re-implements numpy's scalar ``Generator.random()`` and
``Generator.integers(n)`` over raw PCG64 words, so it is pinned twice: draw
for draw against a twin ``np.random.default_rng`` — a numpy release that
changes either algorithm fails here by name rather than as a wall of golden
mismatches — and corpus for corpus against the scalar text loop under
hypothesis, both to the byte and to the generator's final state.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import install_scalar_text
from repro.data.delicious import DeliciousGenerator, _Pcg64Replay

#: 1 draws nothing; 2**31 + 1 rejects about half its 32-bit draws; 3 * 2**30
#: leaves one of four remainders, a quarter of them equal to the threshold,
#: so an off-by-one in the threshold or its comparison changes draws
SIZES = [1, 2, 3, 7, 50, 120, 1200, 2 ** 31 + 1, 3 * 2 ** 30]


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
    mean_tags_per_doc=st.sampled_from([1.0, 2.0, 3.0]),
)
# the edges, whatever hypothesis draws: one length, one topic word per tag,
# single-tag documents, no noise or no topic words
@example(seed=3, lengths=(7, 0), topic_words_per_tag=1, num_tags=3,
         extra_vocabulary=0, noise_weight=0.0, topic_word_weight=1.0,
         mean_tags_per_doc=1.0)
@example(seed=11, lengths=(1, 30), topic_words_per_tag=1, num_tags=8,
         extra_vocabulary=400, noise_weight=0.05, topic_word_weight=0.0,
         mean_tags_per_doc=3.0)
def test_generate_matches_the_scalar_text_loop(
    seed, lengths, topic_words_per_tag, num_tags, extra_vocabulary,
    noise_weight, topic_word_weight, mean_tags_per_doc,
):
    lo, span = lengths  # span 0: every document has length lo
    config = dict(
        num_users=3, seed=seed, num_tags=num_tags,
        docs_per_user_range=(2, 6), doc_length_range=(lo, lo + span),
        topic_words_per_tag=topic_words_per_tag,
        vocabulary_size=max(50, num_tags * topic_words_per_tag) + extra_vocabulary,
        noise_weight=noise_weight, topic_word_weight=topic_word_weight,
        mean_tags_per_doc=mean_tags_per_doc,
    )
    replayed = DeliciousGenerator(**config)
    scalar = DeliciousGenerator(**config)
    install_scalar_text(scalar)

    assert _documents(replayed) == _documents(scalar)
    assert replayed._rng.bit_generator.state == scalar._rng.bit_generator.state
