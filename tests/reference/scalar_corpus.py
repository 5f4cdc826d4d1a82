"""The corpus generator with one scalar numpy call per draw: the oracle for
``repro.data.delicious``, whose vocabulary, tags and text replay the same
draws over blocks of raw PCG64 words."""

import numpy as np

from repro.data.corpus import Corpus, Document
from repro.data.delicious import _CONSONANTS, _VOWELS, DeliciousGenerator


def scalar_generator(**config) -> DeliciousGenerator:
    """A ``DeliciousGenerator(**config)`` drawn the way every corpus was
    before the replay: ``rng.integers`` for each syllable count, letter,
    document length and word id, ``rng.poisson`` / ``rng.choice(p=…)`` /
    ``rng.random`` for each document's tags, ``rng.random`` for each word's
    roll.  The vocabulary is drawn in ``__init__``, so this restarts the
    stream from the seed and redraws the world's words before installing
    the scalar ``generate``; tag names, groups and popularity draw nothing."""
    generator = DeliciousGenerator(**config)
    cfg = generator.config
    rng = generator._rng = np.random.default_rng(cfg.seed)
    generator._vocabulary = _make_vocabulary(cfg.vocabulary_size, rng)
    permutation = rng.permutation(cfg.vocabulary_size)
    for index, tag in enumerate(generator.tags):
        start = index * cfg.topic_words_per_tag
        ids = permutation[start : start + cfg.topic_words_per_tag]
        generator._topic_words[tag] = [int(i) for i in ids]
    generator.generate = lambda: _generate(generator, rng)
    return generator


def _make_vocabulary(size, rng):
    words, seen = [], set()
    while len(words) < size:
        syllables = int(rng.integers(2, 5))
        word = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _generate(generator, rng):
    cfg = generator.config
    documents = []
    for user_id in range(cfg.num_users):
        interest = generator._user_interest(rng)
        lo, hi = cfg.docs_per_user_range
        for _ in range(int(rng.integers(lo, hi + 1))):
            tags = _sample_tags(generator, interest, rng)
            documents.append(Document(
                doc_id=len(documents), text=sample_text(generator, tags, rng),
                tags=frozenset(tags), owner=user_id,
            ))
    return Corpus(documents)


def _sample_tags(generator, interest, rng):
    cfg = generator.config
    num_tags = 1 + int(rng.poisson(max(0.0, cfg.mean_tags_per_doc - 1.0)))
    num_tags = min(num_tags, cfg.max_tags_per_doc, cfg.num_tags)
    first = int(rng.choice(cfg.num_tags, p=interest))
    chosen = [first]
    first_groups = set(generator.groups_of(generator.tags[first]))
    while len(chosen) < num_tags:
        if rng.random() < cfg.within_group_bias:
            # Prefer a tag sharing a concept group with the first tag.
            candidates = [
                i
                for i in range(cfg.num_tags)
                if i not in chosen
                and first_groups & set(generator.groups_of(generator.tags[i]))
            ]
        else:
            candidates = [i for i in range(cfg.num_tags) if i not in chosen]
        if not candidates:
            break
        weights = interest[candidates] + 1e-9
        weights = weights / weights.sum()
        chosen.append(int(rng.choice(candidates, p=weights)))
    return [generator.tags[i] for i in chosen]


def sample_text(generator, tags, rng):
    """A document tagged ``tags`` (names): its length, then each word."""
    cfg = generator.config
    vocabulary = generator._vocabulary
    lo, hi = cfg.doc_length_range
    length = int(rng.integers(lo, hi + 1))
    words = []
    topic_ids = [generator._topic_words[tag] for tag in tags]
    for _ in range(length):
        roll = rng.random()
        if roll < cfg.noise_weight:
            # Pure noise word.
            words.append(vocabulary[int(rng.integers(cfg.vocabulary_size))])
        elif roll < cfg.noise_weight + cfg.topic_word_weight and topic_ids:
            # Topic word from one of this document's tags.
            ids = topic_ids[int(rng.integers(len(topic_ids)))]
            words.append(vocabulary[ids[int(rng.integers(len(ids)))]])
        else:
            # Background word (shared head of the vocabulary).
            head = max(50, cfg.vocabulary_size // 10)
            words.append(vocabulary[int(rng.integers(head))])
    return " ".join(words)
