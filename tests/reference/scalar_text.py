"""The scalar document-text loop: the oracle for
``DeliciousGenerator._sample_text`` (which replays the same draws over a
block of raw PCG64 words)."""


def install_scalar_text(generator) -> None:
    """Make ``generator`` draw each document's text with one scalar numpy
    call per draw — ``rng.integers`` for the length and every word id,
    ``rng.random`` for every word's roll — the loop every corpus was
    generated with before the replay."""
    cfg = generator.config

    def sample_text(tags, rng):
        lo, hi = cfg.doc_length_range
        length = int(rng.integers(lo, hi + 1))
        words = []
        topic_ids = [generator._topic_words[tag] for tag in tags]
        for _ in range(length):
            roll = rng.random()
            if roll < cfg.noise_weight:
                # Pure noise word.
                words.append(
                    generator._vocabulary[int(rng.integers(cfg.vocabulary_size))]
                )
            elif roll < cfg.noise_weight + cfg.topic_word_weight and topic_ids:
                # Topic word from one of this document's tags.
                ids = topic_ids[int(rng.integers(len(topic_ids)))]
                words.append(generator._vocabulary[ids[int(rng.integers(len(ids)))]])
            else:
                # Background word (shared head of the vocabulary).
                head = max(50, cfg.vocabulary_size // 10)
                words.append(generator._vocabulary[int(rng.integers(head))])
        return " ".join(words)

    generator._sample_text = sample_text
