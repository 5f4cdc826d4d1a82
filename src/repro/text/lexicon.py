"""Word -> feature id.

The paper represents each document as a vector indexed by word id.  In the
distributed setting every peer must derive the same ids without exchanging
a vocabulary, so an id is a stable hash of the (stemmed) word modulo the
feature-space size: :func:`stable_word_id`.
"""

from __future__ import annotations

import hashlib


def stable_word_id(word: str, dimension: int) -> int:
    """Deterministic feature id for ``word`` in a ``dimension``-sized space.

    Uses blake2b so ids are stable across processes and Python hash
    randomization — peers must agree on ids without communicating.
    """
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension
