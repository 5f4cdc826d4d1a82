"""Word <-> id lexicon.

The paper represents each document as a vector indexed by word id; the lexicon
is the shared mapping from (stemmed) words to those ids.  In the distributed
setting every peer derives ids the same way, so the lexicon supports a
*hashed* mode (stable id = hash of the word modulo the feature-space size)
in addition to the *growing* mode used by centralized preprocessing.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, Iterable, List, Optional

from repro.errors import VocabularyError


def stable_word_id(word: str, dimension: int) -> int:
    """Deterministic feature id for ``word`` in a ``dimension``-sized space.

    Uses blake2b so ids are stable across processes and Python hash
    randomization — peers must agree on ids without communicating.
    """
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension


class Lexicon:
    """A word <-> id mapping with document frequencies.

    Two modes:

    - *growing* (default): new words get the next free id.  Used by the
      centralized baseline and by tests that need compact contiguous ids.
    - *frozen*: after :meth:`freeze`, unknown words map to ``None`` and are
      dropped from vectors, which is how test documents with unseen words are
      handled.
    """

    def __init__(self) -> None:
        self._word_to_id: Dict[str, int] = {}
        self._id_to_word: List[str] = []
        self._doc_frequency: Counter = Counter()
        self._num_documents = 0
        self._frozen = False

    # -- building -----------------------------------------------------------

    def add_document(self, tokens: Iterable[str]) -> List[int]:
        """Register a document's tokens; returns their ids (with repeats)."""
        ids: List[int] = []
        seen_words = set()
        for token in tokens:
            word_id = self._get_or_add(token)
            if word_id is None:
                continue
            ids.append(word_id)
            seen_words.add(token)
        self._num_documents += 1
        for word in seen_words:
            self._doc_frequency[word] += 1
        return ids

    def _get_or_add(self, word: str) -> Optional[int]:
        existing = self._word_to_id.get(word)
        if existing is not None:
            return existing
        if self._frozen:
            return None
        new_id = len(self._id_to_word)
        self._word_to_id[word] = new_id
        self._id_to_word.append(word)
        return new_id

    def freeze(self) -> None:
        """Stop admitting new words; unknown words become out-of-vocabulary."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- lookup ---------------------------------------------------------------

    def id_of(self, word: str) -> Optional[int]:
        """Id for ``word`` or None if out of vocabulary."""
        return self._word_to_id.get(word)

    def word_of(self, word_id: int) -> str:
        if not 0 <= word_id < len(self._id_to_word):
            raise VocabularyError(f"word id {word_id} out of range")
        return self._id_to_word[word_id]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def __len__(self) -> int:
        return len(self._id_to_word)

    @property
    def num_documents(self) -> int:
        return self._num_documents

    def document_frequency(self, word: str) -> int:
        """Number of registered documents containing ``word``."""
        return self._doc_frequency.get(word, 0)

    # -- pruning ----------------------------------------------------------------

    def prune(self, min_df: int = 1, max_df_fraction: float = 1.0) -> "Lexicon":
        """Return a new compact lexicon keeping words with df in range.

        ``min_df`` removes hapax noise; ``max_df_fraction`` removes corpus-wide
        boilerplate that stop-word lists missed.  Ids are renumbered densely.
        """
        if self._num_documents == 0:
            raise VocabularyError("cannot prune an empty lexicon")
        max_df = max_df_fraction * self._num_documents
        pruned = Lexicon()
        pruned._num_documents = self._num_documents
        for word in self._id_to_word:
            df = self._doc_frequency.get(word, 0)
            if min_df <= df <= max_df:
                pruned._get_or_add(word)
                pruned._doc_frequency[word] = df
        return pruned

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "frozen" if self._frozen else "growing"
        return f"Lexicon(size={len(self)}, docs={self._num_documents}, {state})"
