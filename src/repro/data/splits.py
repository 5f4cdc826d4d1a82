"""Train/test splitting.

The paper's protocol (§3): "20 percent of the documents with tags are used
for training the automated tagger, while tags of the remaining 80 percent
documents are removed to be tagged by P2PDocTagger."  The split is applied
*per user* so every peer retains some labeled documents — each peer
contributes a small training shard, which is the whole point of the system.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.data.corpus import Corpus, Document
from repro.errors import DataError


def per_user_split(
    corpus: Corpus, train_fraction: float = 0.2, seed: int = 0
) -> Tuple[Corpus, Corpus]:
    """Per-user split: every owner keeps ``train_fraction`` labeled docs.

    Guarantees at least one training document per user (a peer with zero
    labeled documents would have no local model to contribute).
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train: List[Document] = []
    test: List[Document] = []
    for owner in corpus.owners:
        docs = corpus.documents_of(owner)
        order = rng.permutation(len(docs))
        cut = max(1, int(round(train_fraction * len(docs))))
        chosen = set(order[:cut].tolist())
        for index, document in enumerate(docs):
            if index in chosen:
                train.append(document)
            else:
                test.append(document)
    return Corpus(train), Corpus(test)
