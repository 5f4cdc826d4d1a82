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

from repro.constraints import below, check_value, positive
from repro.data.corpus import Corpus, Document
from repro.errors import DataError

#: what ``train_fraction`` admits, here and as ``SystemConfig``'s field:
#: a split that trains on every document leaves nothing to tag
TRAIN_FRACTION = (positive, below(1))


def per_user_split(
    corpus: Corpus, train_fraction: float = 0.2, seed: int = 0
) -> Tuple[Corpus, Corpus]:
    """Per-user split: every owner keeps ``train_fraction`` labeled docs.

    Guarantees at least one training document per user (a peer with zero
    labeled documents would have no local model to contribute).
    """
    check_value("train_fraction", train_fraction, *TRAIN_FRACTION,
                error=DataError)
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
