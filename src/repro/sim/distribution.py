"""Training-data distribution across peers (P2PDMT "Distribute data").

The demo varies "the size and class distributions" of peer data; this module
implements both axes:

- **size distribution** — how many documents each peer holds: ``uniform``
  (balanced) or ``zipf`` (a few data-rich peers, many data-poor ones);
- **class distribution** — which *tags* a peer's documents concentrate on:
  ``iid`` (random assignment) or ``dirichlet`` (peers have skewed tag
  preferences; smaller alpha = more skew).

The distributor *re-assigns ownership* of a corpus's documents, producing a
new corpus whose owners are peer indices 0..N-1.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from typing import Dict, List

import numpy as np

from repro.constraints import (
    at_least, check, finite, in_range, integer, one_of, positive, setting,
)
from repro.data.corpus import Corpus, Document
from repro.errors import DataError


#: peers a simulation builds: each is a SimNode and overlay state in memory
MAX_PEERS = 2 ** 20


@dataclass
class ShardSpec:
    """How to shard a corpus across ``num_peers`` peers."""

    num_peers: int = setting(MISSING, integer, in_range(1, MAX_PEERS))
    size_distribution: str = setting("uniform", one_of(("uniform", "zipf")))
    class_distribution: str = setting("iid", one_of(("iid", "dirichlet")))
    zipf_exponent: float = setting(1.0, finite, at_least(0))
    dirichlet_alpha: float = setting(1.0, finite, positive)
    seed: int = setting(0, integer, at_least(0))

    def validate(self) -> None:
        check(self, DataError)


class DataDistributor:
    """Re-shards a corpus across simulated peers according to a spec."""

    def __init__(self, spec: ShardSpec) -> None:
        spec.validate()
        self.spec = spec

    def distribute(self, corpus: Corpus) -> Corpus:
        """Return a corpus whose owners are peers 0..num_peers-1.

        Every peer receives at least one document when possible.
        """
        if len(corpus) == 0:
            raise DataError("cannot distribute an empty corpus")
        if len(corpus) < self.spec.num_peers:
            raise DataError(
                f"{len(corpus)} documents cannot cover {self.spec.num_peers} peers"
            )
        rng = np.random.default_rng(self.spec.seed)
        capacities = self._peer_capacities(len(corpus), rng)
        assignment = self._assign(corpus, capacities, rng)
        return Corpus(
            [
                Document(
                    doc_id=document.doc_id,
                    text=document.text,
                    tags=document.tags,
                    owner=assignment[document.doc_id],
                )
                for document in corpus
            ]
        )

    # ------------------------------------------------------------------

    def _peer_capacities(
        self, num_documents: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Target shard sizes summing to ``num_documents``, each >= 1."""
        n = self.spec.num_peers
        if self.spec.size_distribution == "uniform":
            weights = np.ones(n)
        else:
            ranks = np.arange(1, n + 1, dtype=np.float64)
            weights = ranks ** (-self.spec.zipf_exponent)
            weights = rng.permutation(weights)  # skew not tied to peer id order
        weights = weights / weights.sum()
        capacities = np.maximum(1, np.floor(weights * num_documents).astype(int))
        # Fix rounding drift while respecting the >=1 floor.
        while capacities.sum() > num_documents:
            candidates = np.where(capacities > 1)[0]
            capacities[candidates[int(rng.integers(len(candidates)))]] -= 1
        while capacities.sum() < num_documents:
            capacities[int(rng.integers(n))] += 1
        return capacities

    def _assign(
        self,
        corpus: Corpus,
        capacities: np.ndarray,
        rng: np.random.Generator,
    ) -> Dict[int, int]:
        """Map doc_id -> peer index, respecting capacities and class skew."""
        documents = corpus.documents
        order = rng.permutation(len(documents))
        remaining = capacities.copy()
        assignment: Dict[int, int] = {}

        if self.spec.class_distribution == "iid":
            peer_iter: List[int] = []
            for peer, capacity in enumerate(remaining):
                peer_iter.extend([peer] * int(capacity))
            peer_sequence = rng.permutation(np.array(peer_iter))
            for position, doc_index in enumerate(order):
                assignment[documents[doc_index].doc_id] = int(
                    peer_sequence[position]
                )
            return assignment

        # Dirichlet class skew: each peer draws a preference distribution
        # over tags; each document goes to an available peer proportionally
        # to that peer's preference for the document's tags.
        tags = corpus.tag_universe()
        if not tags:
            raise DataError("dirichlet distribution requires tagged documents")
        tag_index = {tag: i for i, tag in enumerate(tags)}
        alpha = np.full(len(tags), self.spec.dirichlet_alpha)
        preferences = rng.dirichlet(alpha, size=self.spec.num_peers)

        for doc_index in order:
            document = documents[doc_index]
            available = np.where(remaining > 0)[0]
            if len(available) == 0:
                raise DataError("capacity accounting exhausted prematurely")
            if document.tags:
                doc_tag_ids = [tag_index[t] for t in document.tags if t in tag_index]
                scores = preferences[available][:, doc_tag_ids].sum(axis=1) + 1e-12
            else:
                scores = np.ones(len(available))
            probabilities = scores / scores.sum()
            chosen = int(available[rng.choice(len(available), p=probabilities)])
            assignment[document.doc_id] = chosen
            remaining[chosen] -= 1
        return assignment
