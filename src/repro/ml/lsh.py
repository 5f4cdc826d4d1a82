"""Random-hyperplane locality-sensitive hashing.

PACE receivers "index the models using the centroids (based on locality
sensitive hashing)"; a query retrieves the top-k nearest models by probing
the query's bucket and its neighbours.  Random-hyperplane (SimHash) LSH
approximates cosine similarity, which is the natural metric for L2-normalized
text vectors.

Hyperplanes are generated from a seed shared by all peers, so every peer
hashes centroids identically without coordination — the same trick as the
hashed feature space.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from typing import Dict, Generic, Hashable, Iterable, List, Optional, Tuple, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.sparse import SparseVector

T = TypeVar("T", bound=Hashable)


class _HyperplaneTable(dict):
    """Hyperplane components for one ``(seed, num_bits)``: feature id -> row
    of ``rows``, drawn on first lookup from a generator seeded by the feature
    id alone, so no value depends on which peer or process asked first."""

    def __init__(self, seed: int, num_bits: int) -> None:
        super().__init__()
        self.seed = seed
        self.rows = np.empty((1024, num_bits), dtype=np.float64)
        self._lock = threading.Lock()  # the serial shard executor's threads

    def __missing__(self, feature_id: int) -> int:
        with self._lock:
            row = self.get(feature_id)  # drawn while this thread waited?
            if row is None:
                row = len(self)
                if row == len(self.rows):
                    self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
                rng = np.random.default_rng((self.seed << 32) ^ feature_id)
                self.rows[row] = rng.standard_normal(self.rows.shape[1])
                self[feature_id] = row  # published last: readers take no lock
        return row


@functools.lru_cache(maxsize=None)
def _shared_table(seed: int, num_bits: int) -> _HyperplaneTable:
    """The one table of this process for ``(seed, num_bits)``."""
    return _HyperplaneTable(seed, num_bits)


class RandomHyperplaneLSH(Generic[T]):
    """An LSH index mapping sparse vectors to payload objects.

    Parameters
    ----------
    num_bits:
        Signature length; buckets are ``2^num_bits`` at most.
    seed:
        Shared hyperplane seed (identical across peers).

    Every index with the same ``(seed, num_bits)`` reads one process-wide
    hyperplane table, grown lazily by one row per *observed* feature id:
    truly high-dimensional hashed spaces cost ``observed features x
    num_bits x 8`` bytes once per process, not once per peer.
    """

    def __init__(self, num_bits: int = 8, seed: int = 0) -> None:
        if not 1 <= num_bits <= 64:
            raise ConfigurationError("num_bits must be in [1, 64]")
        self.num_bits = num_bits
        self.seed = seed
        self._table = _shared_table(seed, num_bits)
        self._buckets: Dict[int, List[Tuple[SparseVector, T]]] = defaultdict(list)
        self._size = 0

    # -- hashing ------------------------------------------------------------

    def signature(self, vector: SparseVector) -> int:
        """SimHash signature of ``vector`` as an integer bucket key."""
        table = self._table
        rows = [table[feature_id] for feature_id in vector]
        values = np.fromiter(vector.values(), np.float64, len(rows))
        # A prefix sum adds the scaled rows strictly in the vector's own
        # iteration order (``sum(axis=0)`` goes pairwise when num_bits == 1).
        projection = np.add.accumulate(
            values[:, None] * table.rows[rows], axis=0
        )[-1:]
        # No rows (the empty vector) sets every bit, like a zero projection.
        bits = np.packbits((projection >= 0).all(axis=0), bitorder="little")
        return int.from_bytes(bits.tobytes(), "little")

    # -- index operations ------------------------------------------------------

    def insert(self, vector: SparseVector, payload: T, key: Optional[int] = None) -> int:
        """Index ``payload`` under ``vector``'s bucket; returns the bucket key.

        ``key`` is ``signature(vector)`` when the caller already has it: the
        hyperplanes come from a seed every peer shares, so one hashing
        serves every index a vector is stored in.
        """
        if key is None:
            key = self.signature(vector)
        self._buckets[key].append((vector, payload))
        self._size += 1
        return key

    def remove(self, payload: T) -> bool:
        """Remove every entry carrying ``payload``; True if any was removed."""
        removed = False
        for key in list(self._buckets):
            bucket = self._buckets[key]
            kept = [(v, p) for v, p in bucket if p != payload]
            if len(kept) != len(bucket):
                removed = True
                self._size -= len(bucket) - len(kept)
                if kept:
                    self._buckets[key] = kept
                else:
                    del self._buckets[key]
        return removed

    def __len__(self) -> int:
        return self._size

    def candidates(
        self,
        vector: SparseVector,
        top_k: int,
        max_probe_distance: Optional[int] = None,
    ) -> List[Tuple[SparseVector, T]]:
        """The probe half of :meth:`query`: ``(stored vector, payload)`` of
        every entry in the buckets visited, in probe order, unranked.

        Buckets are probed in order of Hamming distance from the query
        signature (multi-probe LSH) until at least ``top_k`` candidates are
        gathered or ``max_probe_distance`` is exhausted.
        """
        if top_k <= 0:
            raise ConfigurationError("top_k must be positive")
        if self._size == 0:
            return []
        max_probe = (
            self.num_bits if max_probe_distance is None else max_probe_distance
        )
        query_key = self.signature(vector)
        candidates: List[Tuple[SparseVector, T]] = []
        for distance in range(0, max_probe + 1):
            for key in self._keys_at_hamming_distance(query_key, distance):
                candidates.extend(self._buckets.get(key, ()))
            if len(candidates) >= top_k:
                break
        return candidates

    def query(
        self,
        vector: SparseVector,
        top_k: int,
        max_probe_distance: Optional[int] = None,
    ) -> List[Tuple[float, T]]:
        """Top-k nearest payloads by Euclidean distance to the stored vector.

        Ranks :meth:`candidates` exactly; ties keep probe order.  Returns
        ``(distance, payload)`` pairs sorted ascending.
        """
        scored = [
            (vector.distance(stored), payload)
            for stored, payload in self.candidates(vector, top_k, max_probe_distance)
        ]
        scored.sort(key=lambda pair: pair[0])
        return scored[:top_k]

    def _keys_at_hamming_distance(self, key: int, distance: int) -> Iterable[int]:
        """Occupied bucket keys exactly ``distance`` bit-flips from ``key``.

        For distance <= 2 we enumerate flips; beyond that we scan occupied
        buckets (cheaper than the combinatorial blow-up).
        """
        if distance == 0:
            yield key
            return
        if distance == 1:
            for bit in range(self.num_bits):
                yield key ^ (1 << bit)
            return
        if distance == 2:
            for first in range(self.num_bits):
                for second in range(first + 1, self.num_bits):
                    yield key ^ (1 << first) ^ (1 << second)
            return
        for occupied in self._buckets:
            if bin(occupied ^ key).count("1") == distance:
                yield occupied

    def bucket_sizes(self) -> Dict[int, int]:
        """Occupied bucket -> entry count (diagnostics / tests)."""
        return {key: len(bucket) for key, bucket in self._buckets.items()}
