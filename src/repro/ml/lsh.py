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
from typing import (
    Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar,
)

import numpy as np

from repro.constraints import at_least, check_value, in_range, integer
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
def _flip_masks(num_bits: int) -> Tuple[Tuple[int, ...], ...]:
    """The XOR masks of 0, 1 and 2 bit flips, by flipped bits in order."""
    bits = range(num_bits)
    return (
        (0,),
        tuple(1 << bit for bit in bits),
        tuple((1 << first) | (1 << second) for first in bits for second in bits[first + 1:]),
    )


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
        check_value("num_bits", num_bits, integer, in_range(1, 64))
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
        signature (multi-probe LSH, :meth:`probe`) until at least ``top_k``
        candidates are gathered or ``max_probe_distance`` is exhausted.
        """
        check_value("top_k", top_k, integer, at_least(1))
        if self._size == 0:
            return []
        candidates: List[Tuple[SparseVector, T]] = []
        for buckets in self.probe(vector, max_probe_distance):
            for bucket in buckets:
                candidates.extend(bucket)
            if len(candidates) >= top_k:
                break
        return candidates

    def probe(
        self, vector: SparseVector, max_probe_distance: Optional[int] = None
    ) -> Iterator[List[List[Tuple[SparseVector, T]]]]:
        """The occupied buckets around ``vector``'s signature, one list per
        Hamming distance from 0 to ``max_probe_distance`` (every bit by
        default): up to 2 flips in the order of the flipped bits, beyond
        that in the order the buckets were first filled.  Each bucket is
        its entries in insertion order (the index's own list: read only)."""
        max_probe = (
            self.num_bits if max_probe_distance is None else max_probe_distance
        )
        query_key = self.signature(vector)
        buckets = self._buckets
        # up to 2 flips every key is tried; beyond, the combinatorial
        # blow-up makes one pass over the occupied buckets cheaper
        for masks in _flip_masks(self.num_bits)[:max_probe + 1]:
            yield [
                bucket for mask in masks
                if (bucket := buckets.get(query_key ^ mask)) is not None
            ]
        if max_probe > 2:
            # every occupied bucket's distance at once, not one scan a distance
            far: List[List[List[Tuple[SparseVector, T]]]] = [
                [] for _ in range(self.num_bits + 1)
            ]
            for key, bucket in buckets.items():
                far[(key ^ query_key).bit_count()].append(bucket)
            yield from far[3:max_probe + 1]

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
