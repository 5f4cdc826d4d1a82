"""Kademlia DHT overlay (Maymounkov & Mazières, 2002).

XOR metric, per-bit k-buckets, and iterative alpha-parallel lookups.  As with
Chord, membership is ground truth while routing tables go stale under churn
until :meth:`stabilize` (bucket refresh) runs.  A lookup's hop path charges
one hop per *contacted* node, including timed-out contacts to dead nodes —
the dominant churn cost in deployed Kademlia networks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.overlay.base import Overlay, RouteResult, StateSlot, register_overlay
from repro.overlay.idspace import ID_BITS, node_id_for, xor_distance


class KademliaOverlay(Overlay):
    """A Kademlia network over physical node addresses.

    Parameters
    ----------
    k:
        Bucket capacity (and result-set size).
    alpha:
        Lookup parallelism.
    seed:
        Seed for bucket sampling during joins/refreshes.
    """

    name = "kademlia"

    def __init__(self, k: int = 8, alpha: int = 3, seed: int = 0) -> None:
        self.k = k
        self.alpha = alpha
        self._rng = np.random.default_rng(seed)
        self._ids: Dict[int, int] = {}  # address -> overlay id
        self._buckets: Dict[int, List[List[int]]] = {}  # address -> buckets

    def _set_rng_state(self, state) -> None:
        self._rng.bit_generator.state = state

    def _state_slots(self):
        # The sampling RNG is a state slot: join ops replicated on directory
        # views consume it exactly like the authority, and served stabilize
        # edits carry the post-refresh state so views never drift.
        return {
            "ids": StateSlot(
                "dict", lambda: self._ids,
                lambda v: setattr(self, "_ids", v),
            ),
            "buckets": StateSlot(
                "dict", lambda: self._buckets,
                lambda v: setattr(self, "_buckets", v),
            ),
            "rng": StateSlot(
                "value", lambda: self._rng.bit_generator.state,
                self._set_rng_state,
            ),
        }

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def join(self, address: int) -> None:
        if address in self._ids:
            return
        self._ids[address] = node_id_for(address)
        self._buckets[address] = [[] for _ in range(ID_BITS)]
        # The joiner performs a self-lookup: it learns contacts across
        # distance scales, and the nodes it contacts learn about it.
        self._populate_buckets(address)
        for other in list(self._ids):
            if other != address:
                self._insert_contact(other, address)

    def leave(self, address: int) -> None:
        """Crash-style departure; other nodes keep stale contacts."""
        self._ids.pop(address, None)
        self._buckets.pop(address, None)

    def members(self) -> List[int]:
        return list(self._ids)

    def __contains__(self, address: int) -> bool:
        return address in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Buckets
    # ------------------------------------------------------------------

    def _bucket_index(self, owner_id: int, other_id: int) -> int:
        distance = xor_distance(owner_id, other_id)
        if distance == 0:
            return 0
        return distance.bit_length() - 1

    def _insert_contact(self, owner: int, contact: int) -> None:
        if owner == contact or owner not in self._buckets:
            return
        bucket = self._buckets[owner][
            self._bucket_index(self._ids[owner], self._ids[contact])
        ]
        if contact in bucket:
            return
        if len(bucket) < self.k:
            bucket.append(contact)
            self.entries_built += 1
            return
        # Kademlia evicts a dead head; otherwise the newcomer is dropped.
        head = bucket[0]
        if head not in self._ids:
            bucket.pop(0)
            bucket.append(contact)
            self.entries_built += 1

    def _populate_buckets(self, address: int) -> None:
        """Fill the node's buckets from current members (join-time lookups)."""
        others = [a for a in self._ids if a != address]
        if not others:
            return
        sample_size = min(len(others), self.k * 4)
        chosen = self._rng.choice(len(others), size=sample_size, replace=False)
        for index in chosen:
            self._insert_contact(address, others[int(index)])

    def stabilize(self) -> None:
        """Bucket refresh: drop dead contacts, re-learn live ones."""
        for address in list(self._ids):
            for bucket in self._buckets[address]:
                bucket[:] = [c for c in bucket if c in self._ids]
            self._populate_buckets(address)

    def staleness(self) -> float:
        """Fraction of bucket entries pointing at dead nodes."""
        total = dead = 0
        for address, buckets in self._buckets.items():
            for bucket in buckets:
                for contact in bucket:
                    total += 1
                    if contact not in self._ids:
                        dead += 1
        return dead / total if total else 0.0

    def neighbors(self, address: int) -> List[int]:
        self.require_member(address)
        result: List[int] = []
        for bucket in self._buckets[address]:
            for contact in bucket:
                if contact in self._ids and contact not in result:
                    result.append(contact)
        return result

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _known_closest(self, address: int, key: int, count: int) -> List[int]:
        """The ``count`` contacts of ``address`` closest to ``key`` (may be dead)."""
        contacts: List[int] = []
        for bucket in self._buckets.get(address, []):
            contacts.extend(bucket)
        contacts.sort(key=lambda c: xor_distance(self._ids.get(c, node_id_for(c)), key))
        return contacts[:count]

    def true_owner(self, key: int) -> Optional[int]:
        """Ground-truth closest live node to ``key``."""
        if not self._ids:
            return None
        return min(self._ids, key=lambda a: xor_distance(self._ids[a], key))

    def route(self, origin: int, key: int) -> RouteResult:
        self.require_member(origin)
        if len(self._ids) == 1:
            return RouteResult(key=key, owner=origin, path=[])

        def distance_of(address: int) -> int:
            return xor_distance(self._ids.get(address, node_id_for(address)), key)

        shortlist: List[int] = list(self._known_closest(origin, key, self.k))
        if not shortlist:
            return RouteResult(key=key, owner=origin, path=[], success=False)
        queried: Set[int] = {origin}
        path: List[int] = []
        best_live: Optional[int] = origin if origin in self._ids else None

        improved = True
        while improved:
            improved = False
            shortlist.sort(key=distance_of)
            batch = [c for c in shortlist if c not in queried][: self.alpha]
            if not batch:
                break
            for contact in batch:
                queried.add(contact)
                path.append(contact)  # one hop charged, dead or alive
                if contact not in self._ids:
                    continue  # timeout on a churned-out contact
                if best_live is None or distance_of(contact) < distance_of(best_live):
                    best_live = contact
                    improved = True
                for learned in self._known_closest(contact, key, self.k):
                    if learned not in shortlist:
                        shortlist.append(learned)
                        improved = True
        if best_live is None:
            return RouteResult(key=key, owner=None, path=path, success=False)
        return RouteResult(key=key, owner=best_live, path=path)


register_overlay(
    "kademlia", lambda **config: KademliaOverlay(seed=config.get("seed", 0))
)
