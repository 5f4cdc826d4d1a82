"""Chord DHT overlay (Stoica et al., 2001).

Finger tables give O(log N) routing; successor lists give fault tolerance.
Churn realism: a crash updates ring *membership* immediately (ground truth of
who owns what), but other nodes' finger tables and successor lists stay stale
until :meth:`stabilize` runs — so lookups between a crash and the next
stabilization round take more hops or fail, exactly the behaviour the churn
experiment measures.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.errors import OverlayError
from repro.overlay.base import Overlay, RouteResult, StateSlot, register_overlay
from repro.overlay.idspace import ID_BITS, ID_SPACE, node_id_for

_MASK = ID_SPACE - 1  # x & _MASK == x % ID_SPACE: clockwise distances, inline
#: (fingers, successors, distances, entries) — see ChordOverlay._index_reach
_Reach = Tuple[Optional[List[int]], Optional[List[int]], List[int], List[int]]


class ChordOverlay(Overlay):
    """A Chord ring over physical node addresses.

    Parameters
    ----------
    successor_list_size:
        Number of successors each node tracks (fault tolerance under churn).
    max_hops:
        Routing loop guard.
    """

    name = "chord"

    def __init__(self, successor_list_size: int = 4, max_hops: int = 128) -> None:
        self.successor_list_size = successor_list_size
        self.max_hops = max_hops
        self._ids: Dict[int, int] = {}  # address -> overlay id
        self._ring_ids: List[int] = []  # sorted overlay ids of live members
        self._ring_addresses: List[int] = []  # parallel to _ring_ids
        self._fingers: Dict[int, List[int]] = {}  # address -> finger addresses
        self._successors: Dict[int, List[int]] = {}  # address -> successor addrs
        self._predecessors: Dict[int, int] = {}  # address -> predecessor addr
        # address -> (fingers, successors, distances, entries): the reach
        # index of the nodes that have routed; derived (see _index_reach),
        # so not a state slot.
        self._reach: Dict[int, _Reach] = {}

    def _state_slots(self):
        return {
            "ids": StateSlot(
                "dict", lambda: self._ids,
                lambda v: setattr(self, "_ids", v),
            ),
            "ring_ids": StateSlot(
                "value", lambda: self._ring_ids,
                lambda v: setattr(self, "_ring_ids", v),
            ),
            "ring_addresses": StateSlot(
                "value", lambda: self._ring_addresses,
                lambda v: setattr(self, "_ring_addresses", v),
            ),
            "fingers": StateSlot(
                "dict", lambda: self._fingers,
                lambda v: setattr(self, "_fingers", v),
            ),
            "successors": StateSlot(
                "dict", lambda: self._successors,
                lambda v: setattr(self, "_successors", v),
            ),
            "predecessors": StateSlot(
                "dict", lambda: self._predecessors,
                lambda v: setattr(self, "_predecessors", v),
            ),
        }

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def join(self, address: int) -> None:
        if address in self._ids:
            return
        overlay_id = node_id_for(address)
        index = bisect_left(self._ring_ids, overlay_id)
        if index < len(self._ring_ids) and self._ring_ids[index] == overlay_id:
            raise OverlayError(  # pragma: no cover - 64-bit space
                f"id collision for address {address}"
            )
        self._ids[address] = overlay_id
        self._ring_ids.insert(index, overlay_id)
        self._ring_addresses.insert(index, address)
        # The joining node builds its own tables immediately (it performed a
        # lookup-driven join); existing nodes stay stale until stabilize().
        self._rebuild_tables_for(address)

    def leave(self, address: int) -> None:
        """Crash-style departure: membership changes, others' tables stale."""
        overlay_id = self._ids.pop(address, None)
        if overlay_id is None:
            return
        index = bisect_left(self._ring_ids, overlay_id)
        del self._ring_ids[index]
        del self._ring_addresses[index]
        self._fingers.pop(address, None)
        self._successors.pop(address, None)
        self._predecessors.pop(address, None)
        self._reach.pop(address, None)

    def members(self) -> List[int]:
        return list(self._ids)

    def __contains__(self, address: int) -> bool:
        return address in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Table maintenance
    # ------------------------------------------------------------------

    def _true_successor_address(self, key: int) -> int:
        """Ground-truth owner: first live node clockwise from ``key``."""
        if not self._ring_ids:
            raise OverlayError("empty ring")
        index = bisect_left(self._ring_ids, key)
        if index == len(self._ring_ids):
            index = 0
        return self._ring_addresses[index]

    def _rebuild_tables_for(self, address: int) -> None:
        overlay_id = self._ids[address]
        ring_ids, ring_addresses = self._ring_ids, self._ring_addresses
        size = len(ring_ids)
        fingers: List[int] = []
        i = 0
        while i < ID_BITS:
            index = bisect_left(ring_ids, (overlay_id + (1 << i)) & _MASK)
            if index == size:
                index = 0
            if ring_addresses[index] == address:
                break  # nobody lies beyond this target, nor beyond a later one
            fingers.append(ring_addresses[index])
            # Every target up to the finger's own id resolves to it again:
            # skip to the first power of two that reaches past it.
            i = ((ring_ids[index] - overlay_id) & _MASK).bit_length()
        self._fingers[address] = fingers
        own = bisect_left(ring_ids, overlay_id)
        successors = [
            ring_addresses[(own + step) % size]
            for step in range(1, min(self.successor_list_size, size - 1) + 1)
        ]
        self._successors[address] = successors
        # Alone on the ring, index -1 is the node itself.
        self._predecessors[address] = ring_addresses[own - 1]
        self.entries_built += len(fingers) + len(successors) + 1

    def stabilize(self) -> None:
        """Repair every member's fingers and successor lists."""
        for address in list(self._ids):
            self._rebuild_tables_for(address)

    def staleness(self) -> float:
        """Fraction of routing-table entries pointing at dead nodes."""
        total = dead = 0
        for address in self._ids:
            for entry in self._fingers.get(address, []) + self._successors.get(
                address, []
            ):
                total += 1
                if entry not in self._ids:
                    dead += 1
        return dead / total if total else 0.0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def neighbors(self, address: int) -> List[int]:
        self.require_member(address)
        seen: List[int] = []
        for entry in self._successors.get(address, []) + self._fingers.get(
            address, []
        ):
            if entry in self._ids and entry not in seen:
                seen.append(entry)
        return seen

    def route(self, origin: int, key: int) -> RouteResult:
        self.require_member(origin)
        key = key % ID_SPACE
        ids = self._ids
        alone = len(ids) == 1
        current = origin
        path: List[int] = []
        for _ in range(self.max_hops):
            current_id = ids[current]
            ahead = (key - current_id) & _MASK  # clockwise, current -> key
            if ahead == 0 or alone:
                return RouteResult(key=key, owner=current, path=path)
            predecessor_id = ids.get(self._predecessors.get(current))
            if predecessor_id is not None:  # known and still alive
                # key in (predecessor, current]; a span of 0 is a node whose
                # predecessor is still itself (it joined an empty ring and
                # has not stabilized): the full circle, it claims every key.
                span = (current_id - predecessor_id) & _MASK
                if span == 0 or ahead + span > ID_SPACE:
                    return RouteResult(key=key, owner=current, path=path)
            for successor in self._successors.get(current, ()):
                if successor in ids:
                    break
            else:
                # Fresh node or totally stale successor list.
                if current == self._true_successor_address(key):
                    return RouteResult(key=key, owner=current, path=path)
                return RouteResult(key=key, owner=None, path=path, success=False)
            if ahead <= (ids[successor] - current_id) & _MASK:
                path.append(successor)
                return RouteResult(key=key, owner=successor, path=path)
            next_hop = self._closest_preceding(current, key)
            if next_hop is None or next_hop == 0:
                # None: no live entry precedes the key.  0: the best entry is
                # the peer whose *address* is 0 — the scalar core wrote
                # ``_closest_preceding(...) or successor`` and 0 is falsy, so
                # that finger was never taken.  A routing bug, but the golden
                # digests pin the paths it produces (chord-nbagg-churn-2), so
                # it is reproduced here and fixed with ROADMAP item 3(b)'s
                # re-pin; tests/test_chord_oracle.py holds today's path.
                next_hop = successor
            path.append(next_hop)
            current = next_hop
        return RouteResult(key=key, owner=None, path=path, success=False)

    def _closest_preceding(self, address: int, key: int) -> Optional[int]:
        """Live finger/successor with id closest preceding ``key``.

        ``key`` must differ from the node's own id (``route`` returns before
        asking).  One bisect over the node's reach index, then a walk back
        over entries that have died since their table was built.
        """
        ids = self._ids
        reach = self._reach.get(address)
        if (
            reach is None
            or reach[0] is not self._fingers.get(address)
            or reach[1] is not self._successors.get(address)
        ):
            reach = self._index_reach(address)
        _, _, distances, addresses = reach
        index = bisect_left(distances, (key - ids[address]) & _MASK) - 1
        while index >= 0:
            if addresses[index] in ids:
                return addresses[index]
            index -= 1
        return None

    def _index_reach(self, address: int) -> _Reach:
        """Merge the node's fingers and successors into its reach index:
        clockwise distances from the node, ascending, and the entry at each.

        Derived, never state: directory views have ``_fingers[a]`` /
        ``_successors[a]`` replaced straight in the dicts by
        ``apply_state_edits``, which no hook here sees, so the index keeps
        the two lists it was built from and is valid exactly while they are
        still the node's lists (``_closest_preceding`` checks by identity).
        A dead entry keeps its place — it may rejoin — at the id its address
        hashes to, since ``_ids`` has forgotten it.
        """
        ids = self._ids
        own_id = ids[address]
        fingers = self._fingers.get(address)
        successors = self._successors.get(address)
        by_distance = {
            ((ids[entry] if entry in ids else node_id_for(entry)) - own_id)
            & _MASK: entry
            for entry in (fingers or []) + (successors or [])
        }
        distances = sorted(by_distance)
        reach = (
            fingers, successors, distances,
            [by_distance[distance] for distance in distances],
        )
        self._reach[address] = reach
        return reach


register_overlay("chord", lambda **config: ChordOverlay())
