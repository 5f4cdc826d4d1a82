"""The scalar Chord core: the oracle for ``ChordOverlay``'s reach-index
lookup and O(log N) table rebuild.

``route`` resolves the ground-truth owner up front and tests every
interval with ``in_interval``; ``_closest_preceding`` scans fingers +
successors linearly (two ``in_interval`` calls per entry);
``_rebuild_tables_for`` resolves all 64 finger targets and walks the
successor list by re-bisecting; ``join`` scans ``_ids.values()`` for an id
collision.  The bodies are the ones ``src/repro/overlay/chord.py`` had
before the rewrite, unchanged — including ``_closest_preceding(...) or
successor``, whose ``or`` drops a best finger at peer address 0.
"""

import bisect
import types
from typing import List, Optional

from repro.errors import OverlayError
from repro.overlay.base import RouteResult
from repro.overlay.idspace import ID_BITS, ID_SPACE, in_interval, node_id_for


def join(self, address: int) -> None:
    if address in self._ids:
        return
    overlay_id = node_id_for(address)
    if overlay_id in self._ids.values():  # pragma: no cover - 64-bit space
        raise OverlayError(f"id collision for address {address}")
    self._ids[address] = overlay_id
    index = bisect.bisect_left(self._ring_ids, overlay_id)
    self._ring_ids.insert(index, overlay_id)
    self._ring_addresses.insert(index, address)
    self._rebuild_tables_for(address)


def _true_successor_address(self, key: int) -> int:
    if not self._ring_ids:
        raise OverlayError("empty ring")
    index = bisect.bisect_left(self._ring_ids, key)
    if index == len(self._ring_ids):
        index = 0
    return self._ring_addresses[index]


def _rebuild_tables_for(self, address: int) -> None:
    overlay_id = self._ids[address]
    fingers: List[int] = []
    for i in range(ID_BITS):
        target = (overlay_id + (1 << i)) % ID_SPACE
        finger = self._true_successor_address(target)
        if finger != address and (not fingers or fingers[-1] != finger):
            fingers.append(finger)
    self._fingers[address] = fingers
    successors: List[int] = []
    cursor = (overlay_id + 1) % ID_SPACE
    while len(successors) < min(self.successor_list_size, len(self._ids) - 1):
        nxt = self._true_successor_address(cursor)
        if nxt == address:
            break
        if nxt in successors:
            break
        successors.append(nxt)
        cursor = (self._ids[nxt] + 1) % ID_SPACE
    self._successors[address] = successors
    if len(self._ids) > 1:
        index = bisect.bisect_left(self._ring_ids, overlay_id)
        self._predecessors[address] = self._ring_addresses[index - 1]
    else:
        self._predecessors[address] = address
    self.entries_built += len(fingers) + len(successors) + 1


def _live_successor(self, address: int) -> Optional[int]:
    for candidate in self._successors.get(address, []):
        if candidate in self._ids:
            return candidate
    return None


def route(self, origin: int, key: int) -> RouteResult:
    self.require_member(origin)
    key = key % ID_SPACE
    true_owner = self._true_successor_address(key)
    current = origin
    path: List[int] = []
    for _ in range(self.max_hops):
        current_id = self._ids[current]
        if current_id == key or len(self._ids) == 1:
            return RouteResult(key=key, owner=current, path=path)
        predecessor = self._predecessors.get(current)
        if (
            predecessor is not None
            and predecessor in self._ids
            and in_interval(key, self._ids[predecessor], current_id)
        ):
            return RouteResult(key=key, owner=current, path=path)
        successor = self._live_successor(current)
        if successor is None:
            # Fresh node or totally stale successor list.
            if current == true_owner:
                return RouteResult(key=key, owner=current, path=path)
            return RouteResult(key=key, owner=None, path=path, success=False)
        if in_interval(key, current_id, self._ids[successor]):
            path.append(successor)
            return RouteResult(key=key, owner=successor, path=path)
        next_hop = self._closest_preceding(current, key) or successor
        if next_hop == current:
            next_hop = successor
        path.append(next_hop)
        current = next_hop
    return RouteResult(key=key, owner=None, path=path, success=False)


def _closest_preceding(self, address: int, key: int) -> Optional[int]:
    """Live finger/successor with id closest preceding ``key``."""
    current_id = self._ids[address]
    best: Optional[int] = None
    best_id = current_id
    for entry in self._fingers.get(address, []) + self._successors.get(
        address, []
    ):
        entry_id = self._ids.get(entry)
        if entry_id is None:
            continue  # stale entry: dead node
        if in_interval(entry_id, current_id, key, inclusive_right=False):
            if best is None or in_interval(
                entry_id, best_id, key, inclusive_right=False
            ):
                best = entry
                best_id = entry_id
    return best


_SCALAR_CORE = (
    join, _true_successor_address, _rebuild_tables_for, _live_successor,
    route, _closest_preceding,
)


def install_linear_scan(overlay) -> None:
    """Bind the scalar core onto ONE ``ChordOverlay`` instance.

    ``stabilize``, ``leave``, membership and the state-slot operations stay
    the instance's own: they reach the core only through the methods
    replaced here."""
    for function in _SCALAR_CORE:
        setattr(overlay, function.__name__, types.MethodType(function, overlay))
