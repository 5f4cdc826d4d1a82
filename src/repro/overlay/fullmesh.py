"""Full-mesh overlay: every member links directly to every other member.

The idealized control point for the overlay ablation: key ownership follows
the same ring-successor rule as Chord (so DHT-based protocols work
unchanged), but every lookup resolves in exactly one hop and broadcast needs
no flooding.  Comparing a real overlay against the mesh isolates routing
stretch from protocol cost.  A mesh is only deployable at small N (O(N²)
links), which is precisely why the structured overlays exist — the ablation
makes that argument measurable.
"""

from __future__ import annotations

import bisect
from typing import Dict, List

from repro.overlay.base import Overlay, RouteResult, StateSlot, register_overlay
from repro.overlay.idspace import ID_SPACE, node_id_for


class FullMeshOverlay(Overlay):
    """All-pairs connectivity with ring-successor key ownership."""

    name = "fullmesh"

    def __init__(self) -> None:
        self._ids: Dict[int, int] = {}  # address -> overlay id
        self._ring_ids: List[int] = []  # sorted overlay ids
        self._ring_addresses: List[int] = []  # parallel to _ring_ids

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
        }

    # -- membership ----------------------------------------------------------

    def join(self, address: int) -> None:
        if address in self._ids:
            return
        overlay_id = node_id_for(address)
        self._ids[address] = overlay_id
        index = bisect.bisect_left(self._ring_ids, overlay_id)
        self._ring_ids.insert(index, overlay_id)
        self._ring_addresses.insert(index, address)
        self.entries_built += 1

    def leave(self, address: int) -> None:
        overlay_id = self._ids.pop(address, None)
        if overlay_id is None:
            return
        index = bisect.bisect_left(self._ring_ids, overlay_id)
        del self._ring_ids[index]
        del self._ring_addresses[index]

    def members(self) -> List[int]:
        return list(self._ids)

    def __contains__(self, address: int) -> bool:
        return address in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    # -- routing -------------------------------------------------------------

    def route(self, origin: int, key: int) -> RouteResult:
        """Owner is the ring successor of ``key``; always one direct hop."""
        self.require_member(origin)
        key = key % ID_SPACE
        index = bisect.bisect_left(self._ring_ids, key)
        if index == len(self._ring_ids):
            index = 0
        owner = self._ring_addresses[index]
        if owner == origin:
            return RouteResult(key=key, owner=owner, path=[])
        return RouteResult(key=key, owner=owner, path=[owner])

    def neighbors(self, address: int) -> List[int]:
        self.require_member(address)
        return sorted(a for a in self._ids if a != address)


register_overlay("fullmesh", lambda **config: FullMeshOverlay())
