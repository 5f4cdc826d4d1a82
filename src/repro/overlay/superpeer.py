"""Deterministic super-peer election over a DHT (CEMPaR's regions), and a
two-tier super-peer *overlay* registered as ``superpeer``.

The paper: "super-peers are automatically elected from the P2P network and
are located in a deterministic manner, made possible through the use of the
DHT-based P2P network."

Two realizations live here:

- :class:`SuperPeerDirectory` — a directory *over* any DHT overlay: the id
  space is split into ``num_regions`` regions; the super-peer for
  (tag, region) is the DHT owner of ``key_id_for("sp|tag|r")``.  Any peer
  can compute that key locally and route to it — no coordination, and after
  churn the DHT's new owner of the key *is* the new super-peer, which is
  how responsibility migrates.
- :class:`SuperPeerOverlay` — a routing overlay in its own right
  (``make_overlay("superpeer")``): a deterministically elected core of
  super-peers owns the whole key space on a successor ring, and every leaf
  peer routes through its attachment super-peer.  Lookups cost at most two
  hops (leaf → its super-peer → owning super-peer), concentrating routing
  state and key responsibility on the core — the classic
  Gnutella-0.6/FastTrack topology, and a mid-point between ``fullmesh``
  (one hop, O(N²) links) and the structured DHTs (log-factor hops).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.errors import OverlayError
from repro.overlay.base import Overlay, RouteResult, StateSlot, register_overlay
from repro.overlay.idspace import ID_SPACE, key_id_for, node_id_for


class SuperPeerDirectory:
    """Resolves (tag, region) -> super-peer through an overlay."""

    def __init__(self, overlay: Overlay, num_regions: int = 2) -> None:
        if num_regions < 1:
            raise OverlayError("num_regions must be >= 1")
        self.overlay = overlay
        self.num_regions = num_regions
        # (tag, region) -> DHT key: a query looks every label up again
        self._keys: Dict[Tuple[str, int], int] = {}

    @staticmethod
    def label(tag: str, region: int) -> str:
        """The well-known DHT key label for a (tag, region) super-peer."""
        return f"sp|{tag}|{region}"

    def key_for(self, tag: str, region: int) -> int:
        key = self._keys.get((tag, region))
        if key is None:
            key = self._keys[tag, region] = key_id_for(self.label(tag, region))
        return key

    def region_of(self, address: int) -> int:
        """The region a peer reports into (deterministic, balanced)."""
        return key_id_for(f"region|{address}") % self.num_regions

    def locate(self, origin: int, tag: str, region: int) -> RouteResult:
        """Route from ``origin`` to the super-peer for (tag, region)."""
        return self.overlay.route(origin, self.key_for(tag, region))

    def locate_all(
        self, origin: int, tag: str
    ) -> List[Tuple[int, RouteResult]]:
        """Routes to every regional super-peer for ``tag``.

        Returns (region, route) pairs; failed routes are included so callers
        can count lookup failures under churn.
        """
        return [
            (region, self.locate(origin, tag, region))
            for region in range(self.num_regions)
        ]

    def owners(self, origin: int, tag: str) -> Dict[int, Optional[int]]:
        """region -> super-peer address (None where lookup failed)."""
        return {
            region: route.owner if route.success else None
            for region, route in self.locate_all(origin, tag)
        }


class _Ring:
    """A sorted successor ring of (overlay id, address) pairs."""

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.addresses: List[int] = []  # parallel to ids

    def add(self, overlay_id: int, address: int) -> None:
        index = bisect.bisect_left(self.ids, overlay_id)
        self.ids.insert(index, overlay_id)
        self.addresses.insert(index, address)

    def remove(self, overlay_id: int) -> None:
        index = bisect.bisect_left(self.ids, overlay_id)
        del self.ids[index]
        del self.addresses[index]

    def successor(self, key: int) -> int:
        """Address of the first ring member at or after ``key`` (wrapping)."""
        index = bisect.bisect_left(self.ids, key)
        if index == len(self.ids):
            index = 0
        return self.addresses[index]

    def __len__(self) -> int:
        return len(self.ids)


class SuperPeerOverlay(Overlay):
    """Two-tier overlay: an elected super-peer core, leaves attached to it.

    Election is local and deterministic: a peer is a super-peer iff the hash
    of its address falls in the bottom ``1/ratio`` of the id space — no
    coordination, stable across joins/leaves, and independent of join order
    (the property the directory's "located in a deterministic manner" claim
    rests on).  Super-peers form a successor ring that owns the whole key
    space; each leaf attaches to the super-peer succeeding its own id.

    Routing: leaf → its attachment super-peer → the key's owning super-peer
    (at most two hops; fewer when the origin is a super-peer or the hops
    coincide).  When churn empties the core entirely, the live members
    degrade to a flat successor ring so lookups keep resolving — the
    overlay heals as soon as any super-peer rejoins.
    """

    name = "superpeer"

    def __init__(self, ratio: int = 4) -> None:
        if ratio < 1:
            raise OverlayError("ratio must be >= 1")
        self.ratio = ratio
        self._ids: Dict[int, int] = {}  # address -> overlay id
        self._members = _Ring()
        self._core = _Ring()  # super-peers only

    def _state_slots(self):
        def ring_slot(ring: _Ring, attr: str) -> StateSlot:
            return StateSlot(
                "value", lambda: getattr(ring, attr),
                lambda v: setattr(ring, attr, v),
            )

        return {
            "ids": StateSlot(
                "dict", lambda: self._ids,
                lambda v: setattr(self, "_ids", v),
            ),
            "member_ids": ring_slot(self._members, "ids"),
            "member_addresses": ring_slot(self._members, "addresses"),
            "core_ids": ring_slot(self._core, "ids"),
            "core_addresses": ring_slot(self._core, "addresses"),
        }

    @staticmethod
    def _election_hash(address: int) -> int:
        return key_id_for(f"sp-elect|{address}")

    def is_super_peer(self, address: int) -> bool:
        """Deterministic election: bottom 1/ratio slice of the id space."""
        return self._election_hash(address) < ID_SPACE // self.ratio

    # -- membership ----------------------------------------------------------

    def join(self, address: int) -> None:
        if address in self._ids:
            return
        overlay_id = node_id_for(address)
        if overlay_id in self._ids.values():  # pragma: no cover - 64-bit space
            raise OverlayError(f"id collision for address {address}")
        self._ids[address] = overlay_id
        self._members.add(overlay_id, address)
        self.entries_built += 1
        if self.is_super_peer(address):
            self._core.add(overlay_id, address)
            self.entries_built += 1

    def leave(self, address: int) -> None:
        overlay_id = self._ids.pop(address, None)
        if overlay_id is None:
            return
        self._members.remove(overlay_id)
        if self.is_super_peer(address):
            self._core.remove(overlay_id)

    def members(self) -> List[int]:
        return list(self._ids)

    def super_peers(self) -> List[int]:
        """Live super-peer addresses in ring order."""
        return list(self._core.addresses)

    def __contains__(self, address: int) -> bool:
        return address in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    # -- routing -------------------------------------------------------------

    def _routing_ring(self) -> _Ring:
        """The core ring, or the flat member ring when the core is empty."""
        return self._core if len(self._core) else self._members

    def attachment(self, address: int) -> int:
        """The super-peer a member routes through (itself, for core peers)."""
        self.require_member(address)
        if len(self._core) == 0 or self.is_super_peer(address):
            return address
        return self._core.successor(self._ids[address])

    def route(self, origin: int, key: int) -> RouteResult:
        self.require_member(origin)
        key = key % ID_SPACE
        owner = self._routing_ring().successor(key)
        if owner == origin:
            return RouteResult(key=key, owner=owner, path=[])
        path: List[int] = []
        attach = self.attachment(origin)
        if attach not in (origin, owner):
            path.append(attach)
        path.append(owner)
        return RouteResult(key=key, owner=owner, path=path)

    def neighbors(self, address: int) -> List[int]:
        """Leaves link to their super-peer; super-peers link to the rest of
        the core plus their attached leaves."""
        self.require_member(address)
        if len(self._core) == 0:
            return sorted(a for a in self._ids if a != address)
        if not self.is_super_peer(address):
            return [self._core.successor(self._ids[address])]
        core = [a for a in self._core.addresses if a != address]
        leaves = [
            a
            for a in self._ids
            if a != address
            and not self.is_super_peer(a)
            and self._core.successor(self._ids[a]) == address
        ]
        return sorted(core + leaves)


register_overlay("superpeer", lambda **config: SuperPeerOverlay(
    ratio=int(config.get("superpeer_ratio", 4))
))
