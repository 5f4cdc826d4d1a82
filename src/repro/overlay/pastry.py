"""Pastry DHT overlay (Rowstron & Druschel, 2001).

Third structured overlay for P2PDMT: prefix routing over digit-based ids
(base ``2^b``), a routing table of (row = shared-prefix length, column =
next digit) entries, and a leaf set of numerically closest nodes for the
final hop and fault tolerance.

Ownership: the live node numerically closest to the key (ties toward the
smaller id), which is what the leaf set converges to.  Like the other
overlays here, membership is ground truth while routing state goes stale
under churn until :meth:`stabilize`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import OverlayError
from repro.overlay.base import Overlay, RouteResult, StateSlot, register_overlay
from repro.overlay.idspace import ID_BITS, node_id_for


def _digits(value: int, bits_per_digit: int) -> List[int]:
    """Most-significant-first digit expansion of a 64-bit id."""
    num_digits = ID_BITS // bits_per_digit
    mask = (1 << bits_per_digit) - 1
    return [
        (value >> (ID_BITS - bits_per_digit * (i + 1))) & mask
        for i in range(num_digits)
    ]


def _shared_prefix_length(a: List[int], b: List[int]) -> int:
    length = 0
    for da, db in zip(a, b):
        if da != db:
            break
        length += 1
    return length


class PastryOverlay(Overlay):
    """A Pastry network over physical node addresses.

    Parameters
    ----------
    bits_per_digit:
        ``b`` in the paper; ids have ``64/b`` digits of base ``2^b``.
    leaf_set_size:
        Total leaf-set entries (half below, half above the node's id).
    """

    name = "pastry"

    def __init__(
        self,
        bits_per_digit: int = 4,
        leaf_set_size: int = 8,
        max_hops: int = 64,
    ) -> None:
        if ID_BITS % bits_per_digit != 0:
            raise OverlayError("bits_per_digit must divide the id width")
        if leaf_set_size < 2 or leaf_set_size % 2 != 0:
            raise OverlayError("leaf_set_size must be even and >= 2")
        self.bits_per_digit = bits_per_digit
        self.leaf_set_size = leaf_set_size
        self.max_hops = max_hops
        self._ids: Dict[int, int] = {}
        self._digit_cache: Dict[int, List[int]] = {}
        # address -> routing table: row -> column -> address
        self._tables: Dict[int, Dict[int, Dict[int, int]]] = {}
        # address -> leaf set (addresses, numerically nearest ids)
        self._leaves: Dict[int, List[int]] = {}

    def _state_slots(self):
        return {
            "ids": StateSlot(
                "dict", lambda: self._ids,
                lambda v: setattr(self, "_ids", v),
            ),
            "digit_cache": StateSlot(
                "dict", lambda: self._digit_cache,
                lambda v: setattr(self, "_digit_cache", v),
            ),
            "tables": StateSlot(
                "dict", lambda: self._tables,
                lambda v: setattr(self, "_tables", v),
            ),
            "leaves": StateSlot(
                "dict", lambda: self._leaves,
                lambda v: setattr(self, "_leaves", v),
            ),
        }

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def join(self, address: int) -> None:
        if address in self._ids:
            return
        overlay_id = node_id_for(address)
        self._ids[address] = overlay_id
        self._digit_cache[address] = _digits(overlay_id, self.bits_per_digit)
        # The joiner builds its own state immediately; existing nodes learn
        # about it lazily (they stay stale until stabilize).
        self._rebuild_for(address)

    def leave(self, address: int) -> None:
        self._ids.pop(address, None)
        self._digit_cache.pop(address, None)
        self._tables.pop(address, None)
        self._leaves.pop(address, None)

    def members(self) -> List[int]:
        return list(self._ids)

    def __contains__(self, address: int) -> bool:
        return address in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # State building
    # ------------------------------------------------------------------

    def _key_digits(self, key: int) -> List[int]:
        return _digits(key, self.bits_per_digit)

    def _rebuild_for(self, address: int) -> None:
        my_digits = self._digit_cache[address]
        table: Dict[int, Dict[int, int]] = {}
        for other, other_id in self._ids.items():
            if other == address:
                continue
            other_digits = self._digit_cache[other]
            row = _shared_prefix_length(my_digits, other_digits)
            column = other_digits[row] if row < len(other_digits) else 0
            table.setdefault(row, {}).setdefault(column, other)
        self._tables[address] = table
        my_id = self._ids[address]
        ordered = sorted(
            (other for other in self._ids if other != address),
            key=lambda o: abs(self._ids[o] - my_id),
        )
        self._leaves[address] = ordered[: self.leaf_set_size]
        self.entries_built += (
            sum(len(row) for row in table.values()) + len(self._leaves[address])
        )

    def stabilize(self) -> None:
        """Rebuild every member's routing table and leaf set."""
        for address in list(self._ids):
            self._rebuild_for(address)

    def staleness(self) -> float:
        """Fraction of routing/leaf entries pointing at dead nodes."""
        total = dead = 0
        for address in self._ids:
            entries = list(self._leaves.get(address, []))
            for row in self._tables.get(address, {}).values():
                entries.extend(row.values())
            for entry in entries:
                total += 1
                if entry not in self._ids:
                    dead += 1
        return dead / total if total else 0.0

    def neighbors(self, address: int) -> List[int]:
        self.require_member(address)
        seen: List[int] = []
        for entry in self._leaves.get(address, []):
            if entry in self._ids and entry not in seen:
                seen.append(entry)
        for row in self._tables.get(address, {}).values():
            for entry in row.values():
                if entry in self._ids and entry not in seen:
                    seen.append(entry)
        return seen

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def true_owner(self, key: int) -> int:
        """Ground truth: the live node with numerically closest id."""
        if not self._ids:
            raise OverlayError("empty overlay")
        return min(
            self._ids,
            key=lambda a: (abs(self._ids[a] - key), self._ids[a]),
        )

    def _closest_in_leaves(self, address: int, key: int) -> Optional[int]:
        """Best live candidate among the node itself and its leaf set."""
        candidates = [address] + [
            leaf for leaf in self._leaves.get(address, []) if leaf in self._ids
        ]
        return min(
            candidates,
            key=lambda a: (abs(self._ids[a] - key), self._ids[a]),
            default=None,
        )

    def _known_live(self, address: int) -> List[int]:
        """Every live node this node's state references (leaves + table)."""
        known: List[int] = []
        for entry in self._leaves.get(address, []):
            if entry in self._ids and entry not in known:
                known.append(entry)
        for row in self._tables.get(address, {}).values():
            for entry in row.values():
                if entry in self._ids and entry not in known:
                    known.append(entry)
        return known

    def route(self, origin: int, key: int) -> RouteResult:
        """Pastry routing: prefix hop when possible, else the "rare case" —
        any known node with >= shared prefix that is numerically closer.

        Each hop either lengthens the shared prefix or (at equal prefix)
        strictly shrinks the numeric distance, so routing terminates.
        """
        self.require_member(origin)
        key_digits = self._key_digits(key)
        current = origin
        path: List[int] = []
        for _ in range(self.max_hops):
            current_digits = self._digit_cache[current]
            row = _shared_prefix_length(current_digits, key_digits)
            # Prefix routing: a live table entry matching one more digit.
            next_hop: Optional[int] = None
            table_row = self._tables.get(current, {}).get(row, {})
            candidate = table_row.get(key_digits[row])
            if candidate is not None and candidate in self._ids:
                next_hop = candidate
            if next_hop is None:
                # Rare case: best known node with >= prefix, strictly closer.
                current_distance = abs(self._ids[current] - key)
                closer = [
                    node
                    for node in self._known_live(current)
                    if _shared_prefix_length(
                        self._digit_cache[node], key_digits
                    ) >= row
                    and abs(self._ids[node] - key) < current_distance
                ]
                if closer:
                    next_hop = min(closer, key=lambda a: abs(self._ids[a] - key))
                else:
                    # Nothing closer anywhere in our state: deliver here (or
                    # at the numerically best leaf, the final-hop rule).
                    best_leaf = self._closest_in_leaves(current, key)
                    if best_leaf is not None and best_leaf != current:
                        path.append(best_leaf)
                        return RouteResult(key=key, owner=best_leaf, path=path)
                    return RouteResult(key=key, owner=current, path=path)
            path.append(next_hop)
            current = next_hop
        return RouteResult(key=key, owner=None, path=path, success=False)


register_overlay("pastry", lambda **config: PastryOverlay())
