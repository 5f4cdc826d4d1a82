"""Unstructured overlay: random graph with flooding and gossip broadcast.

PACE propagates models "to all other peers"; on an unstructured overlay that
is a flood (TTL-bounded) or a push-gossip.  Both primitives report exactly
what the experiments charge: which peers were reached and how many messages
were sent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from repro.errors import OverlayError
from repro.overlay.base import Overlay, RouteResult, StateSlot, register_overlay
from repro.overlay.idspace import node_id_for


@dataclass
class BroadcastResult:
    """Outcome of a flood or gossip broadcast."""

    origin: int
    reached: Set[int] = field(default_factory=set)
    messages: int = 0
    rounds: int = 0

    def coverage(self, population: int) -> float:
        if population <= 0:
            return 0.0
        return len(self.reached) / population


class UnstructuredOverlay(Overlay):
    """A random graph where each joiner links to ``degree`` existing nodes."""

    name = "unstructured"

    def __init__(self, degree: int = 4, seed: int = 0) -> None:
        if degree < 1:
            raise OverlayError("degree must be >= 1")
        self.degree = degree
        self._rng = np.random.default_rng(seed)
        self._edges: Dict[int, Set[int]] = {}

    def _set_rng_state(self, state) -> None:
        self._rng.bit_generator.state = state

    def _state_slots(self):
        # The link-sampling RNG rides along so directory views stay aligned
        # with the authority across replicated joins and served repairs.
        return {
            "edges": StateSlot(
                "dict", lambda: self._edges,
                lambda v: setattr(self, "_edges", v),
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
        if address in self._edges:
            return
        existing = list(self._edges)
        self._edges[address] = set()
        if not existing:
            return
        count = min(self.degree, len(existing))
        chosen = self._rng.choice(len(existing), size=count, replace=False)
        for index in chosen:
            other = existing[int(index)]
            self._edges[address].add(other)
            self._edges[other].add(address)
            self.entries_built += 1

    def leave(self, address: int) -> None:
        neighbors = self._edges.pop(address, set())
        for other in neighbors:
            self._edges.get(other, set()).discard(address)

    def members(self) -> List[int]:
        return list(self._edges)

    def __contains__(self, address: int) -> bool:
        return address in self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def neighbors(self, address: int) -> List[int]:
        self.require_member(address)
        return sorted(self._edges[address])

    def repair(self) -> int:
        """Re-link under-connected nodes (post-churn maintenance).

        Returns the number of edges added.
        """
        added = 0
        members = list(self._edges)
        if len(members) < 2:
            return 0
        for address in members:
            while len(self._edges[address]) < min(self.degree, len(members) - 1):
                candidates = [
                    m
                    for m in members
                    if m != address and m not in self._edges[address]
                ]
                if not candidates:
                    break
                other = candidates[int(self._rng.integers(len(candidates)))]
                self._edges[address].add(other)
                self._edges[other].add(address)
                added += 1
        self.entries_built += added
        return added

    # ------------------------------------------------------------------
    # Routing (unstructured = no key ownership; greedy id walk)
    # ------------------------------------------------------------------

    def route(self, origin: int, key: int) -> RouteResult:
        """Greedy walk toward the member whose id is closest to ``key``.

        Unstructured overlays have no ownership guarantee; this exists so
        the overlay ablation can compare lookup behaviour across types.
        """
        self.require_member(origin)
        target = min(
            self._edges, key=lambda a: abs(node_id_for(a) - key)
        )
        current = origin
        path: List[int] = []
        visited = {origin}
        for _ in range(len(self._edges)):
            if current == target:
                return RouteResult(key=key, owner=current, path=path)
            candidates = [n for n in self._edges[current] if n not in visited]
            if not candidates:
                return RouteResult(key=key, owner=None, path=path, success=False)
            current = min(candidates, key=lambda a: abs(node_id_for(a) - key))
            visited.add(current)
            path.append(current)
        return RouteResult(key=key, owner=None, path=path, success=False)

    # ------------------------------------------------------------------
    # Broadcast primitives
    # ------------------------------------------------------------------

    def flood(self, origin: int, ttl: int = 8) -> BroadcastResult:
        """TTL-bounded flood; every edge crossing is one message."""
        self.require_member(origin)
        result = BroadcastResult(origin=origin)
        result.reached.add(origin)
        frontier = [origin]
        for round_index in range(ttl):
            next_frontier: List[int] = []
            for node in frontier:
                for neighbor in self._edges[node]:
                    result.messages += 1
                    if neighbor not in result.reached:
                        result.reached.add(neighbor)
                        next_frontier.append(neighbor)
            if not next_frontier:
                break
            frontier = next_frontier
            result.rounds = round_index + 1
        return result

    def gossip(
        self, origin: int, fanout: int = 3, rounds: int = 10
    ) -> BroadcastResult:
        """Push gossip: each informed node pushes to ``fanout`` random peers."""
        self.require_member(origin)
        result = BroadcastResult(origin=origin)
        result.reached.add(origin)
        informed = [origin]
        for round_index in range(rounds):
            newly: List[int] = []
            for node in informed:
                neighbors = sorted(self._edges[node])
                if not neighbors:
                    continue
                count = min(fanout, len(neighbors))
                chosen = self._rng.choice(len(neighbors), size=count, replace=False)
                for index in chosen:
                    target = neighbors[int(index)]
                    result.messages += 1
                    if target not in result.reached:
                        result.reached.add(target)
                        newly.append(target)
            informed.extend(newly)
            result.rounds = round_index + 1
            if len(result.reached) == len(self._edges):
                break
        return result


register_overlay(
    "unstructured",
    lambda **config: UnstructuredOverlay(
        degree=config.get("degree", 4), seed=config.get("seed", 0)
    ),
)
