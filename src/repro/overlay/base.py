"""Overlay interface.

Overlays maintain routing state over the set of *live* physical nodes and
answer two questions:

- :meth:`Overlay.route` — which node owns a key, and through which hop path
  (the hop path is what the experiments charge communication for);
- :meth:`Overlay.neighbors` — a node's links (broadcast, visualization).

Implementation note (documented substitution): routing decisions are
computed synchronously from current routing tables instead of exchanging
per-hop control messages through the event queue.  The *observables* —
hop counts, per-hop bytes, failures under churn — are preserved, because
every returned path is charged hop-by-hop to the physical network's stats
by the callers, and routing tables are damaged/repaired by churn callbacks
exactly as a maintenance protocol would.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import OverlayError


@dataclass
class RouteResult:
    """Outcome of a key lookup."""

    key: int
    owner: Optional[int]  # physical address of the responsible node
    path: List[int] = field(default_factory=list)  # physical addresses, in order
    success: bool = True

    @property
    def hops(self) -> int:
        return len(self.path)


class StateSlot:
    """Accessor for one named piece of an overlay's routing state.

    ``kind`` selects the delta granularity the directory control plane uses
    (:meth:`Overlay.diff_state`): ``"dict"`` slots diff and ship per key,
    ``"value"`` slots (sorted ring lists, RNG states, scalars) replace
    wholesale.  ``get`` must return the *live* container so per-key edits
    mutate in place; ``set`` installs a replacement (restore / wholesale
    edits).
    """

    __slots__ = ("kind", "get", "set")

    def __init__(
        self,
        kind: str,
        get: Callable[[], Any],
        set: Callable[[Any], None],
    ) -> None:
        if kind not in ("dict", "value"):
            raise OverlayError(f"unknown state-slot kind {kind!r}")
        self.kind = kind
        self.get = get
        self.set = set


#: one routing-state edit: (slot name, op, key, value) where op is "set" /
#: "del" for dict slots and "replace" (key None) for value slots.  Plain
#: tuples so a window's worth of edits pickles cheaply through the mp
#: executor's control channel.
StateEdit = Tuple[str, str, Any, Any]


class Overlay(ABC):
    """Common interface for structured and unstructured overlays."""

    name: str = "overlay"

    #: routing-table entries this instance *computed* locally (finger/bucket/
    #: leaf/edge builds).  Directory-served views apply edits instead of
    #: computing, so the counter is the numeric witness of the O(N/K)
    #: construction claim (Scenario.construction_cost).
    entries_built: int = 0

    @abstractmethod
    def join(self, address: int) -> None:
        """Add a physical node to the overlay."""

    @abstractmethod
    def leave(self, address: int) -> None:
        """Remove a node (graceful or crash — callers decide semantics)."""

    @abstractmethod
    def route(self, origin: int, key: int) -> RouteResult:
        """Resolve ``key`` starting from ``origin``; returns owner and path."""

    @abstractmethod
    def neighbors(self, address: int) -> List[int]:
        """The node's overlay links (for broadcast and visualization)."""

    @abstractmethod
    def members(self) -> List[int]:
        """Current member addresses."""

    def stabilize(self) -> None:
        """Recompute routing tables after membership changes — nothing to
        do for an overlay that keeps no derived tables."""

    def repair(self) -> int:
        """Re-link under-connected nodes after churn; returns the links
        added — none for an overlay whose links are its tables."""
        return 0

    def __contains__(self, address: int) -> bool:
        """Whether ``address`` is a current member (O(1) in every overlay
        here; this default serves a subclass that only lists members)."""
        return address in self.members()

    def require_member(self, address: int) -> None:
        if address not in self:
            raise OverlayError(f"node {address} is not an overlay member")

    # ------------------------------------------------------------------
    # Directory serving: snapshot / delta export (repro.sim.shard).
    #
    # The directory control plane runs the *authoritative* instance (joins,
    # leaves, stabilize) and publishes the resulting state; shard workers
    # hold a *view* — an instance of the same class whose state was restored
    # from the startup snapshot and advanced by served edits — so route
    # resolution runs the overlay's own algorithm over state it never had
    # to compute.  Every overlay declares its state once via _state_slots();
    # the four operations below are generic over that declaration.
    # ------------------------------------------------------------------

    def _state_slots(self) -> Dict[str, StateSlot]:
        """name -> :class:`StateSlot` for every piece of routing state.

        Must cover *all* state that routing, membership, and maintenance
        read — including any internal RNG (exported/restored as its
        bit-generator state), so a view that applies served maintenance
        edits keeps its RNG aligned with the authority for later replicated
        join ops.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not declare state slots"
        )

    def export_state(self) -> Dict[str, Any]:
        """Deep-copied snapshot of every state slot (picklable)."""
        return {
            name: copy.deepcopy(slot.get())
            for name, slot in self._state_slots().items()
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install a snapshot previously produced by :meth:`export_state`.

        Deep-copies on the way in, so several views may restore from one
        shared snapshot object without aliasing mutable containers.
        """
        for name, slot in self._state_slots().items():
            slot.set(copy.deepcopy(state[name]))

    def diff_state(self, before: Dict[str, Any]) -> List[StateEdit]:
        """Edits that turn the ``before`` snapshot into the current state.

        Dict slots compare per key by value (maintenance typically touches
        only entries near churned nodes, so the edit list stays small even
        when every table was recomputed); value slots replace wholesale.
        """
        edits: List[StateEdit] = []
        for name, slot in self._state_slots().items():
            current = slot.get()
            old = before[name]
            if slot.kind == "dict":
                for key in old:
                    if key not in current:
                        edits.append((name, "del", key, None))
                for key, value in current.items():
                    if key not in old or old[key] != value:
                        edits.append((name, "set", key, copy.deepcopy(value)))
            elif current != old:
                edits.append((name, "replace", None, copy.deepcopy(current)))
        return edits

    def apply_state_edits(self, edits: List[StateEdit]) -> None:
        """Apply served edits to this view (no routing-state computation).

        Values are deep-copied on application: under the serial executor
        every shard thread receives the *same* edit objects, and overlays
        mutate their containers in place.
        """
        slots = self._state_slots()
        for name, op, key, value in edits:
            slot = slots[name]
            if op == "del":
                del slot.get()[key]
            elif op == "set":
                slot.get()[key] = copy.deepcopy(value)
            else:
                slot.set(copy.deepcopy(value))


# ---------------------------------------------------------------------------
# Registry: every overlay registers a factory so scenarios, benchmarks, and
# the CLI construct overlays through one code path (make_overlay) instead of
# hand-rolled if/elif chains.
# ---------------------------------------------------------------------------

OverlayFactory = Callable[..., Overlay]

_OVERLAY_REGISTRY: Dict[str, OverlayFactory] = {}


def register_overlay(name: str, factory: OverlayFactory) -> None:
    """Register ``factory`` under ``name`` (last registration wins).

    Factories accept keyword configuration (``seed``, ``degree``, ...) and
    ignore what they do not use, so one call signature covers every overlay.
    """
    _OVERLAY_REGISTRY[name] = factory


def overlay_names() -> Tuple[str, ...]:
    """Registered overlay names, sorted for stable CLI/choices output."""
    return tuple(sorted(_OVERLAY_REGISTRY))


def make_overlay(name: str, **config) -> Overlay:
    """Construct a registered overlay by name.

    ``config`` keywords (``seed``, ``degree``, ...) are forwarded to the
    factory; unknown names raise :class:`OverlayError` listing the registry.
    """
    factory = _OVERLAY_REGISTRY.get(name)
    if factory is None:
        raise OverlayError(
            f"unknown overlay {name!r}; registered: {', '.join(overlay_names())}"
        )
    return factory(**config)
