"""Unified transport layer: the one way application traffic hits the wire.

Before this service existed, every protocol (CEMPaR, PACE, NB-Agg, the
baselines) wired itself to :class:`~repro.sim.network.PhysicalNetwork` in its
own ad-hoc way — constructing :class:`~repro.sim.messages.Message` objects,
charging overlay route hops, and re-implementing the "delivered AND
destination up" check.  :class:`Transport` owns all of that:

- :meth:`send` / :meth:`send_batch` — unicast with uniform delivery
  semantics (an :class:`Outcome` instead of a bare bool + is_up dance);
- :meth:`route_and_send` — resolve a DHT key through the overlay, charge the
  route's hops, and send to the owner, in one call;
- :meth:`broadcast` — one payload to many recipients (flood-aware on
  unstructured overlays), sized once and handed to the network as one
  fan-out block: recipient resolution is all that is decided here;
- :meth:`charge` — account traffic that is modelled but not simulated
  (maintenance probes, flood redundancy) through the same stats path.

Every path sizes its traffic through the transport's wire-format
:class:`~repro.sim.codec.CodecTable` (constructor argument, default
``identity``): raw and post-encoding byte counts are recorded side by side,
so communication experiments sweep codec choices with zero protocol churn.

Determinism: batched sends consume the simulator RNG stream bit-identically
to sequential sends (see :mod:`repro.sim.network`), so byte/hop/latency
observables never depend on which path a protocol uses.  Codecs are
accounting-only — delivery timing derives from raw sizes — so a codec sweep
never changes the event stream, and the identity default is byte-identical
to the pre-codec stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.overlay.base import Overlay, RouteResult
from repro.sim.codec import CodecTable, make_codec_table
from repro.sim.messages import _HEADER_BYTES, Message, payload_size
from repro.sim.network import PhysicalNetwork
from repro.sim.stats import StatsCollector


@dataclass
class Outcome:
    """Result of one transport operation.

    ``sent``       — the message left the source NIC (it was charged);
    ``delivered``  — it was queued and the destination was up at send time
                     (the strongest guarantee the old per-protocol code
                     checked via ``network.send(...) and network.is_up(dst)``);
    ``route``      — the overlay route used, when the operation routed;
    ``loopback``   — source and destination were the same peer (no message).
    """

    sent: bool
    delivered: bool
    dst: Optional[int] = None
    route: Optional[RouteResult] = None
    loopback: bool = False

    @property
    def lookup_failed(self) -> bool:
        """True when an overlay route was attempted and did not resolve."""
        return self.route is not None and (
            not self.route.success or self.route.owner is None
        )


class BroadcastOutcome:
    """Result of a one-to-many propagation.

    Per-recipient results are held as flag arrays; the per-recipient
    :class:`Outcome` objects the pre-vectorization API exposed are
    materialized lazily through :attr:`outcomes`, so callers that only need
    the delivered set (:meth:`delivered_to`) never allocate 10k objects.
    """

    __slots__ = ("origin", "targets", "sent", "delivered",
                 "redundant_messages", "_outcomes")

    def __init__(
        self,
        origin: int,
        targets: Sequence[int],
        sent: Sequence[bool],
        delivered: Sequence[bool],
        redundant_messages: int = 0,
    ) -> None:
        self.origin = origin
        self.targets = list(targets)  # recipients, send order
        self.sent = np.asarray(sent, dtype=bool)
        self.delivered = np.asarray(delivered, dtype=bool)
        #: flood edge crossings beyond recipients
        self.redundant_messages = redundant_messages
        self._outcomes: Optional[List[Tuple[int, Outcome]]] = None

    @property
    def outcomes(self) -> List[Tuple[int, Outcome]]:
        """(recipient, :class:`Outcome`) pairs in send order, built on
        first access."""
        if self._outcomes is None:
            self._outcomes = [
                (dst, Outcome(sent=bool(s), delivered=bool(d), dst=dst))
                for dst, s, d in zip(self.targets, self.sent, self.delivered)
            ]
        return self._outcomes

    def delivered_to(self) -> List[int]:
        return [dst for dst, ok in zip(self.targets, self.delivered) if ok]

    def delivered_count(self) -> int:
        return int(self.delivered.sum())


class Transport:
    """Batched, overlay-aware message transport over a physical network."""

    def __init__(
        self,
        network: PhysicalNetwork,
        overlay: Optional[Overlay] = None,
        stats: Optional[StatsCollector] = None,
        codec: Optional[CodecTable] = None,
    ) -> None:
        self.network = network
        self.simulator = network.simulator
        self.overlay = overlay
        self.stats = stats or network.stats
        self.codec = codec if codec is not None else make_codec_table("identity")

    # -- wire-format codec ---------------------------------------------------

    @property
    def codec(self) -> CodecTable:
        """The wire-format codec table every send/charge is sized through.

        Defaults to ``identity`` (wire == raw, accounting-invisible); swap
        in a table from :func:`repro.sim.codec.make_codec_table` to model
        per-message-type compression.  Codecs change *accounting only* —
        delivery timing stays a function of the raw size, so codec sweeps
        never perturb the event stream or the RNG draw order.
        """
        return self._codec

    @codec.setter
    def codec(self, table: CodecTable) -> None:
        self._codec = table
        # Cached so the identity fast path costs one attribute read per
        # message instead of re-scanning the table.
        self._codec_is_identity = table.is_identity

    def _stamp_wire_size(self, message: Message) -> None:
        """Stamp the codec-modelled wire size onto an outgoing message."""
        if not self._codec_is_identity:
            message.wire_bytes = self._codec.wire_size(
                message.msg_type, message.size_bytes
            )

    # -- unicast -------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        msg_type: str,
        payload: Any = None,
        *,
        hops: int = 1,
        size_bytes: int = -1,
    ) -> Outcome:
        """Send one message; hops charge multi-hop overlay routing."""
        if src == dst:
            raise SimulationError("node attempted to message itself")
        message = Message(
            src=src,
            dst=dst,
            msg_type=msg_type,
            payload=payload,
            size_bytes=size_bytes,
            hops=hops,
        )
        return self.send_message(message)

    def send_message(self, message: Message) -> Outcome:
        self._stamp_wire_size(message)
        sent = self.network.send(message)
        return Outcome(
            sent=sent,
            delivered=sent and self.network.is_up(message.dst),
            dst=message.dst,
        )

    def send_batch(self, messages: Sequence[Message]) -> List[Outcome]:
        """Send a same-tick block: rows that share one source and one shape
        draw their delays in one vectorized step, any other block goes
        through the network row by row (:meth:`PhysicalNetwork.send_batch`)."""
        if not self._codec_is_identity:
            for message in messages:
                self._stamp_wire_size(message)
        sent_flags = self.network.send_batch(messages)
        is_up = self.network.is_up
        # positional (sent, delivered, dst): keywords cost a third more
        return [
            Outcome(sent, sent and is_up(m.dst), m.dst)
            for m, sent in zip(messages, sent_flags)
        ]

    # -- overlay routing -----------------------------------------------------

    def route(self, origin: int, key: int) -> RouteResult:
        """Resolve ``key`` through the attached overlay."""
        if self.overlay is None:
            raise SimulationError("transport has no overlay attached")
        return self.overlay.route(origin, key)

    def route_and_send(
        self,
        origin: int,
        key: int,
        msg_type: str,
        payload: Any = None,
        *,
        size_bytes: int = -1,
        route: Optional[RouteResult] = None,
    ) -> Outcome:
        """Route ``key`` to its owner and send, charging the route's hops.

        A precomputed ``route`` skips the lookup (callers that already
        resolved the owner, e.g. to group traffic per destination).  When the
        origin owns the key the payload never touches the network: the
        outcome is a delivered loopback, as every protocol special-cased
        before this layer existed.
        """
        if route is None:
            route = self.route(origin, key)
        if not route.success or route.owner is None:
            return Outcome(sent=False, delivered=False, route=route)
        if route.owner == origin:
            return Outcome(
                sent=False, delivered=True, dst=origin, route=route, loopback=True
            )
        message = Message(
            src=origin,
            dst=route.owner,
            msg_type=msg_type,
            payload=payload,
            size_bytes=size_bytes,
            hops=max(1, route.hops),
        )
        outcome = self.send_message(message)
        outcome.route = route
        return outcome

    # -- one-to-many ---------------------------------------------------------

    def broadcast(
        self,
        origin: int,
        msg_type: str,
        payload: Any,
        *,
        recipients: Optional[Iterable[int]] = None,
        use_flood: bool = True,
    ) -> BroadcastOutcome:
        """Propagate one payload from ``origin`` to many peers.

        With ``recipients`` unset, the recipient set comes from the overlay:
        the flood primitive where available (unstructured overlays, charging
        redundant edge crossings), overlay membership otherwise.  The payload
        is sized once and shared by every message.

        Recipient bookkeeping is the network's
        (:meth:`PhysicalNetwork.broadcast_block`): per-recipient stats
        arithmetic aggregates in bulk, latency factors and jitter come from
        single array draws, and neither :class:`Message` nor
        :class:`Outcome` objects are allocated per recipient at send time
        (messages materialize at delivery, outcomes on
        :attr:`BroadcastOutcome.outcomes` access).  The network also owns
        the cases that go row by row — a loss model, fewer than two
        targets — and a down origin or repeated recipients, so nothing
        here chooses a path, and attaching a block listener (the trace
        store) cannot change one.
        """
        redundant = 0
        if recipients is None:
            if self.overlay is None:
                raise SimulationError(
                    "broadcast needs recipients or an overlay"
                )
            flood = getattr(self.overlay, "flood", None) if use_flood else None
            if callable(flood):
                result = flood(origin)
                targets = sorted(result.reached - {origin})
                redundant = max(0, result.messages - len(targets))
            else:
                targets = sorted(set(self.overlay.members()) - {origin})
        else:
            targets = [dst for dst in recipients if dst != origin]
        size = _HEADER_BYTES + payload_size(payload)
        wire = (
            size if self._codec_is_identity
            else self._codec.wire_size(msg_type, size)
        )
        sent = self.network.broadcast_block(
            origin, targets, msg_type, payload, size, wire_bytes=wire
        )
        return BroadcastOutcome(
            origin=origin,
            targets=targets,
            sent=sent,
            delivered=sent & self.network.are_up(targets),
            redundant_messages=redundant,
        )

    # -- modelled-only traffic -----------------------------------------------

    def charge(
        self,
        src: int,
        dst: int,
        msg_type: str,
        size_bytes: int,
        hops: int = 1,
    ) -> None:
        """Account traffic without simulating delivery.

        Used for costs that are modelled analytically (maintenance probes,
        flood redundancy) so every byte in the experiment tables flows
        through the same :class:`StatsCollector` arithmetic — including the
        codec's wire-size model.
        """
        wire = (
            None if self._codec_is_identity
            else self._codec.wire_size(msg_type, size_bytes)
        )
        self.stats.record_traffic(
            msg_type, size_bytes, hops=hops, src=src, dst=dst, wire_bytes=wire
        )

    # -- time ----------------------------------------------------------------

    def flush(self, settle_time: Optional[float] = None) -> None:
        """Let queued deliveries complete (advances virtual time).

        With a ``settle_time`` the clock advances a bounded window (needed
        when churn keeps the queue permanently non-empty); otherwise the
        queue is drained completely.
        """
        if settle_time is not None:
            self.simulator.run(until=self.simulator.now + settle_time)
        else:
            self.simulator.run_until_idle()
