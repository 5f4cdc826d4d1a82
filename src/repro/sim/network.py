"""Physical network model.

P2PDMT's "Configure physical network / Simulate physical network" box: every
message experiences propagation latency (per-pair, jittered), transmission
delay (size / bandwidth), and optional loss.  Nodes can be marked down, in
which case delivery silently fails — exactly how a UDP overlay sees churn.

One send core, three entry points, all RNG-equivalent:
:meth:`PhysicalNetwork.send_batch` (a same-tick block of materialized
messages) and :meth:`PhysicalNetwork.broadcast_block` (one payload to many
recipients, messages materialized lazily at delivery) each present a
:class:`SendBlock` to :meth:`PhysicalNetwork._send_block`, the only place a
block is gated (loopback, liveness, ownership), observed, charged, drawn
and scheduled.  A block has one form: its rows share one source and one
shape, those columns are scalars, and the core decides each gate once.
:meth:`PhysicalNetwork.send` is the n = 1 specialisation of the same five
steps, which every block also takes row by row when its rows are mixed
(sources or shapes differ), when draws must interleave per message (a
loss model) or when it has fewer than two rows.  numpy fills array draws
by repeating the same underlying generator steps, so a block of N sends
consumes the RNG stream bit-identically to N sequential sends — batching
never changes replay.  A fan-out's live rows enter the kernel as one
delivery run (:meth:`Simulator.schedule_run`), not one heap entry per
recipient.  A subclass decides only who owns a peer
(:meth:`PhysicalNetwork._owns`) and where a delivery goes
(:meth:`PhysicalNetwork._schedule_block`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.stats import StatsCollector

DeliveryHandler = Callable[[Message], None]
BlockListener = Callable[["SendBlock"], None]

#: the columns every row of a block shares
_SHAPE = operator.attrgetter("src", "msg_type", "size_bytes", "wire_bytes",
                             "hops")


class SendBlock:
    """One same-tick block of send attempts, struct-of-arrays.

    Block listeners (:meth:`PhysicalNetwork.add_block_listener`) receive
    exactly one of these per network call — a single :meth:`send`, a
    :meth:`send_batch` block, or a :meth:`broadcast_block` fan-out — instead
    of a per-message callback (a :meth:`send_batch` whose rows are mixed
    goes row by row, so its listeners see one one-row block per row).
    Every row shares one source and one shape: ``src``, ``msg_type``,
    ``size_bytes``, ``wire_bytes`` and ``hops`` are scalars, ``dst`` is a
    sequence of length ``count``, and ``time`` is the shared send tick.
    Consumers that need per-record values use :meth:`rows`; columnar
    consumers (the trace store) read the raw attributes.
    """

    __slots__ = ("time", "count", "src", "dst", "msg_type", "size_bytes",
                 "wire_bytes", "hops")

    def __init__(self, time: float, count: int, src, dst, msg_type,
                 size_bytes, wire_bytes, hops) -> None:
        self.time = time
        self.count = count
        self.src = src
        self.dst = dst
        self.msg_type = msg_type
        self.size_bytes = size_bytes
        self.wire_bytes = wire_bytes
        self.hops = hops

    def rows(self):
        """Iterate (src, dst, msg_type, size_bytes, wire_bytes, hops) rows."""
        return (
            (self.src, dst, self.msg_type, self.size_bytes, self.wire_bytes,
             self.hops)
            for dst in self.dst
        )


#: splitmix64 constants — explicit integer mix for per-pair latency seeds.
_MIX_MULT_A = 0x9E3779B97F4A7C15
_MIX_MULT_B = 0xBF58476D1CE4E5B9
_MIX_MULT_C = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF
#: the same constants as 0-d ``uint64`` arrays, built once: a ufunc takes
#: a 0-d array operand faster than a numpy scalar, with the same result
_NP_MULT_A, _NP_MULT_B, _NP_MULT_C, _NP_PAIR_SALT = (
    np.array(n, dtype=np.uint64)
    for n in (_MIX_MULT_A, _MIX_MULT_B, _MIX_MULT_C, 0x1F0A2F)
)
_NP_11, _NP_27, _NP_30, _NP_31 = (
    np.array(n, dtype=np.uint64) for n in (11, 27, 30, 31)
)


def pair_mix64(src: int, dst: int) -> int:
    """Deterministic, interpreter-independent 64-bit mix of an unordered pair.

    Python's ``hash(tuple)`` varies across interpreter builds (32- vs 64-bit,
    version-specific tuple hashing), which silently changed per-pair
    latencies between environments.  This splitmix64-style finalizer depends
    only on the two integers.
    """
    low, high = (src, dst) if src <= dst else (dst, src)
    x = (low * _MIX_MULT_A + high * _MIX_MULT_C + 0x1F0A2F) & _U64
    x ^= x >> 30
    x = (x * _MIX_MULT_B) & _U64
    x ^= x >> 27
    x = (x * _MIX_MULT_C) & _U64
    x ^= x >> 31
    return x


def stream_seed(seed: int, peer: int, lane: int) -> int:
    """Deterministic 64-bit seed for one peer's RNG stream in one ``lane``.

    The per-peer randomness decomposition (``rng_mode="perpeer"``) gives
    every peer an independent generator per concern — network jitter, loss
    draws, churn — so that the *order* in which different peers consume
    randomness cannot affect any draw's value.  That order-independence is
    what lets a sharded execution (peers partitioned across event heaps)
    reproduce the single-heap kernel bit-for-bit: each stream is consumed
    only in its owner's causal order, which conservative windowing
    preserves.  Same splitmix64-style finalizer family as
    :func:`pair_mix64`, over the (seed, peer, lane) triple.
    """
    x = (
        (seed & _U64) * _MIX_MULT_A
        + (peer & _U64) * _MIX_MULT_C
        + (lane & _U64) * _MIX_MULT_B
        + 0x51ED2701
    ) & _U64
    x ^= x >> 30
    x = (x * _MIX_MULT_B) & _U64
    x ^= x >> 27
    x = (x * _MIX_MULT_C) & _U64
    x ^= x >> 31
    return x


class PeerStreams:
    """Per-peer random streams for the decomposed-randomness mode.

    Lanes: ``net`` (latency jitter for messages the peer *sends*), ``loss``
    (drop draws for the peer's sends), ``churn`` (session/downtime draws).
    Loss lives on its own lane because drop outcomes must be computable by
    every shard replica (they decide :class:`~repro.sim.transport.Outcome`
    flags read by orchestrator code), while jitter is consumed only by the
    peer's owning shard.  Generators are cached — repeated lookups return
    the same stream object, advancing as it is consumed.  The
    ``activation`` lane is not: :meth:`activation_rng` seeds a fresh one.
    """

    _LANES = {"net": 1, "loss": 2, "churn": 3, "activation": 17}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: Dict[Tuple[int, int], np.random.Generator] = {}

    def _stream(self, lane: int, peer: int) -> np.random.Generator:
        key = (lane, peer)
        stream = self._streams.get(key)
        if stream is None:
            stream = np.random.default_rng(stream_seed(self.seed, peer, lane))
            self._streams[key] = stream
        return stream

    def net_rng(self, peer: int) -> np.random.Generator:
        return self._stream(self._LANES["net"], peer)

    def loss_rng(self, peer: int) -> np.random.Generator:
        return self._stream(self._LANES["loss"], peer)

    def churn_rng(self, peer: int) -> np.random.Generator:
        return self._stream(self._LANES["churn"], peer)

    def activation_rng(
        self, seed: int, peer: int, shared: np.random.Generator
    ) -> np.random.Generator:
        """A fresh stream for draws made *inside* ``peer``'s activation
        event, seeded by the protocol's own ``seed``.

        Activation events execute only on the peer's owning shard, so a
        draw from the protocol-wide ``shared`` stream would desynchronize
        it across shard replicas; this one is deterministic in ``(seed,
        peer)``, so every execution shape agrees.
        """
        return np.random.default_rng(
            stream_seed(seed, peer, self._LANES["activation"])
        )

    def export_cursors(self) -> Dict[str, dict]:
        """RNG cursor snapshot for the simulation WAL: every *instantiated*
        stream's bit-generator state, keyed ``"lane:peer"`` in sorted order.

        Reading ``bit_generator.state`` does not consume draws, and lazily-
        created streams are fully determined by ``(seed, peer, lane)``, so
        the instantiated subset is a complete description of the RNG
        frontier: two runs whose cursors match draw identical futures.
        """
        return {
            f"{lane}:{peer}": self._streams[(lane, peer)].bit_generator.state
            for lane, peer in sorted(self._streams)
        }


class SharedStream:
    """The single-stream layout behind :class:`PeerStreams`'s draw methods.

    Every lane of every peer is the kernel's one seeded generator, drawn
    in event order — the legacy mode (``rng_mode="stream"``) the pre-shard
    golden digests were pinned under.  Activation draws come from the
    protocol's own ``shared`` stream.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def net_rng(self, peer: int) -> np.random.Generator:
        return self._rng

    loss_rng = churn_rng = net_rng

    def activation_rng(
        self, seed: int, peer: int, shared: np.random.Generator
    ) -> np.random.Generator:
        return shared


def pair_factors(src, dsts) -> np.ndarray:
    """Vectorized per-pair latency factors in [0.5, 1.5].

    ``src`` is one source address.  Bit-identical to ``0.5 +
    (pair_mix64(src, dst) >> 11) * 2**-53`` per pair — the splitmix64
    finalizer runs in wrapping ``uint64`` numpy arithmetic, so a
    10k-recipient broadcast computes its factors in a handful of array
    operations instead of 10k Python-level mixes.
    """
    dsts = np.asarray(dsts, dtype=np.uint64)
    source = np.asarray(src, dtype=np.uint64)
    x = np.minimum(dsts, source) * _NP_MULT_A
    x += np.maximum(dsts, source) * _NP_MULT_C
    x += _NP_PAIR_SALT
    x ^= x >> _NP_30
    x *= _NP_MULT_B
    x ^= x >> _NP_27
    x *= _NP_MULT_C
    x ^= x >> _NP_31
    x >>= _NP_11
    return 0.5 + x * (2.0 ** -53)


@dataclass
class LatencyModel:
    """Latency parameters.

    ``base_latency`` is the median one-way propagation delay;
    ``jitter_fraction`` scales lognormal jitter around it; ``bandwidth`` is
    bytes/second for transmission delay; ``drop_probability`` models loss.
    """

    base_latency: float = 0.05
    jitter_fraction: float = 0.2
    bandwidth: float = 1_000_000.0
    drop_probability: float = 0.0
    #: lower clamp on the lognormal jitter draw (0 = unbounded, the legacy
    #: behaviour).  A positive floor gives every delivery a guaranteed
    #: minimum propagation delay — the *lookahead* a conservative sharded
    #: execution needs (see :func:`repro.sim.shard.compute_lookahead`).
    jitter_floor: float = 0.0

    def min_propagation(self) -> float:
        """Guaranteed lower bound on any delivery's propagation delay.

        Per-pair factors are ≥ 0.5 by construction (:func:`pair_factors`);
        jitter is ≥ :attr:`jitter_floor` when drawn (exactly 1 when
        ``jitter_fraction`` is 0).  Zero when jitter is unbounded below.
        """
        floor = self.jitter_floor if self.jitter_fraction > 0 else 1.0
        return 0.5 * self.base_latency * floor

    def delay_for(self, message: Message, rng: np.random.Generator) -> float:
        """One-way delay for ``message``: propagation + transmission."""
        jitter = 1.0
        if self.jitter_fraction > 0:
            jitter = float(
                rng.lognormal(mean=0.0, sigma=self.jitter_fraction)
            )
            if jitter < self.jitter_floor:
                jitter = self.jitter_floor
        propagation = self.base_latency * jitter
        transmission = message.size_bytes / self.bandwidth
        return propagation + transmission

    def delays_for(
        self, sizes: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized one-way delays for a block of message sizes.

        Consumes the RNG stream exactly as ``len(sizes)`` sequential
        :meth:`delay_for` calls would, and performs the same per-element
        float operations in the same order, so results are bit-identical.
        """
        count = len(sizes)
        if self.jitter_fraction > 0:
            jitter = rng.lognormal(
                mean=0.0, sigma=self.jitter_fraction, size=count
            )
            if self.jitter_floor > 0:
                jitter = np.maximum(jitter, self.jitter_floor)
        else:
            jitter = np.ones(count)
        return self.base_latency * jitter + sizes / self.bandwidth


class PhysicalNetwork:
    """Delivers messages between registered nodes through the simulator.

    Per-pair base latencies are derived deterministically from the node ids
    (stand-in for topology/geography), so two runs with the same seed see the
    same network — on any interpreter (see :func:`pair_mix64`).
    """

    def __init__(
        self,
        simulator: Simulator,
        streams: PeerStreams | SharedStream,
        latency: Optional[LatencyModel] = None,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.simulator = simulator
        self.latency = latency or LatencyModel()
        self.stats = stats or StatsCollector()
        self._handlers: Dict[int, DeliveryHandler] = {}
        #: peers registered *elsewhere* (directory-served membership): a
        #: sharded worker marks peers it does not own as remote so liveness
        #: checks answer globally while only owned peers carry handlers.
        self._remote: Set[int] = set()
        self._down: Set[int] = set()
        self._block_listeners: List[BlockListener] = []
        #: the run's randomness layout: each message's jitter and drop
        #: draws come from its *source peer's* ``net`` / ``loss`` lanes.
        self.streams = streams

    # -- membership ----------------------------------------------------------

    def register(self, node_id: int, handler: DeliveryHandler) -> None:
        """Attach a node's receive handler to the network."""
        self._handlers[node_id] = handler
        self._remote.discard(node_id)
        self._down.discard(node_id)

    def register_remote(self, node_id: int) -> None:
        """Mark a peer as a live endpoint whose handler lives on another
        shard (directory-served membership).

        Liveness checks (:meth:`is_up`, :meth:`are_up`) treat the peer like
        any registered node; an actual *delivery* to it is a sharding
        contract violation (cross-shard deliveries must be exchanged to the
        owning shard) and lands in ``messages_undeliverable``.
        """
        if node_id not in self._handlers:
            self._remote.add(node_id)
        self._down.discard(node_id)

    def set_down(self, node_id: int, down: bool = True) -> None:
        """Mark a node as failed (messages to/from it vanish)."""
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    def is_up(self, node_id: int) -> bool:
        return (
            node_id in self._handlers or node_id in self._remote
        ) and node_id not in self._down

    def are_up(self, node_ids: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`is_up` over a block of addresses."""
        handlers = self._handlers
        remote = self._remote
        down = self._down
        return np.fromiter(
            ((n in handlers or n in remote) and n not in down
             for n in node_ids),
            dtype=bool,
            count=len(node_ids),
        )

    def is_down(self, node_id: int) -> bool:
        """True if explicitly failed (independent of handler registration)."""
        return node_id in self._down

    @property
    def registered_nodes(self) -> Set[int]:
        return set(self._handlers) | self._remote

    def live_nodes(self) -> Set[int]:
        return {
            n
            for n in (*self._handlers, *self._remote)
            if n not in self._down
        }

    # -- observation ---------------------------------------------------------

    def add_block_listener(self, listener: BlockListener) -> None:
        """Observe send attempts as SoA batches (one :class:`SendBlock` per
        network call) — the accounting-only observer contract.

        Listeners fire for every send *attempt*, before any liveness/loss
        check — attempts from down sources and messages later dropped by
        loss included — one batch per call: a vectorized
        :meth:`broadcast_block` delivers one callback with scalar columns
        plus the destination array, never materializing messages, so
        attaching a block listener never perturbs the event stream, the RNG
        draw order, or which send path is taken.
        """
        self._block_listeners.append(listener)

    def remove_block_listener(self, listener: BlockListener) -> None:
        if listener in self._block_listeners:
            self._block_listeners.remove(listener)

    @property
    def has_block_listeners(self) -> bool:
        return bool(self._block_listeners)

    def _message_block(
        self, messages: Sequence[Message]
    ) -> Optional[SendBlock]:
        """The SoA view of a same-tick block of materialized messages —
        the fan-out form :meth:`broadcast_block` builds, with scalar
        ``src``/``msg_type``/``size_bytes``/``wire_bytes``/``hops`` — or
        None when the rows do not share one source and one shape (or there
        are none).  A one-row block always has the form.
        """
        shapes = list(map(_SHAPE, messages))
        if not shapes or shapes.count(shapes[0]) != len(shapes):
            return None
        src, msg_type, size, wire, hops = shapes[0]
        return SendBlock(
            time=self.simulator.now,
            count=len(messages),
            src=src,
            dst=[m.dst for m in messages],
            msg_type=msg_type,
            size_bytes=size,
            wire_bytes=wire,
            hops=hops,
        )

    def _notify(self, block: SendBlock) -> None:
        for listener in self._block_listeners:
            listener(block)

    # -- latency -----------------------------------------------------------------

    def _pair_base_latency(self, src: int, dst: int) -> float:
        """Deterministic per-pair latency factor in [0.5, 1.5] x base.

        The uniform draw comes straight from the top 53 bits of the pair
        mix — constructing a ``numpy`` Generator per pair costs ~10µs and
        dominated million-message runs.  (:func:`pair_factors` is the same
        arithmetic over a column.)
        """
        return 0.5 + (pair_mix64(src, dst) >> 11) * (2.0 ** -53)

    # -- sending -------------------------------------------------------------------

    def send(self, message: Message) -> bool:
        """Queue ``message`` for delivery — the n = 1 case of
        :meth:`_send_block`, the same five steps in the same order.

        Returns False when the message was dropped immediately (source down
        or loss); the caller cannot distinguish later failures, as in real
        networks.  Traffic is counted for every *sent* message, delivered or
        not — bytes leave the NIC either way.  A network that does not own
        the source only reports the (identical) outcome: liveness from the
        synced replica, the drop from the shared per-peer loss stream.
        """
        if message.src == message.dst:
            raise SimulationError("loopback messages need no network")
        owned = self._owns(message.src)
        if self._block_listeners and owned:
            self._notify(self._message_block((message,)))
        if not self.is_up(message.src):
            return False
        if owned:
            self.stats.record_message(message)
        if (
            self.latency.drop_probability > 0
            and self.streams.loss_rng(message.src).random()
            < self.latency.drop_probability
        ):
            if owned:
                self.stats.increment("messages_dropped")
            return False
        if not owned:
            return True
        pair_factor = self._pair_base_latency(message.src, message.dst)
        delay = pair_factor * self.latency.delay_for(
            message, self.streams.net_rng(message.src)
        )
        if self._owns(message.dst):
            # one heap push: a one-row schedule_batch costs twice as much
            self.simulator.schedule(delay, self._deliver, args=(message,))
        else:
            self._schedule_block((message.dst,), (delay,), (message,))
        return True

    def _owns(self, address: int) -> bool:
        """Whether this network observes, charges, draws and schedules a
        source's sends, and holds a destination's heap — always, here; a
        shard worker owns a slice of the peers."""
        return True

    def send_batch(self, messages: Sequence[Message]) -> List[bool]:
        """Send a same-tick block of messages: :meth:`_send_block` over
        their columns when the rows share one source and one shape,
        delivering the sender's own objects; any other block goes through
        :meth:`send` row by row, after a loopback anywhere has rejected
        the whole call before any side effect.

        Per-message results match :meth:`send` exactly (same RNG stream
        consumption, same delivery times, same stats and stats key order).
        """
        block = self._message_block(messages)
        if block is not None:
            return self._send_block(block, messages)
        if any(m.src == m.dst for m in messages):
            raise SimulationError("loopback messages need no network")
        return [self.send(message) for message in messages]

    def broadcast_block(
        self,
        src: int,
        dsts: Sequence[int],
        msg_type: str,
        payload: Any,
        size_bytes: int,
        wire_bytes: Optional[int] = None,
    ) -> np.ndarray:
        """Send one identical-size payload to many destinations:
        :meth:`_send_block` over a block whose constant columns stay scalars.

        The hot path behind :meth:`Transport.broadcast` at 10k+ recipients:
        stats arithmetic is aggregated in bulk, per-pair latency factors and
        jitter come from single array operations, and no :class:`Message`
        objects exist at send time — the live rows enter the kernel as one
        delivery run, and a :class:`Message` is materialized per
        *delivered* recipient when its row fires
        (:meth:`_fan_out_delivery`).
        RNG, accounting and gates are those of ``send_batch`` over the
        equivalent message block: a ``dst`` equal to ``src`` raises; from a
        down or never-registered source the attempt is observed, nothing is
        charged and every flag is False; ``dsts`` may repeat.

        ``wire_bytes`` is the codec-modelled post-encoding size (defaults
        to ``size_bytes``, i.e. identity); it flows into the wire-byte
        stats dimension and onto lazily materialized messages, never into
        delivery timing.  Returns the per-destination sent flags.
        """
        block = SendBlock(
            time=self.simulator.now,
            count=len(dsts),
            src=src,
            dst=dsts,
            msg_type=msg_type,
            size_bytes=size_bytes,
            wire_bytes=size_bytes if wire_bytes is None else wire_bytes,
            hops=1,
        )
        return np.asarray(self._send_block(block, payload=payload), dtype=bool)

    def _send_block(
        self,
        block: SendBlock,
        messages: Optional[Sequence[Message]] = None,
        payload: Any = None,
    ) -> Sequence[bool]:
        """Gate, observe, charge, draw and schedule one same-tick block —
        the only place a block meets any of the five.

        ``block`` holds the columns of ``messages``, or a fan-out of one
        ``payload`` (``messages`` is None, delivered lazily).  Its rows
        share one source and one shape, so every gate is one decision: one
        ``is_up``, one ``_owns``, one bulk charge, one stream.  A loopback
        rejects the block before any side effect.  With loss enabled the
        drop and jitter draws interleave per message, and one row is a
        plain :meth:`send`: both go row by row.  Returns the per-row sent
        flags.
        """
        src, dsts = block.src, block.dst
        if src in dsts:
            raise SimulationError("loopback messages need no network")
        if self.latency.drop_probability > 0 or block.count < 2:
            if messages is None:
                messages = [
                    Message(src=src, dst=dst, msg_type=block.msg_type,
                            payload=payload, size_bytes=block.size_bytes,
                            wire_bytes=block.wire_bytes)
                    for dst in dsts
                ]
            return [self.send(message) for message in messages]
        # The block passes each cut whole or stops at it.
        up = self.is_up(src)
        results = (
            np.full(block.count, up) if messages is None
            else [up] * block.count
        )
        if not self._owns(src):
            # Replicas only report the (identical) outcome.
            return results
        if self._block_listeners:
            self._notify(block)
        if not up:
            return results
        self.stats.record_message_block(
            block.msg_type, block.size_bytes, src, dsts, block.hops,
            block.wire_bytes,
        )
        # One stream draws over the whole block, in the per-message order
        # of sequential sends, so the delays are bit-identical to them.
        sizes = np.full(block.count, block.size_bytes, dtype=np.float64)
        delays = pair_factors(src, dsts) * self.latency.delays_for(
            sizes, self.streams.net_rng(src)
        )
        if messages is None:
            self._schedule_block(dsts, delays, fan_out=(
                src, block.msg_type, payload, block.size_bytes,
                block.wire_bytes,
            ))
        else:
            self._schedule_block(dsts, delays.tolist(), messages)
        return results

    def _schedule_block(
        self, dsts: Sequence[int], delays: Sequence[float],
        messages: Optional[Sequence[Message]] = None,
        fan_out: Optional[tuple] = None,
    ) -> None:
        """Schedule the deliveries of an already-charged live block: one
        :meth:`_deliver` event per row of ``messages`` (``delays`` a list
        of floats), or — for a fan-out whose rows share ``fan_out = (src,
        msg_type, payload, size_bytes, wire_bytes)`` — one
        :meth:`Simulator.schedule_run` over ``dsts``, whose rows deliver
        through :meth:`_fan_out_delivery` (``delays`` the core's array)."""
        if messages is None:
            self.simulator.schedule_run(
                delays, self._fan_out_delivery(*fan_out), (dsts,)
            )
        else:
            self.simulator.schedule_batch(delays, self._deliver, zip(messages))

    def _fan_out_delivery(
        self, src: int, msg_type: str, payload: Any, size_bytes: int,
        wire_bytes: int,
    ) -> Callable[[int], None]:
        """The per-row delivery of one fan-out: :meth:`_deliver_lazy`'s
        work with the shared fields bound once, so a row is a handler
        lookup, a down check and — only for a recipient that is up — one
        :class:`Message`."""
        handlers = self._handlers
        down = self._down
        stats = self.stats

        def deliver(dst: int) -> None:
            handler = handlers.get(dst)
            if handler is None or dst in down:
                stats.increment("messages_undeliverable")
                return
            handler(Message(src=src, dst=dst, msg_type=msg_type,
                            payload=payload, size_bytes=size_bytes,
                            wire_bytes=wire_bytes))

        return deliver

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None or message.dst in self._down:
            self.stats.increment("messages_undeliverable")
            return
        handler(message)

    def _deliver_lazy(
        self,
        src: int,
        dst: int,
        msg_type: str,
        payload: Any,
        size_bytes: int,
        wire_bytes: int,
        hops: int = 1,
    ) -> None:
        """Deliver a cross-shard message, materializing it on demand.

        Handlers see an ordinary :class:`Message`; undeliverable recipients
        (churned out since send time, or with no handler here) never
        allocate one.
        ``hops`` preserves the original message's hop count for cross-shard
        unicast deliveries (stats were already charged at send time).
        """
        handler = self._handlers.get(dst)
        if handler is None or dst in self._down:
            self.stats.increment("messages_undeliverable")
            return
        handler(
            Message(
                src=src,
                dst=dst,
                msg_type=msg_type,
                payload=payload,
                size_bytes=size_bytes,
                wire_bytes=wire_bytes,
                hops=hops,
            )
        )
