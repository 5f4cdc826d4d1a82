"""Sharded event kernel: peers partitioned across K simulator heaps,
advanced in conservative virtual-time windows.

This is the parallel-discrete-event layer of the stack.  A
:class:`ShardedScenario` splits the peer population across ``K`` shards
(round-robin: address ``a`` lives on shard ``a % K``, see
:meth:`_ShardRuntime.owns`); each shard owns a full
:class:`~repro.sim.engine.Simulator` heap, a view of the overlay and
liveness, and the per-peer state of the peers it owns.  Shards advance in
lockstep windows of length *lookahead* — the guaranteed minimum
cross-shard delivery delay (:func:`compute_lookahead`) — so an event
executed inside a window can never be affected by a message sent in the
same window by another shard.

**The cut point is the transport stack's network layer**
(:class:`ShardNetwork`): a send whose destination lives on another shard is
not scheduled locally — its full delivery (time, payload, sizes) is computed
at send time from the source peer's own random streams, accumulated in a
per-window exchange outbox, columnarized into a struct-of-arrays
:class:`~repro.sim.exchange.ExchangeFrame` at the barrier, and injected into
the destination shard's heap ordered by ``(deliver_time, src_shard, seq)``
(one ``numpy.lexsort`` + one :meth:`Simulator.schedule_block`).
Intra-shard traffic never leaves its heap.  The send path itself is the
base network's, unmodified: :class:`ShardNetwork` overrides only who owns
a peer (``_owns``) and where a delivery goes (``_schedule_block``).

**Why this reproduces the single-heap kernel bit-for-bit.**  Three design
rules make every observable identical to the unsharded kernel running the
same scenario:

1. *Per-peer randomness* (``rng_mode="perpeer"``): jitter, loss and churn
   draws come from per-peer streams (:class:`~repro.sim.network.PeerStreams`)
   consumed only in their owner's causal order — which conservative windows
   preserve — so no draw's value depends on cross-peer interleaving.
2. *One writer, K readers*: churn timelines and overlay maintenance are
   autonomous deterministic processes (they draw only from per-peer streams
   and overlay state), so one authoritative :class:`DirectoryControlPlane`,
   owned by the window coordinator, runs them once for all N peers.  It
   publishes an overlay snapshot at startup plus per-window
   :data:`ControlRecord` deltas — join/leave membership ops and served
   route-table edits — one window ahead of execution; every worker applies
   them at their exact virtual times to an overlay *view* (same class,
   same route algorithms, state restored rather than computed), so
   mid-window routes see what the single-heap kernel's overlay holds.
   Ownership hooks (:meth:`~repro.sim.scenario.Scenario.owns`) gate each
   applied observable to exactly one shard's
   :class:`~repro.sim.stats.StatsCollector`, and per-peer workload state
   is built only on the owning shard
   (:meth:`~repro.sim.scenario.Scenario.materialize_peer`), so a worker's
   construction cost is O(N/K).
3. *Commutative accounting*: stats are counters; the merge of the per-shard
   collectors (:meth:`StatsCollector.merge`) equals the single collector of
   the unsharded run regardless of execution order.

Every executor runs the same shard-worker bootstrap (:func:`_run_worker`)
under the same window protocol (:mod:`repro.sim.barrier`: the coordinator
loop :func:`~repro.sim.barrier.coordinate`, the worker endpoint
:class:`~repro.sim.barrier.WorkerEndpoint`).  There are two fleets, and
each contributes only worker spawn, teardown, a *link* — how one barrier
round of sync/done/error messages is collected and how decisions and
aborts reach a worker — and a *wire* — how a worker sends one such message
and receives the answer.  Both ship the same encoded ``SoA1`` frame blobs
by the same route: up in the sender's sync, down in each receiver's
verdict.

- ``serial`` — the deterministic reference, and the only executor on
  platforms without fork: worker replicas run as lockstep threads in one
  process; messages cross in-process queues.
- ``mp`` — one worker process per shard (:mod:`repro.sim.tcpexec`), each
  forked from the coordinator onto one end of a socketpair, the job taken
  from fork memory (so a workload that cannot be pickled still runs); the
  link's collect step supervises the fleet and, on a WAL run, heals a dead
  worker by replaying it from the log.  ``tcp`` is a second name for the
  same fleet.

All produce byte-identical fingerprints to each other and to the unsharded
kernel; ``tests/test_shard_equivalence.py`` fuzzes that claim across
overlay × protocol × churn × loss × codec × shard-count.

SPMD contract for workloads: the workload callable runs *identically* in
every worker (same seeds, same orchestration); per-peer work is either
event-driven (scheduled only on the owning shard — see
``P2PTagClassifier._run_staggered_round``) or orchestrator-driven
(replicated calls whose network effects the :class:`ShardNetwork` gates by
source ownership).  A single peer must not mix both styles within one
training phase, or its loss stream would desynchronize across replicas.

Not to be confused with :class:`repro.sim.distribution.ShardSpec`, which
describes how *data* is distributed across peers; this module shards the
*event kernel* across workers.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import queue
import threading
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.barrier import Verdict, WorkerEndpoint, coordinate
from repro.sim.churn import DirectoryChurnClient
from repro.sim.engine import Simulator
from repro.sim.exchange import ExchangeFrame, merge_frames
from repro.sim.messages import payload_size
from repro.sim.network import LatencyModel, PeerStreams, PhysicalNetwork
from repro.sim.scenario import EXECUTORS, Scenario, ScenarioConfig
from repro.sim.stats import StatsCollector
from repro.sim.wal import WalProbe, WalSession

_INF = float("inf")

#: exchange record layout — a cross-shard delivery computed at send time:
#: (deliver_at, src_shard, seq, src, dst, msg_type, payload, size_bytes,
#:  wire_bytes, hops).  This tuple shape is the *outbox accumulator* only:
#: at each window barrier the per-destination outbox is columnarized into a
#: struct-of-arrays :class:`~repro.sim.exchange.ExchangeFrame` (numeric
#: numpy columns, an interned msg_type id table, and a pickle sidecar only
#: for records whose payload is a real object) that every executor ships
#: as one encoded blob — zero per-record pickling.
ExchangeRecord = Tuple[float, int, int, int, int, str, Any, int, int, int]

#: directory delta record layout — one control-plane observable, serialized
#: and ordered like exchange records: (virtual time, kind, payload) with
#: kind ∈ {"leave", "join", "maintenance"}.  Leave/join carry the peer
#: address (cheap ops: each view updates membership itself);
#: maintenance carries the served route-table edits
#: (:data:`repro.overlay.base.StateEdit` tuples) the authority computed.
ControlRecord = Tuple[float, str, Any]

Workload = Callable[[Scenario], Any]


def compute_lookahead(latency: LatencyModel) -> float:
    """Conservative window length from the latency model's delay bounds.

    Any delivery's delay is at least ``pair_factor_min (0.5) × base_latency
    × jitter_min`` (plus a non-negative transmission term), where
    ``jitter_min`` is the model's :attr:`~LatencyModel.jitter_floor` when
    jitter is drawn and exactly 1 otherwise.  A message sent inside window
    ``[W, W + lookahead)`` therefore delivers at or after the window end —
    the conservative synchronization invariant.
    """
    lookahead = latency.min_propagation()
    if lookahead <= 0:
        raise ConfigurationError(
            "latency model admits zero-delay deliveries (set jitter_floor "
            "> 0 and base_latency > 0); conservative windows need a "
            "positive lookahead"
        )
    return lookahead


def scenario_digest(stats: StatsCollector, now: float) -> str:
    """SHA-256 digest of a run's stats fingerprint + final virtual clock.

    Exactly the recipe of the golden determinism suite, so sharded and
    unsharded runs are comparable byte-for-byte.
    """
    payload = stats.fingerprint_bytes() + json.dumps({"now": now}).encode(
        "ascii"
    )
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# The directory control plane: the run's one writer.
# ---------------------------------------------------------------------------


class DirectoryControlPlane:
    """The single authoritative control plane of a sharded run.

    Owned by the window coordinator (the coordinator process under the
    mp and tcp executors, the coordinator loop under serial).  It
    constructs the one authoritative overlay — N joins plus table
    finalization, paid exactly once per run instead of once per shard —
    publishes its
    :attr:`snapshot` for workers to restore at startup, and generates the
    churn/maintenance timeline as :data:`ControlRecord` deltas, one window
    *ahead* of execution.

    Why one window ahead works: churn timelines are autonomous deterministic
    processes — session/downtime draws come from per-peer churn streams
    (:class:`~repro.sim.network.PeerStreams`) and never depend on message
    flow — and maintenance is periodic.  So when the coordinator has decided
    the next window ``[W, W + lookahead)``, every control event inside it is
    already computable: :meth:`advance` pops the event heap up to the window
    end, executes each event against the authoritative overlay, and emits
    the resulting record (leave/join as membership ops every view applies,
    maintenance as served route-table edits via
    :meth:`~repro.overlay.base.Overlay.diff_state`).  Workers receive the
    records with the window decision and schedule their application at the
    exact virtual times, so mid-window route resolutions observe state
    byte-identical to the unsharded kernel's.

    Tie ordering is the heap's ``(time, seq)``: seq is allocated in schedule
    order — initial leaves in peer-address order, then stabilize, then
    rescheduled events in execution order — exactly the order the unsharded
    :class:`~repro.sim.churn.ChurnDriver` + stabilize chain would pop them.
    Churn, once started, runs for the rest of the run, so every published
    record is one the fleet applies.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.peer_addresses = list(range(config.num_peers))
        self.overlay = config.build_overlay()
        for address in self.peer_addresses:
            self.overlay.join(address)
        self.overlay.stabilize()
        #: the startup snapshot workers restore their overlay views from
        self.snapshot = self.overlay.export_state()
        self.snapshot_bytes = payload_size(self.snapshot)
        self.model = config.build_churn_model()
        self.streams = PeerStreams(config.seed)
        self._heap: List[Tuple[float, int, str, Optional[int]]] = []
        self._seq = itertools.count()
        self._down: set = set()
        self._stabilize_scheduled = False
        self.records_emitted = 0
        self.edits_emitted = 0
        self.record_bytes = 0

    # -- barrier protocol ---------------------------------------------------

    def handle_requests(
        self, requests: Sequence[Tuple[str, float]]
    ) -> None:
        """Process the shards' (SPMD-identical) control requests."""
        for kind, time in requests:
            if kind == "start_churn":
                self._start(time)
            else:  # wire-format drift guard
                raise SimulationError(f"unknown control request {kind!r}")

    def next_time(self) -> float:
        """Earliest unpublished control event (``inf`` when idle)."""
        return self._heap[0][0] if self._heap else _INF

    def advance(self, until: float) -> List[ControlRecord]:
        """Execute control events through ``until``; emit their records.

        Called once per window barrier with the agreed window end; events
        pop in ``(time, seq)`` order and each window's records extend the
        previously published horizon exactly once (the heap is the cursor).
        """
        records: List[ControlRecord] = []
        while self._heap and self._heap[0][0] <= until:
            time, _, kind, peer = heapq.heappop(self._heap)
            if kind == "leave":
                self._exec_leave(time, peer, records)
            elif kind == "rejoin":
                self._exec_rejoin(time, peer, records)
            else:
                self._exec_stabilize(time, records)
        if records:
            self.records_emitted += len(records)
            self.record_bytes += payload_size(records)
        return records

    # -- the churn / maintenance timeline ----------------------------------

    def _schedule(self, time: float, kind: str, peer: Optional[int]) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, peer))

    def _start(self, t0: float) -> None:
        """Mirror Scenario.start_churn: every peer's leave cycle, then the
        periodic stabilize chain.  Every peer starts cycling at the first
        start, so a second start schedules nothing."""
        if not self.model.churns or self._stabilize_scheduled:
            return
        self._stabilize_scheduled = True
        for peer in self.peer_addresses:
            self._schedule_leave(t0, peer)
        self._schedule(t0 + self.config.stabilize_interval, "stabilize", None)

    def _schedule_leave(self, now: float, peer: int) -> None:
        session = self.model.session_time(self.streams.churn_rng(peer))
        if session == _INF:
            return
        self._schedule(now + session, "leave", peer)

    def _exec_leave(
        self, time: float, peer: int, records: List[ControlRecord]
    ) -> None:
        if peer in self._down:
            return
        self._down.add(peer)
        self.overlay.leave(peer)
        records.append((time, "leave", peer))
        downtime = self.model.downtime(self.streams.churn_rng(peer))
        self._schedule(time + downtime, "rejoin", peer)

    def _exec_rejoin(
        self, time: float, peer: int, records: List[ControlRecord]
    ) -> None:
        self._down.discard(peer)
        self.overlay.join(peer)
        records.append((time, "join", peer))
        self._schedule_leave(time, peer)

    def _exec_stabilize(
        self, time: float, records: List[ControlRecord]
    ) -> None:
        """One maintenance round, served: recompute on the authority, diff,
        emit only the changed route-table entries."""
        before = self.overlay.export_state()
        self.overlay.stabilize()
        self.overlay.repair()
        edits = self.overlay.diff_state(before)
        self.edits_emitted += len(edits)
        records.append((time, "maintenance", edits))
        self._schedule(
            time + self.config.stabilize_interval, "stabilize", None
        )


# ---------------------------------------------------------------------------
# Shard runtime: per-worker state shared by the worker's kernel and network.
# ---------------------------------------------------------------------------


class _ShardRuntime:
    """One worker's shard identity, exchange outbox, and channel."""

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        channel: WorkerEndpoint,
        lookahead: float,
        snapshot: dict,
    ) -> None:
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.channel = channel
        self.lookahead = lookahead
        #: per-destination-shard exchange queues for the current window
        self.outbound: List[List[ExchangeRecord]] = [
            [] for _ in range(num_shards)
        ]
        self.outbound_count = 0
        self._seq = 0
        #: back-reference for injecting received records (set by the
        #: worker scenario once its network exists)
        self.network: Optional[PhysicalNetwork] = None
        self.windows = 0
        #: the control plane's startup overlay snapshot (shared read-only;
        #: views restore by deep copy)
        self.snapshot = snapshot
        #: control requests pending for the next barrier
        self.control_requests: List[Tuple[str, float]] = []
        #: WAL runs: installed by :func:`_worker_body` — exports the
        #: worker's stats delta + kernel/RNG cursors at each barrier
        self.wal_probe: Optional[Callable[[], bytes]] = None
        #: accounting-only observers called with the window index at each
        #: barrier (trace-store flush / per-window stats deltas); hooks run
        #: outside the event stream and must not schedule events or draw
        #: from simulation RNGs
        self.barrier_hooks: List[Callable[[int], None]] = []

    def request_control(self, kind: str, time: float) -> None:
        """Queue a control request for the next window barrier."""
        self.control_requests.append((kind, time))

    def take_requests(self) -> List[Tuple[str, float]]:
        out = self.control_requests
        self.control_requests = []
        return out

    def owns(self, address: int) -> bool:
        return address % self.num_shards == self.shard_id

    def append_record(
        self,
        deliver_at: float,
        src: int,
        dst: int,
        msg_type: str,
        payload: Any,
        size_bytes: int,
        wire_bytes: int,
        hops: int = 1,
    ) -> None:
        self._seq += 1
        self.outbound[dst % self.num_shards].append(
            (deliver_at, self.shard_id, self._seq, src, dst, msg_type,
             payload, size_bytes, wire_bytes, hops)
        )
        self.outbound_count += 1

    def take_outbound(self) -> List[List[ExchangeRecord]]:
        out = self.outbound
        self.outbound = [[] for _ in range(self.num_shards)]
        self.outbound_count = 0
        return out


# ---------------------------------------------------------------------------
# The windowed shard kernel.
# ---------------------------------------------------------------------------


class ShardSimulator(Simulator):
    """A shard's event heap, advanced in coordinator-agreed windows.

    ``run()`` loops window barriers: flush the exchange outbox, receive the
    coordinator's decision (next window start = the global minimum next
    event time, so empty stretches are skipped in one hop) plus the sorted
    inbound records, inject them, and run the plain kernel to the window
    end.  The loop exits in lockstep — every worker sees the same decision
    stream, so all workers perform the same number of barriers per ``run``
    call, which is what keeps SPMD workloads aligned.
    """

    def __init__(
        self,
        seed: int,
        runtime: _ShardRuntime,
        control_sink: Callable[[List[ControlRecord]], None],
    ) -> None:
        super().__init__(seed)
        self._runtime = runtime
        #: schedules a barrier's served delta records at their exact
        #: virtual times (the worker scenario's)
        self._control_sink = control_sink
        self._exhausted = False

    @property
    def pending_events(self) -> int:
        """Live local events plus not-yet-exchanged cross-shard records."""
        return self._pending + self._runtime.outbound_count

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        runtime = self._runtime
        executed = 0
        entry_now = self._now
        last_this_run = -_INF
        self._exhausted = False
        probe = runtime.wal_probe
        while True:
            for hook in runtime.barrier_hooks:
                hook(runtime.windows)
            decision, inbox = runtime.channel.sync(
                runtime.take_outbound(),
                self.next_event_time(),
                last_this_run,
                executed,
                runtime.take_requests(),
                probe() if probe is not None else None,
            )
            runtime.windows += 1
            self._inject(inbox)
            if decision.control:
                # Schedule the window's served control-plane deltas at their
                # exact virtual times (before any break — records may reach
                # past this run's `until`, exactly like the flat kernel's
                # still-queued churn events).
                self._control_sink(decision.control)
            window_start = decision.window_start
            if (
                max_events is not None
                and decision.total_executed >= max_events
            ):
                self._exhausted = True
                break
            if window_start == _INF:
                # Global quiescence: every heap empty, nothing in flight.
                if until is not None:
                    if until > self._now:
                        self._now = until
                else:
                    # Agree on the unsharded clock: the time of the last
                    # event executed anywhere this run (window ends are
                    # transient clamps and must not leak into `now`).
                    self._now = max(entry_now, decision.global_last)
                break
            if until is not None and window_start > until:
                if until > self._now:
                    self._now = until
                break
            window_end = window_start + runtime.lookahead
            if until is not None and window_end > until:
                window_end = until
            # Bound the window by the remaining event budget so a runaway
            # schedule loop inside one window returns to the barrier (where
            # the global exhaustion check raises) instead of hanging every
            # other shard at its sync point forever.
            inner_budget = (
                None if max_events is None else max(0, max_events - executed)
            )
            ran = Simulator.run(
                self, until=window_end, max_events=inner_budget
            )
            executed += ran
            if ran:
                last_this_run = self._last_event_time
        return executed

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        executed = self.run(max_events=max_events)
        if self._exhausted:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events "
                "(summed across shards)"
            )
        return executed

    def _inject(self, frames: Sequence[ExchangeFrame]) -> None:
        """Schedule received cross-shard deliveries at their exact times.

        The inbox holds one :class:`ExchangeFrame` per sender shard, merged
        and ordered by ``(deliver_time, src_shard, seq)`` with one
        ``np.lexsort`` and bulk-scheduled through the array-native
        :meth:`Simulator.schedule_block` — no per-event tuple/handle
        allocation.  The kernel's own past-time validation doubles as the
        conservative-window guard (a record behind the local clock means
        the lookahead contract was violated and raises loudly).
        """
        if not frames:
            return
        times, columns = merge_frames(frames)
        self.schedule_block(
            times, self._runtime.network._deliver_lazy, columns
        )


class ShardNetwork(PhysicalNetwork):
    """Shard-aware physical network: the cross-shard cut point.

    The send core is the base class's; this class answers its two
    questions:

    - *Who owns a peer* (:meth:`_owns`): only the source peer's owning
      shard observes, records traffic, draws jitter, and schedules
      delivery.  Replicated orchestrator-level sends on other shards still
      compute the same :class:`~repro.sim.transport.Outcome`-visible
      results (liveness from the synced replica, drops from the shared
      per-peer loss stream) so SPMD workload code observes identical
      outcomes everywhere while every byte is accounted exactly once.
    - *Where a delivery goes* (:meth:`_schedule_block`): a delivery owed to
      a peer on another shard becomes an :data:`ExchangeRecord` (full
      delivery time computed at send time from the source's streams)
      instead of a local heap entry.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: LatencyModel,
        stats: StatsCollector,
        streams: PeerStreams,
        runtime: _ShardRuntime,
    ) -> None:
        super().__init__(simulator, streams, latency=latency, stats=stats)
        self._runtime = runtime

    def _owns(self, address: int) -> bool:
        return self._runtime.owns(address)

    def _schedule_block(self, dsts, delays, messages=None, fan_out=None):
        """Local destinations onto this heap through the base class, the
        rest into the window's exchange outbox as :meth:`_deliver_lazy`
        records, which a fan-out's shared fields or a message fill."""
        now = self.simulator.now
        append_record = self._runtime.append_record
        local: List[int] = []
        if messages is None:
            delays = delays.tolist()
            src, msg_type, payload, size_bytes, wire_bytes = fan_out
        for row, (dst, delay) in enumerate(zip(dsts, delays)):
            if self._owns(dst):
                local.append(row)
            elif messages is None:
                append_record(now + delay, src, dst, msg_type, payload,
                              size_bytes, wire_bytes)
            else:
                m = messages[row]
                append_record(now + delay, m.src, dst, m.msg_type, m.payload,
                              m.size_bytes, m.wire_bytes, m.hops)
        if local:
            super()._schedule_block(
                [dsts[row] for row in local], [delays[row] for row in local],
                None if messages is None else [messages[row] for row in local],
                fan_out,
            )

    # Own attributes, not inherited ones: benchmarks/perf resolves its span
    # targets through ``ShardNetwork.__dict__``.
    send = PhysicalNetwork.send
    send_batch = PhysicalNetwork.send_batch
    broadcast_block = PhysicalNetwork.broadcast_block


class _ShardWorkerScenario(Scenario):
    """One shard's reader of the scenario, wired to the shard runtime.

    It computes no control plane: the overlay is a *view* restored from
    the directory's startup snapshot (no joins computed locally), churn is
    a :class:`~repro.sim.churn.DirectoryChurnClient` forwarding its start
    through the barrier, served delta records apply at their exact virtual
    times, and per-peer state materializes only for owned peers.
    """

    sharded = True

    def __init__(self, config: ScenarioConfig, runtime: _ShardRuntime) -> None:
        self._runtime = runtime
        super().__init__(config)
        runtime.network = self.network

    @property
    def shard_id(self) -> int:
        return self._runtime.shard_id

    def add_barrier_hook(self, hook: Callable[[int], None]) -> bool:
        """Register an accounting-only observer called with the window index
        at every window barrier.  Returns True — the sharded kernel has
        barriers (the unsharded base returns False)."""
        self._runtime.barrier_hooks.append(hook)
        return True

    def _make_simulator(self) -> Simulator:
        return ShardSimulator(
            self.config.seed, self._runtime, self._schedule_control_records
        )

    def _make_network(self) -> PhysicalNetwork:
        return ShardNetwork(
            self.simulator,
            latency=self.config.build_latency(),
            stats=self.stats,
            streams=self.streams,
            runtime=self._runtime,
        )

    def _build_overlay(self):
        # Directory-served view: restore the authoritative snapshot instead
        # of computing N joins + finalization (entries_built stays 0).
        overlay = self.config.build_overlay()
        overlay.restore_state(self._runtime.snapshot)
        return overlay

    def _make_churn_driver(self):
        return DirectoryChurnClient(
            self.simulator, self.churn_model, self._runtime.request_control
        )

    def start_churn(self) -> None:
        """Ask the directory to begin churn cycles and maintenance; both
        arrive as served records, so nothing is scheduled here."""
        self.churn_driver.start(self.peer_addresses)

    def _schedule_control_records(
        self, records: List[ControlRecord]
    ) -> None:
        """Schedule a window's served deltas at their exact virtual times.

        Records arrive in the directory's emission order; equal-time records
        keep that order through the kernel's tie-breaking sequence numbers.
        Service traffic is accounted outside the golden fingerprint
        (:meth:`StatsCollector.record_directory`).
        """
        edits = sum(
            len(payload) for _, kind, payload in records
            if kind == "maintenance"
        )
        self.stats.record_directory(
            len(records), payload_size(records), edits=edits
        )
        self.simulator.schedule_batch_at(
            [record[0] for record in records],
            self._apply_control_record,
            ((record,) for record in records),
        )

    def _apply_control_record(self, record: ControlRecord) -> None:
        """Apply one served record — observable for observable what the
        flat kernel's ``ChurnDriver._leave`` / ``_rejoin`` and
        ``_periodic_stabilize`` do."""
        _, kind, payload = record
        if kind == "leave":
            self.network.set_down(payload, True)
            self.churn_driver.leave_count += 1
            self._on_peer_leave(payload)
        elif kind == "join":
            self.network.set_down(payload, False)
            self.churn_driver.join_count += 1
            self._on_peer_join(payload)
        elif kind == "maintenance":
            self.overlay.apply_state_edits(payload)
            if self.owns_control():
                self.stats.increment("stabilize_rounds")
            self._charge_maintenance()
        else:  # pragma: no cover - wire-format drift guard
            raise ConfigurationError(f"unknown control record kind {kind!r}")

    def owns(self, address: int) -> bool:
        return self._runtime.owns(address)

    def owns_control(self) -> bool:
        return self._runtime.shard_id == 0


# ---------------------------------------------------------------------------
# The worker bootstrap (both halves of the window protocol are
# repro.sim.barrier; serial below and the tcp/mp fleet in repro.sim.tcpexec
# each add a wire and a link).
# ---------------------------------------------------------------------------


def _worker_body(
    config: ScenarioConfig,
    workload: Workload,
    runtime: _ShardRuntime,
    wal_cadence: int = 0,
) -> Any:
    scenario = _ShardWorkerScenario(config, runtime)
    probe = None
    if wal_cadence:
        probe = WalProbe(scenario, wal_cadence)
        runtime.wal_probe = probe
    result = workload(scenario)
    # Fold the channel's exchange accounting (frames shipped, records,
    # encoded bytes, pickled payloads) into the worker's collector; merged
    # parent-side like the directory counters, never fingerprinted.
    if runtime.channel.exchange:
        scenario.stats.exchange.update(runtime.channel.exchange)
    # Fourth element: the WAL tail (post-barrier stats delta + final
    # cursors), sealed into the commit record coordinator-side.
    tail = probe.tail() if probe is not None else None
    return (scenario.stats, scenario.simulator.now, result, tail)


def _run_worker(
    channel: WorkerEndpoint,
    config: ScenarioConfig,
    workload: Workload,
    num_shards: int,
    lookahead: float,
    snapshot: dict,
    wal_cadence: int,
) -> bool:
    """One shard worker's whole life, whatever carries its channel: build
    the runtime, run the workload, report ``finish(payload)`` — or
    ``fail(traceback)``, under one guard so a failure to even build the
    scenario still reaches the coordinator.  Returns whether it finished."""
    try:
        runtime = _ShardRuntime(
            channel.shard_id, num_shards, channel, lookahead, snapshot=snapshot
        )
        channel.finish(_worker_body(config, workload, runtime, wal_cadence))
        return True
    except BaseException:
        try:
            channel.fail(traceback.format_exc())
        except Exception:
            # The link is gone too; the coordinator sees the death itself.
            pass
        return False


# ---------------------------------------------------------------------------
# Serial executor: lockstep worker threads, in-process queues.
# ---------------------------------------------------------------------------


class _ThreadChannel(WorkerEndpoint):
    """The serial executor's wire: one shared queue up, this worker's own
    queue down."""

    def __init__(
        self,
        shard_id: int,
        to_coordinator: "queue.Queue",
        from_coordinator: "queue.Queue",
    ) -> None:
        super().__init__(shard_id)
        self.to_coordinator = to_coordinator
        self.from_coordinator = from_coordinator

    def _send(self, kind: str, payload: Any) -> None:
        self.to_coordinator.put((self.shard_id, kind, payload))

    def _recv(self, barrier: int) -> Tuple[str, Any]:
        return self.from_coordinator.get()

    # An own attribute, not an inherited one: benchmarks/perf resolves its
    # span target through ``_ThreadChannel.__dict__``.
    sync = WorkerEndpoint.sync


class _ThreadLink:
    """The serial executor's :mod:`~repro.sim.barrier` link: one shared
    queue up, one queue per worker thread down."""

    def __init__(self, num_shards: int) -> None:
        self.to_coordinator: "queue.Queue" = queue.Queue()
        self.from_coordinator = [queue.Queue() for _ in range(num_shards)]

    def collect(self, barrier: int) -> List[Tuple[int, str, Any]]:
        return [self.to_coordinator.get() for _ in self.from_coordinator]

    def send_decision(self, shard_id: int, verdict: Verdict) -> None:
        self.from_coordinator[shard_id].put(("decision", verdict))

    def abort(self, shard_id: int, failure: str) -> None:
        self.from_coordinator[shard_id].put(("abort", failure))


def _run_serial(
    config: ScenarioConfig, workload: Workload, num_shards: int,
    lookahead: float, plane: DirectoryControlPlane,
    wal: Optional[WalSession] = None,
) -> Tuple[List[tuple], int, Counter]:
    link = _ThreadLink(num_shards)
    wal_cadence = wal.cursor_every if wal is not None else 0

    def worker(shard_id: int) -> None:
        channel = _ThreadChannel(
            shard_id, link.to_coordinator, link.from_coordinator[shard_id]
        )
        _run_worker(
            channel, config, workload, num_shards, lookahead, plane.snapshot,
            wal_cadence,
        )

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(num_shards)
    ]
    for thread in threads:
        thread.start()
    payloads, windows = coordinate(link, num_shards, lookahead, plane, wal)
    for thread in threads:
        thread.join(timeout=30.0)
    # Third element: coordinator-side recovery counters — always
    # empty here (only the tcp/mp fleet's supervision loop recovers).
    return payloads, windows, Counter()


# ---------------------------------------------------------------------------
# The one fork: every worker of an mp run, a tcp run's ``local`` slots.
# ---------------------------------------------------------------------------


def _mp_context():
    """The fork behind every worker of the fleet
    (:meth:`repro.sim.tcpexec.TcpCoordinator._spawn`)."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-fork platforms
        raise ConfigurationError(
            "the mp and tcp shard executors require the fork start "
            "method (unavailable on this platform); use executor='serial'"
        ) from exc


# ---------------------------------------------------------------------------
# Public API.
# ---------------------------------------------------------------------------


@dataclass
class ShardedRun:
    """Merged outcome of one sharded execution."""

    stats: StatsCollector
    now: float
    results: List[Any]
    shards: int
    executor: str
    lookahead: float
    #: window barriers the run synchronized at (diagnostics: with window
    #: skipping this is bounded by the number of event clusters, not the
    #: virtual duration / lookahead)
    windows: int
    #: delta records / route-table edits the control plane published, and
    #: their modelled service bytes (snapshot included) — diagnostics,
    #: never part of the digest
    control_records: int
    control_edits: int
    control_bytes: int

    def digest(self) -> str:
        """Golden-suite-comparable digest (fingerprint + final clock)."""
        return scenario_digest(self.stats, self.now)


class ShardedScenario:
    """K-shard execution harness behind one API for every executor.

    ``run(workload)`` executes the SPMD ``workload(scenario)`` callable on
    every shard worker (serial threads, or the fleet's worker processes,
    all forked here under mp and its second name tcp), merges
    the per-shard :class:`StatsCollector`s in shard order, and agrees the
    final virtual clock — producing observables byte-identical to the
    unsharded kernel running the same config.
    """

    def __init__(
        self, config: ScenarioConfig, executor: str = "serial"
    ) -> None:
        config.validate()
        if config.shards < 1:
            raise ConfigurationError(
                "ShardedScenario needs config.shards >= 1"
            )
        if executor not in EXECUTORS:
            raise ConfigurationError(f"unknown executor {executor!r}")
        self.config = config
        self.executor = executor
        self.lookahead = compute_lookahead(config.build_latency())

    def run(self, workload: Workload) -> ShardedRun:
        if self.executor == "serial":
            runner = _run_serial
        else:
            # The fleet lives in its own module; imported lazily so serial
            # runs never touch it.
            from repro.sim.tcpexec import run_tcp

            runner = run_tcp
        plane = DirectoryControlPlane(self.config)
        wal = (
            WalSession(self.config, self.config.shards, self.lookahead)
            if (self.config.wal or self.config.resume)
            else None
        )
        try:
            payloads, windows, recovery = runner(
                self.config, workload, self.config.shards, self.lookahead,
                plane=plane, wal=wal,
            )
            merged = StatsCollector()
            now = -_INF
            results = []
            tails: List[Optional[dict]] = []
            for stats, worker_now, result, tail in payloads:
                tails.append(tail)
                merged.merge(stats)
                now = max(now, worker_now)
                results.append(result)
            # Coordinator-side recovery accounting (worker deaths,
            # respawns, WAL windows replayed, heartbeats).
            merged.faults.update(recovery)
            run = ShardedRun(
                stats=merged,
                now=now,
                results=results,
                shards=self.config.shards,
                executor=self.executor,
                lookahead=self.lookahead,
                windows=windows,
                control_records=plane.records_emitted,
                control_edits=plane.edits_emitted,
                control_bytes=plane.snapshot_bytes + plane.record_bytes,
            )
            if wal is not None:
                wal.finish(run.digest(), run.now, windows, tails)
            return run
        finally:
            if wal is not None:
                wal.close()
