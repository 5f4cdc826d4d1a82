"""Sharded event kernel: peers partitioned across K simulator heaps,
advanced in conservative virtual-time windows.

This is the parallel-discrete-event layer of the stack.  A
:class:`ShardedScenario` splits the peer population across ``K`` shards
(round-robin, :func:`shard_of`); each shard owns a full
:class:`~repro.sim.engine.Simulator` heap and a replica of the scenario
(overlay, liveness, churn timelines).  Shards advance in lockstep windows of
length *lookahead* — the guaranteed minimum cross-shard delivery delay
(:func:`compute_lookahead`) — so an event executed inside a window can never
be affected by a message sent in the same window by another shard.

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
2. *Replicated control plane*: churn timelines and overlay maintenance are
   autonomous deterministic processes (they draw only from per-peer streams
   and overlay state), so every shard replays them in full, keeping its
   overlay/liveness replicas in sync without any cross-shard traffic.
   Ownership hooks (:meth:`~repro.sim.scenario.Scenario.owns`) gate each
   replicated observable to exactly one shard's
   :class:`~repro.sim.stats.StatsCollector`.
3. *Commutative accounting*: stats are counters; the merge of the per-shard
   collectors (:meth:`StatsCollector.merge`) equals the single collector of
   the unsharded run regardless of execution order.

Three executors run the same shard-worker bootstrap (:func:`_run_worker`)
under the same window protocol (:mod:`repro.sim.barrier`: the coordinator
loop :func:`~repro.sim.barrier.coordinate`, the worker endpoint
:class:`~repro.sim.barrier.WorkerEndpoint`); each contributes only worker
spawn, teardown, a *link* — how one barrier round of sync/done/error
messages is collected and how decisions and aborts reach a worker — and a
*wire* — how a worker sends one such message and receives the answer.
Every executor ships the same encoded ``SoA1`` frame blobs:

- ``serial`` — the deterministic reference: worker replicas run as lockstep
  threads in one process; messages cross in-process queues and every frame
  takes the relay route (up in the sync, down in the receiver's decision).
- ``mp`` — one forked worker process per shard; control messages flow over
  pipes, exchange frames peer to peer over shared-memory rings
  (:class:`~repro.sim.exchange.RingExchange` — zero per-record pickling).
  A frame too large for its ring is relayed through the coordinator
  instead, counted in ``StatsCollector.exchange["queue_fallbacks"]``; the
  per-worker stats are merged in the parent via
  :meth:`StatsCollector.merge`.
- ``tcp`` — workers over sockets (:mod:`repro.sim.tcpexec`): every frame
  takes the relay route, and the link's collect step supervises the fleet.

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

**The directory control plane** (``control_plane="directory"``) sheds rule
2's per-worker O(N) price: instead of every shard replaying churn timelines
and overlay maintenance for all N peers, one authoritative
:class:`DirectoryControlPlane` (owned by the window coordinator) runs them
once, publishes a deterministic overlay snapshot at startup plus per-window
:data:`ControlRecord` deltas — join/leave membership ops and served
route-table edits, serialized and ordered like exchange records — and
workers apply the deltas at barriers, scheduled at their exact virtual
times.  Worker overlays become *views*: same class, same route algorithms,
state restored rather than computed; per-peer workload state materializes
only for owned peers (:meth:`Scenario.materialize_peer`).  The equivalence
argument changes from "every shard computes everything identically" to "one
writer, K readers, provably the same observable stream" — enforced by the
same differential fuzz and golden suites, byte for byte, plus the
directory-specific tiers in ``tests/test_directory_plane.py``.

Not to be confused with :class:`repro.sim.distribution.ShardSpec`, which
describes how *data* is distributed across peers; this module shards the
*event kernel* across workers.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import os
import queue
import threading
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.barrier import Verdict, WorkerEndpoint, coordinate
from repro.sim.churn import DirectoryChurnClient
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.exchange import (
    ExchangeFrame,
    RingExchange,
    exchange_timeout_seconds,
    merge_frames,
)
from repro.sim.messages import payload_size
from repro.sim.network import LatencyModel, PeerStreams, PhysicalNetwork
from repro.sim.scenario import Scenario, ScenarioConfig
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
#: address (replicated cheap ops: the view updates membership itself);
#: maintenance carries the served route-table edits
#: (:data:`repro.overlay.base.StateEdit` tuples) the authority computed.
ControlRecord = Tuple[float, str, Any]

Workload = Callable[[Scenario], Any]


def shard_of(address: int, num_shards: int) -> int:
    """Owning shard of a peer address (round-robin partition)."""
    return address % num_shards


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
# The directory control plane (control_plane="directory").
# ---------------------------------------------------------------------------


class DirectoryControlPlane:
    """The single authoritative control plane of a directory-mode run.

    Owned by the window coordinator (the parent process under the mp
    executor, the coordinator loop under serial).  It constructs the one
    authoritative overlay — N joins plus table finalization, paid exactly
    once per run instead of once per shard — publishes its
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
    the resulting record (leave/join as replicated membership ops,
    maintenance as served route-table edits via
    :meth:`~repro.overlay.base.Overlay.diff_state`).  Workers receive the
    records with the window decision and schedule their application at the
    exact virtual times, so mid-window route resolutions observe state
    byte-identical to the replicated (and unsharded) kernels.

    Tie ordering is the heap's ``(time, seq)``: seq is allocated in schedule
    order — initial leaves in peer-address order, then stabilize, then
    rescheduled events in execution order — exactly the order the unsharded
    :class:`~repro.sim.churn.ChurnDriver` + stabilize chain would pop them.

    ``stop_churn`` arrives at the barrier *after* the window in which the
    workload called it; records already published past the stop time are
    suppressed worker-side (:meth:`DirectoryChurnClient.suppresses`), which
    reproduces the driver's "queued events fire inactive" semantics.  The
    authoritative overlay, however, has already executed such records, so a
    stop that lands mid-window with published churn behind it raises loudly
    instead of letting later maintenance diffs serve diverged state (see
    :meth:`_stop`).
    """

    def __init__(self, config: ScenarioConfig) -> None:
        if config.control_plane != "directory":
            raise ConfigurationError(
                "DirectoryControlPlane requires control_plane='directory'"
            )
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
        self._active: Dict[int, bool] = {}
        self._down: set = set()
        self._stabilize_scheduled = False
        #: virtual times of every published churn record — consulted by
        #: _stop to detect the unsupported mid-window stop (see below)
        self._published_churn_times: List[float] = []
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
            elif kind == "stop_churn":
                self._stop(time)
            else:  # pragma: no cover - wire-format drift guard
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
        """Mirror Scenario.start_churn: per-peer leave cycles (none for a
        peer already cycling), then the periodic stabilize chain."""
        if self.model.churns:
            for peer in self.peer_addresses:
                if self._active.get(peer):
                    continue
                self._active[peer] = True
                self._schedule_leave(t0, peer)
        if self.model.churns and not self._stabilize_scheduled:
            self._stabilize_scheduled = True
            self._schedule(
                t0 + self.config.stabilize_interval, "stabilize", None
            )

    def _stop(self, time: float) -> None:
        # A stop request reaches the plane one barrier after the workload
        # called it, but records for that window were published — and
        # executed against the authoritative overlay — at the window's
        # opening barrier.  Workers correctly suppress published churn
        # records past the stop instant (DirectoryChurnClient.suppresses),
        # so a churn record in (stop, window_end] means the authority has
        # applied a membership change the fleet skipped: every later
        # maintenance diff would serve state the replicated kernel never
        # reaches.  Rather than silently diverge, fail loudly — directory
        # mode supports stop() whenever no churn record past the stop
        # instant was already published (in particular any stop between
        # run() calls or in churn-quiet stretches).
        suppressed = [t for t in self._published_churn_times if t > time]
        if suppressed:
            raise SimulationError(
                f"directory control plane: stop_churn at t={time} arrived "
                f"after churn records at {sorted(suppressed)} were already "
                "published and applied to the authoritative overlay; the "
                "served state would diverge from the replicated kernel. "
                "Stop churn at a churn-quiet point, or use "
                "control_plane='replicated' for mid-window stops."
            )
        for peer in self._active:
            self._active[peer] = False

    def _schedule_leave(self, now: float, peer: int) -> None:
        session = self.model.session_time(self.streams.churn_rng(peer))
        if session == _INF:
            return
        self._schedule(now + session, "leave", peer)

    def _exec_leave(
        self, time: float, peer: int, records: List[ControlRecord]
    ) -> None:
        if not self._active.get(peer):
            return
        if peer in self._down:
            return
        self._down.add(peer)
        self.overlay.leave(peer)
        records.append((time, "leave", peer))
        self._published_churn_times.append(time)
        downtime = self.model.downtime(self.streams.churn_rng(peer))
        self._schedule(time + downtime, "rejoin", peer)

    def _exec_rejoin(
        self, time: float, peer: int, records: List[ControlRecord]
    ) -> None:
        if not self._active.get(peer):
            return
        self._down.discard(peer)
        self.overlay.join(peer)
        records.append((time, "join", peer))
        self._published_churn_times.append(time)
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
        snapshot: Optional[dict] = None,
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
        #: directory mode: the control plane's startup overlay snapshot
        #: (shared read-only; views restore by deep copy)
        self.snapshot = snapshot
        #: directory mode: control requests pending for the next barrier
        self.control_requests: List[Tuple[str, float]] = []
        #: directory mode: installed by the worker scenario — schedules the
        #: barrier's served delta records at their exact virtual times
        self.control_sink: Optional[Callable[[List[ControlRecord]], None]] = (
            None
        )
        #: WAL runs: installed by :func:`_worker_body` — exports the
        #: worker's stats delta + kernel/RNG cursors at each barrier
        self.wal_probe: Optional[Callable[[], bytes]] = None
        #: accounting-only observers called with the window index at each
        #: barrier (trace-store flush / per-window stats deltas); hooks run
        #: outside the event stream and must not schedule events or draw
        #: from simulation RNGs
        self.barrier_hooks: List[Callable[[int], None]] = []
        #: fault plane (repro.sim.faults): installed by the tcp worker to
        #: fire this shard's injected process faults (crash/stall/half-
        #: open) with the window index at each barrier, after the
        #: accounting hooks and before the sync
        self.fault_hook: Optional[Callable[[int], None]] = None

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

    def __init__(self, seed: int, runtime: _ShardRuntime) -> None:
        super().__init__(seed)
        self._runtime = runtime
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
            if runtime.fault_hook is not None:
                runtime.fault_hook(runtime.windows)
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
                # Directory mode: schedule the window's served control-plane
                # deltas at their exact virtual times (before any break —
                # records may reach past this run's `until`, exactly like
                # the replicated kernels' still-queued churn events).
                runtime.control_sink(decision.control)
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
        rng_for_src: Callable[[int], np.random.Generator],
        loss_rng_for_src: Callable[[int], np.random.Generator],
        runtime: _ShardRuntime,
    ) -> None:
        super().__init__(
            simulator,
            latency=latency,
            stats=stats,
            rng_for_src=rng_for_src,
            loss_rng_for_src=loss_rng_for_src,
        )
        self._runtime = runtime

    def _owns(self, address: int) -> bool:
        return self._runtime.owns(address)

    def _schedule_block(self, dsts, delays, deliver, rows) -> None:
        """Local destinations onto this heap, the rest into the window's
        exchange outbox — as :meth:`_deliver_lazy` argument rows, which a
        fan-out's rows already are and a message's fields fill."""
        now = self.simulator.now
        append_record = self._runtime.append_record
        materialized = deliver == self._deliver
        local_delays: List[float] = []
        local_rows: List[tuple] = []
        for dst, delay, row in zip(dsts, delays, rows):
            if self._owns(dst):
                local_delays.append(delay)
                local_rows.append(row)
            elif materialized:
                (m,) = row
                append_record(now + delay, m.src, dst, m.msg_type, m.payload,
                              m.size_bytes, m.wire_bytes, m.hops)
            else:
                append_record(now + delay, *row)
        if local_rows:
            self.simulator.schedule_batch(local_delays, deliver, local_rows)

    # Own attributes, not inherited ones: benchmarks/perf resolves its span
    # targets through ``ShardNetwork.__dict__``.
    send = PhysicalNetwork.send
    send_batch = PhysicalNetwork.send_batch
    broadcast_block = PhysicalNetwork.broadcast_block


class _ShardWorkerScenario(Scenario):
    """One shard's replica of the scenario, wired to the shard runtime.

    Under ``control_plane="directory"`` the replica sheds its O(N) control
    plane: the overlay is a *view* restored from the directory's startup
    snapshot (no joins computed locally), churn is a
    :class:`~repro.sim.churn.DirectoryChurnClient` forwarding start/stop
    through the barrier, served delta records apply at their exact virtual
    times, and per-peer state materializes only for owned peers.
    """

    sharded = True

    def __init__(self, config: ScenarioConfig, runtime: _ShardRuntime) -> None:
        self._runtime = runtime
        self.directory_mode = config.control_plane == "directory"
        if self.directory_mode and runtime.snapshot is None:
            raise ConfigurationError(
                "directory-mode shard worker needs the control plane's "
                "overlay snapshot"
            )
        super().__init__(config)
        runtime.network = self.network
        if self.directory_mode:
            runtime.control_sink = self._schedule_control_records

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
        return ShardSimulator(self.config.seed, self._runtime)

    def _make_network(self) -> PhysicalNetwork:
        return ShardNetwork(
            self.simulator,
            latency=self.config.build_latency(),
            stats=self.stats,
            rng_for_src=self.streams.net_rng,
            loss_rng_for_src=self.streams.loss_rng,
            runtime=self._runtime,
        )

    def _build_overlay(self):
        if not self.directory_mode:
            return super()._build_overlay()
        # Directory-served view: restore the authoritative snapshot instead
        # of computing N joins + finalization (entries_built stays 0).
        overlay = self.config.build_overlay()
        overlay.restore_state(self._runtime.snapshot)
        return overlay

    def _make_churn_driver(self):
        if not self.directory_mode:
            return super()._make_churn_driver()
        return DirectoryChurnClient(
            self.simulator, self.churn_model, self._runtime.request_control
        )

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

    def owns(self, address: int) -> bool:
        return self._runtime.owns(address)

    def owns_control(self) -> bool:
        return self._runtime.shard_id == 0

    def materializes(self, address: int) -> bool:
        return not self.directory_mode or self._runtime.owns(address)


# ---------------------------------------------------------------------------
# The worker bootstrap (both halves of the window protocol are
# repro.sim.barrier; each executor below adds its wire and its link).
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
    # encoded bytes, fallbacks) into the worker's collector; merged
    # parent-side like the directory counters, never fingerprinted.
    if runtime.channel.exchange:
        scenario.stats.exchange.update(runtime.channel.exchange)
    # Same for the worker-side fault-plane counters (survived stalls):
    # execution-shape accounting, merged but never fingerprinted.
    if runtime.channel.faults:
        scenario.stats.faults.update(runtime.channel.faults)
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
    snapshot: Optional[dict],
    wal_cadence: int,
    fault_hook: Optional[Callable[[int], None]] = None,
) -> bool:
    """One shard worker's whole life, whatever carries its channel: build
    the runtime, run the workload, report ``finish(payload)`` — or
    ``fail(traceback)``, under one guard so a failure to even build the
    scenario still reaches the coordinator.  Returns whether it finished."""
    try:
        runtime = _ShardRuntime(
            channel.shard_id, num_shards, channel, lookahead, snapshot=snapshot
        )
        runtime.fault_hook = fault_hook
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
    lookahead: float, plane: Optional[DirectoryControlPlane] = None,
    wal: Optional[WalSession] = None,
) -> Tuple[List[tuple], int, Counter]:
    link = _ThreadLink(num_shards)
    snapshot = plane.snapshot if plane is not None else None
    wal_cadence = wal.cursor_every if wal is not None else 0

    def worker(shard_id: int) -> None:
        channel = _ThreadChannel(
            shard_id, link.to_coordinator, link.from_coordinator[shard_id]
        )
        _run_worker(
            channel, config, workload, num_shards, lookahead, snapshot,
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
    # Third element: coordinator-side fault/recovery counters — always
    # empty here (only the tcp supervision loop injects and recovers).
    return payloads, windows, Counter()


# ---------------------------------------------------------------------------
# Multiprocessing executor: one forked worker per shard.
# ---------------------------------------------------------------------------


class _ProcessChannel(WorkerEndpoint):
    """The mp executor's wire: control over a pipe to the parent
    coordinator, bulk exchange frames through shared-memory rings (peer to
    peer — the parent sees counts and window decisions, not payload bytes).

    Each destination's outbox is encoded into one length-prefixed
    :class:`ExchangeFrame` blob and published on the ``(src, dst)``
    :class:`ShardRing` — zero per-record pickling, and no feeder threads
    or fds involved.  The sender can run at most one barrier ahead (the
    coordinator withholds the next decision until every shard has synced),
    so ring occupancy is bounded by two windows of traffic; a frame that
    still does not fit is **never** waited on — a writer blocking inside
    the barrier handshake would deadlock the fleet — and is relayed
    instead: the same blob rides this worker's sync up to the coordinator
    and the receiver's decision back down (the route every tcp frame
    takes), counted in ``exchange["queue_fallbacks"]``.

    Ring frames surface per sender in barrier order (each ring is SPSC
    FIFO), and the barrier tag in every frame header is verified on
    decode.  Ring waits carry the ``REPRO_EXCHANGE_TIMEOUT_S`` deadline —
    a sender that died mid-window surfaces as a loud error, never a hang.
    """

    def __init__(
        self, shard_id, connection, rings: Optional[RingExchange] = None,
        wal_blobs: bool = False,
    ) -> None:
        super().__init__(shard_id)
        self.connection = connection
        self.rings = rings
        #: WAL runs: also hand the coordinator each window's encoded frame
        #: blobs inside the sync message (the rings are peer-to-peer, so
        #: the parent never sees payload bytes otherwise)
        self.wal_blobs = wal_blobs
        self.timeout = exchange_timeout_seconds()

    def _send(self, kind: str, payload: Any) -> None:
        self.connection.send((kind, payload))

    def _recv(self, barrier: int) -> Tuple[str, Any]:
        return self.connection.recv()

    def _route(self, blobs):
        routed: List[Tuple[int, Optional[bytes]]] = []
        for dst_shard, blob in blobs:
            if self.rings.ring(self.shard_id, dst_shard).try_push(blob):
                routed.append((dst_shard, None))
            else:
                self.exchange["queue_fallbacks"] += 1
                routed.append((dst_shard, blob))
        return routed

    def _frame(self, src_shard, item, barrier) -> ExchangeFrame:
        if item is None:
            item = self.rings.ring(src_shard, self.shard_id).pop_wait(
                self.timeout,
                context=(
                    f"shard {src_shard} -> {self.shard_id}, "
                    f"barrier {barrier}"
                ),
            )
        return super()._frame(src_shard, item, barrier)


class _PipeLink:
    """The mp executor's :mod:`~repro.sim.barrier` link: one pipe per
    forked worker."""

    def __init__(self, connections: list) -> None:
        self.connections = connections

    def collect(self, barrier: int) -> List[Tuple[int, str, Any]]:
        round_messages = []
        for shard_id, connection in enumerate(self.connections):
            try:
                kind, payload = connection.recv()
            except (EOFError, OSError):
                # The worker died without a word (hard crash / kill): its
                # pipe closed, or reset with our last decision unread.
                # Treat like an error report so the rest of the fleet is
                # aborted instead of left waiting at the barrier forever.
                kind, payload = "error", (
                    f"shard worker {shard_id} died mid-window "
                    "(pipe closed without a sync/done/error message)"
                )
            round_messages.append((shard_id, kind, payload))
        return round_messages

    def send_decision(self, shard_id: int, verdict: Verdict) -> None:
        try:
            self.connections[shard_id].send(("decision", verdict))
        except OSError:
            # The worker died after syncing; the next collect surfaces the
            # loud died-mid-window error and aborts the survivors.
            pass

    def abort(self, shard_id: int, failure: str) -> None:
        self.connections[shard_id].send(("abort", failure))


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-fork platforms
        raise ConfigurationError(
            "the mp shard executor requires the fork start method "
            "(unavailable on this platform); use executor='serial'"
        ) from exc


def _run_mp(
    config: ScenarioConfig, workload: Workload, num_shards: int,
    lookahead: float, plane: Optional[DirectoryControlPlane] = None,
    wal: Optional[WalSession] = None,
) -> Tuple[List[tuple], int, Counter]:
    context = _mp_context()
    parent_connections = []
    processes = []
    # Directory mode: the plane (and its snapshot) is built in the parent
    # BEFORE forking, so every worker inherits the snapshot through fork
    # copy-on-write memory — snapshot distribution costs no pickling at all.
    snapshot = plane.snapshot if plane is not None else None
    # The ring grid likewise: one shared-memory segment mapped pre-fork, so
    # no names or fds cross the process boundary.  K=1 has no cross-shard
    # traffic and skips the mapping entirely.
    rings = RingExchange(num_shards) if num_shards > 1 else None
    # WAL plumbing is captured pre-fork as plain values (the session object
    # itself — open file handle and all — stays parent-only).
    wal_cadence = wal.cursor_every if wal is not None else 0
    wal_blobs = wal is not None

    def child_main(shard_id: int, connection) -> None:
        channel = _ProcessChannel(
            shard_id, connection, rings=rings, wal_blobs=wal_blobs
        )
        _run_worker(
            channel, config, workload, num_shards, lookahead, snapshot,
            wal_cadence,
        )
        try:
            connection.recv()  # parent's "bye": results landed, safe to exit
        except EOFError:
            pass
        os._exit(0)  # skip atexit/pytest teardown in the forked child

    for shard_id in range(num_shards):
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=child_main, args=(shard_id, child_end), daemon=True
        )
        process.start()
        child_end.close()
        parent_connections.append(parent_end)
        processes.append(process)

    try:
        payloads, windows = coordinate(
            _PipeLink(parent_connections), num_shards, lookahead, plane, wal
        )
    finally:
        for connection in parent_connections:
            try:
                connection.send(("bye", None))
            except (BrokenPipeError, OSError):
                pass
        for process in processes:
            process.join(timeout=30.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for connection in parent_connections:
            connection.close()
        if rings is not None:
            rings.destroy()
    return payloads, windows, Counter()


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
    #: "replicated" (SPMD control plane) or "directory"
    control_plane: str = "replicated"
    #: directory mode: delta records / route-table edits the control plane
    #: published, and their modelled service bytes (snapshot included) —
    #: diagnostics, never part of the digest
    control_records: int = 0
    control_edits: int = 0
    control_bytes: int = 0

    def digest(self) -> str:
        """Golden-suite-comparable digest (fingerprint + final clock)."""
        return scenario_digest(self.stats, self.now)


class ShardedScenario:
    """K-shard execution harness behind one API for every executor.

    ``run(workload)`` executes the SPMD ``workload(scenario)`` callable on
    every shard worker (serial threads, forked processes, or tcp-connected
    workers per ``executor``), merges the per-shard
    :class:`StatsCollector`s in shard
    order, and agrees the final virtual clock — producing observables
    byte-identical to the unsharded kernel running the same config.
    """

    def __init__(
        self, config: ScenarioConfig, executor: Optional[str] = None
    ) -> None:
        config.validate()
        if config.shards < 1:
            raise ConfigurationError(
                "ShardedScenario needs config.shards >= 1"
            )
        self.config = config
        self.executor = executor if executor is not None else config.executor
        if self.executor not in ("serial", "mp", "tcp"):
            raise ConfigurationError(f"unknown executor {self.executor!r}")
        self.lookahead = compute_lookahead(config.build_latency())

    def run(self, workload: Workload) -> ShardedRun:
        if self.executor == "tcp":
            # Socket executor lives in its own module; imported lazily so
            # serial/mp runs never touch it.
            from repro.sim.tcpexec import run_tcp

            runner = run_tcp
        else:
            runner = _run_serial if self.executor == "serial" else _run_mp
        plan = FaultPlan.parse(self.config.faults)
        if plan is not None and self.executor != "tcp":
            # Enforced here, not in validate(): the executor argument can
            # override config.executor, and only the tcp fleet has the
            # supervision loop (and separate worker processes) the fault
            # plane targets — os._exit under serial/mp would kill the run.
            raise ConfigurationError(
                "fault injection (config.faults) targets the tcp "
                "executor's self-healing fleet; the serial/mp executors "
                "have no supervision loop to recover injected faults "
                f"(this run uses executor={self.executor!r})"
            )
        if plan is not None and self.config.resume:
            # Injected torn tails apply to the resume log before the
            # WalSession opens it — WalReader discards the torn record
            # and the run replays the shorter verified prefix.
            plan.apply_wal_tears(self.config.resume, self.config.shards)
        plane = (
            DirectoryControlPlane(self.config)
            if self.config.control_plane == "directory"
            else None
        )
        wal = (
            WalSession(
                self.config, self.config.shards, self.lookahead,
                retain_records=(self.executor == "tcp"),
            )
            if (self.config.wal or self.config.resume)
            else None
        )
        try:
            payloads, windows, run_faults = runner(
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
            # Coordinator-side fault/recovery accounting (respawns, WAL
            # windows replayed, heartbeats) joins the workers' counters.
            if run_faults:
                merged.faults.update(run_faults)
            run = ShardedRun(
                stats=merged,
                now=now,
                results=results,
                shards=self.config.shards,
                executor=self.executor,
                lookahead=self.lookahead,
                windows=windows,
                control_plane=self.config.control_plane,
                control_records=plane.records_emitted if plane else 0,
                control_edits=plane.edits_emitted if plane else 0,
                control_bytes=(
                    plane.snapshot_bytes + plane.record_bytes if plane else 0
                ),
            )
            if wal is not None:
                wal.finish(run.digest(), run.now, windows, tails)
            return run
        finally:
            if wal is not None:
                wal.close()


def run_sharded(
    config: ScenarioConfig,
    workload: Workload,
    executor: Optional[str] = None,
) -> ShardedRun:
    """Convenience wrapper: ``ShardedScenario(config, executor).run(...)``."""
    return ShardedScenario(config, executor=executor).run(workload)
