"""The window barrier protocol, both halves — written once, for every executor.

A sharded run advances in conservative virtual-time windows
(:mod:`repro.sim.shard`).  At each barrier every shard worker reports one
message — ``sync`` (a :class:`SyncStatus`), ``done`` (its result payload)
or ``error`` (a traceback) — and the coordinator answers each synced
worker with a :class:`Verdict`: the next window start (the global minimum
next-event time, so empty stretches are skipped in one hop), the agreed
last-event clock and executed total, the worker's inbound exchange frames
in src-shard order, and the control plane's records for the window.

**The coordinator half** is :func:`coordinate`, the loop.  It is where the
directory control plane (the run's one writer) advances, where the WAL
appends (or verifies) its window record, and where divergence between
workers is detected and the synced workers are told to abort.  It talks
to its workers through a *link* — three methods, one implementation per
fleet (serial threads, and the tcp sockets that the mp executor's forked
workers use too):

- ``collect(barrier)`` — one round: an iterable of ``(shard_id, kind,
  payload)``, one entry per shard.  Supervision belongs here: the tcp link
  heals a dead worker from the WAL inside this call and the loop never
  knows.
- ``send_decision(shard_id, verdict)`` — deliver one worker's verdict.
- ``abort(shard_id, failure)`` — tell a synced worker the run is over.
  Every call goes through :func:`abort_workers`' guard, so one dead worker
  can never mask the failure being reported.

**The worker half** is :class:`WorkerEndpoint`: its ``sync`` is the only
place a worker's barrier is sequenced.  It talks to the coordinator
through a *wire* — two methods, again one implementation per fleet:

- ``_send(kind, payload)`` — one ``sync`` / ``done`` / ``error`` message up.
- ``_recv(barrier)`` — the answer: ``("decision", Verdict)`` or
  ``("abort", reason)``.

Every wire carries the window's exchange frames the same way: encoded
blobs ride the sender's sync up and each receiver's verdict down.  The
coordinator is the exchange fabric, and the blobs it routes are the bytes
the WAL logs.  Spawning workers and tearing them down stay with the
executor that owns them.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.exchange import ExchangeFrame, encode_outbound_blobs

_INF = float("inf")


class Verdict(NamedTuple):
    """One worker's window verdict as it crosses every link — identical
    for all shards except for ``inbound``."""

    window_start: float
    global_last: float
    total_executed: int
    #: ``(src_shard, blob)`` per encoded frame routed to this worker, in
    #: src-shard order
    inbound: List[Tuple[int, bytes]]
    #: this window's served control-plane delta records (application is
    #: ownership-gated worker-side)
    control: List[tuple]


class SyncStatus(NamedTuple):
    """One worker's report at a window barrier."""

    next_time: float
    last_time: float
    executed: int
    #: earliest delivery among the frames this worker just sent
    min_outbound: float
    #: control-plane requests (SPMD-identical across shards)
    requests: list
    #: the worker's pre-pickled WAL probe output (None without a WAL)
    extras: Optional[bytes]
    #: ``(dst_shard, encoded frame)`` per outbound frame: the blobs the
    #: coordinator routes into the receivers' verdicts and the WAL logs
    routed: List[Tuple[int, bytes]]

    @property
    def logged(self) -> Tuple[float, float, int, list, Optional[bytes]]:
        """The fields a WAL window record keeps, and verifies, per shard."""
        return (self.next_time, self.last_time, self.executed,
                self.requests, self.extras)


def agreed_requests(
    all_requests: List[List[Tuple[str, float]]],
) -> List[Tuple[str, float]]:
    """The barrier's control requests, verified SPMD-identical per shard."""
    first = all_requests[0]
    for requests in all_requests[1:]:
        if requests != first:
            raise SimulationError(
                "shard workers diverged: control requests differ across "
                f"shards at one barrier ({all_requests!r}) — the SPMD "
                "workload contract requires identical orchestration"
            )
    return first


def reduce_window(
    statuses: List[SyncStatus],
) -> Tuple[float, float, int, Dict[Tuple[int, int], bytes]]:
    """Reduce one barrier round: the next window start (global minimum
    next-event time, counting the frames just sent), the agreed last-event
    clock, the global executed-event total, and the routing grid
    ``(src_shard, dst_shard) -> blob``.  Routing is pure pointer moves; the
    cross-frame sort happens once, receiver-side, in
    :func:`~repro.sim.exchange.merge_frames`."""
    window_start = _INF
    global_last = -_INF
    total_executed = 0
    routed: Dict[Tuple[int, int], bytes] = {}
    for src_shard, status in enumerate(statuses):
        window_start = min(window_start, status.next_time, status.min_outbound)
        global_last = max(global_last, status.last_time)
        total_executed += status.executed
        for dst_shard, blob in status.routed:
            routed[(src_shard, dst_shard)] = blob
    return window_start, global_last, total_executed, routed


def verdict_for(
    shard_id: int,
    num_shards: int,
    window_start: float,
    global_last: float,
    total_executed: int,
    routed: Dict[Tuple[int, int], bytes],
    control: List[tuple],
) -> Verdict:
    """One worker's verdict: the window's agreed scalars plus the worker's
    column of the routing grid, in src-shard order (the tie-break order of
    the receiver's merge).  Live windows and tcp's WAL-prefix replay (whose
    grid is the logged ``WindowRecord.frames``) both build through here."""
    inbound = [
        (src_shard, routed[(src_shard, shard_id)])
        for src_shard in range(num_shards)
        if (src_shard, shard_id) in routed
    ]
    return Verdict(window_start, global_last, total_executed, inbound, control)


def abort_workers(link: Any, shards: Iterable[int], failure: str) -> None:
    """Tell ``shards`` the run is over — the one guarded abort path."""
    for shard_id in shards:
        try:
            link.abort(shard_id, failure)
        except OSError:
            # That worker is already gone; the rest still need telling,
            # and the failure being reported must not be masked.
            pass


class WorkerEndpoint:
    """The worker half of the barrier protocol; an executor subclasses it
    with its wire.  It owns the window-local exchange accounting
    (:attr:`exchange` — the ``StatsCollector.exchange`` families) because
    encoding and shipping happen here; the worker bootstrap folds the
    counters into the worker's stats once the workload finishes.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.exchange: Counter = Counter()
        #: worker-side fault-plane accounting (stalls survived etc.),
        #: folded into ``StatsCollector.faults`` like :attr:`exchange`
        self.faults: Counter = Counter()
        self._barrier = 0

    def sync(
        self,
        outbound: List[List[tuple]],
        next_time: float,
        last_time: float,
        executed: int,
        requests: List[Tuple[str, float]],
        extras: Optional[bytes] = None,
    ) -> Tuple[Verdict, List[ExchangeFrame]]:
        """One window barrier: ship this window's outboxes and status,
        wait, and return the verdict with its inbound blobs decoded into
        frames (src-shard order), each checked against the barrier it must
        belong to.  An abort raises."""
        barrier = self._barrier
        self._barrier += 1
        blobs, min_outbound = encode_outbound_blobs(
            outbound, barrier, self.exchange
        )
        self._send("sync", SyncStatus(
            next_time, last_time, executed, min_outbound, requests, extras,
            blobs,
        ))
        kind, payload = self._recv(barrier)
        if kind == "abort":
            raise SimulationError(
                f"shard {self.shard_id}: aborted at window barrier: {payload}"
            )
        frames = []
        for src_shard, blob in payload.inbound:
            frame, frame_barrier = ExchangeFrame.decode(blob)
            if frame_barrier != barrier:
                raise SimulationError(
                    f"shard {self.shard_id}: exchange frame from shard "
                    f"{src_shard} tagged barrier {frame_barrier}, expected "
                    f"{barrier}"
                )
            frames.append(frame)
        return payload, frames

    def finish(self, payload: Any) -> None:
        self._send("done", payload)

    def fail(self, message: str) -> None:
        self._send("error", message)

    def _send(self, kind: str, payload: Any) -> None:
        raise NotImplementedError

    def _recv(self, barrier: int) -> Tuple[str, Any]:
        raise NotImplementedError


def coordinate(
    link: Any,
    num_shards: int,
    lookahead: float,
    plane: Any,
    wal: Any = None,
) -> Tuple[List[Any], int]:
    """Drive a run's window barriers until every worker is done.

    Returns the workers' ``done`` payloads in shard order and the number of
    windows synchronized.  ``plane`` is the run's
    :class:`~repro.sim.shard.DirectoryControlPlane` (the coordinator *is*
    the directory), ``wal`` its :class:`~repro.sim.wal.WalSession`.
    """
    windows = 0
    while True:
        round_messages: Dict[int, Tuple[str, Any]] = {}
        raced = None
        for shard_id, kind, payload in link.collect(windows):
            if shard_id in round_messages:
                raced = shard_id
            round_messages[shard_id] = (kind, payload)
        synced = [
            shard_id
            for shard_id in sorted(round_messages)
            if round_messages[shard_id][0] == "sync"
        ]
        kinds = {kind for kind, _ in round_messages.values()}
        failure = report = None
        if raced is not None:
            failure = f"shard {raced} raced the window barrier"
        elif "error" in kinds:
            failure = next(
                round_messages[shard_id][1]
                for shard_id in sorted(round_messages)
                if round_messages[shard_id][0] == "error"
            )
            report = f"shard worker failed:\n{failure}"
        elif kinds == {"done"}:
            return [round_messages[i][1] for i in range(num_shards)], windows
        elif kinds != {"sync"}:
            failure = "shard workers diverged (mixed done/sync at one barrier)"
        if failure is not None:
            abort_workers(link, synced, failure)
            raise SimulationError(report or failure)
        statuses: List[SyncStatus] = [
            round_messages[i][1] for i in range(num_shards)
        ]
        window_start, global_last, total_executed, routed = reduce_window(
            statuses
        )
        control: List[tuple] = []
        try:
            # Fold in the shards' control requests, let the timeline's next
            # event open a window even when every worker heap is idle, and
            # publish the window's deltas with the decision (one window
            # ahead of execution).
            plane.handle_requests(
                agreed_requests([status.requests for status in statuses])
            )
            window_start = min(window_start, plane.next_time())
            if window_start != _INF:
                control = plane.advance(window_start + lookahead)
            if wal is not None:
                wal.on_window(
                    barrier=windows,
                    window_start=window_start,
                    global_last=global_last,
                    total_executed=total_executed,
                    statuses=[status.logged for status in statuses],
                    frames=routed,
                    control=control,
                )
        except SimulationError as exc:
            abort_workers(link, synced, str(exc))
            raise
        windows += 1
        for shard_id in range(num_shards):
            link.send_decision(
                shard_id,
                verdict_for(
                    shard_id, num_shards, window_start, global_last,
                    total_executed, routed, control,
                ),
            )
