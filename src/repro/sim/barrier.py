"""The window barrier's coordinator half — written once, for every executor.

A sharded run advances in conservative virtual-time windows
(:mod:`repro.sim.shard`).  At each barrier every shard worker reports one
message — ``sync`` (a :class:`SyncStatus`), ``done`` (its result payload)
or ``error`` (a traceback) — and the coordinator answers each synced
worker with a :data:`Verdict`: the next window start (the global minimum
next-event time, so empty stretches are skipped in one hop), the agreed
last-event clock and executed total, the worker's inbound exchange frames
in src-shard order, and the directory plane's control records for the
window.  :func:`coordinate` is that loop.  It is where the directory
control plane advances, where the WAL appends (or verifies) its window
record, and where divergence between workers is detected and the synced
workers are told to abort.

The loop talks to its workers through a *link* — three methods, one
implementation per executor (serial threads, forked processes, tcp
sockets):

- ``collect(barrier)`` — one round: an iterable of ``(shard_id, kind,
  payload)``, one entry per shard, ``sync`` payloads already normalized to
  :class:`SyncStatus`.  Supervision belongs here: the tcp link heals a
  dead worker from the WAL inside this call and the loop never knows.
- ``send_decision(shard_id, verdict)`` — deliver one worker's verdict.
- ``abort(shard_id, failure)`` — tell a synced worker the run is over.
  Every call goes through :func:`abort_workers`' guard, so one dead worker
  can never mask the failure being reported.

Spawning workers and tearing them down stay with the executor that owns
them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError

_INF = float("inf")

#: one worker's window verdict as it crosses every link:
#: ``(window_start, global_last, total_executed, inbound, control)`` with
#: ``inbound`` the ``(src_shard, item)`` pairs routed to this worker
Verdict = Tuple[float, float, int, List[Tuple[int, Any]], List[tuple]]


class SyncStatus(NamedTuple):
    """One worker's report at a window barrier."""

    next_time: float
    last_time: float
    executed: int
    #: earliest delivery among the frames this worker just sent
    min_outbound: float
    #: directory-mode control requests (SPMD-identical across shards)
    requests: list
    #: the worker's pre-pickled WAL probe output (None without a WAL)
    extras: Optional[bytes]
    #: ``(dst_shard, item)`` per outbound frame; ``item`` rides the
    #: receiver's verdict untouched — a frame object (serial), an encoded
    #: blob (tcp, and an mp frame too large for its ring), or None (mp:
    #: the frame is already in the receiver's ring)
    routed: List[Tuple[int, Any]]
    #: ``(dst_shard, encoded frame)`` per outbound frame for the WAL;
    #: None when the run has none
    blobs: Optional[List[Tuple[int, bytes]]]


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
) -> Tuple[float, float, int, Dict[Tuple[int, int], Any]]:
    """Reduce one barrier round: the next window start (global minimum
    next-event time, counting the frames just sent), the agreed last-event
    clock, the global executed-event total, and the routing grid
    ``(src_shard, dst_shard) -> item``.  Routing is pure pointer moves; the
    cross-frame sort happens once, receiver-side, in
    :func:`~repro.sim.exchange.merge_frames`."""
    window_start = _INF
    global_last = -_INF
    total_executed = 0
    routed: Dict[Tuple[int, int], Any] = {}
    for src_shard, status in enumerate(statuses):
        window_start = min(window_start, status.next_time, status.min_outbound)
        global_last = max(global_last, status.last_time)
        total_executed += status.executed
        for dst_shard, item in status.routed:
            routed[(src_shard, dst_shard)] = item
    return window_start, global_last, total_executed, routed


def verdict_for(
    shard_id: int,
    num_shards: int,
    window_start: float,
    global_last: float,
    total_executed: int,
    routed: Dict[Tuple[int, int], Any],
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
    return (window_start, global_last, total_executed, inbound, control)


def abort_workers(link: Any, shards: Iterable[int], failure: str) -> None:
    """Tell ``shards`` the run is over — the one guarded abort path."""
    for shard_id in shards:
        try:
            link.abort(shard_id, failure)
        except OSError:
            # That worker is already gone; the rest still need telling,
            # and the failure being reported must not be masked.
            pass


def coordinate(
    link: Any,
    num_shards: int,
    lookahead: float,
    plane: Any = None,
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
            if plane is not None:
                # Fold in the shards' control requests, let the timeline's
                # next event open a window even when every worker heap is
                # idle, and publish the window's deltas with the decision
                # (one window ahead of execution).
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
                    statuses=[
                        (status.next_time, status.last_time, status.executed,
                         status.requests, status.extras)
                        for status in statuses
                    ],
                    frames={
                        (src_shard, dst_shard): blob
                        for src_shard, status in enumerate(statuses)
                        for dst_shard, blob in status.blobs
                    },
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
