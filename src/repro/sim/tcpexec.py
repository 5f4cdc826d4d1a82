"""The shard fleet: the window protocol over socket frames between a
coordinator and K forked workers — the one multi-process fleet, behind
both the ``mp`` and the ``tcp`` executor (two names for the same fleet).

This module runs the window protocol (:mod:`repro.sim.barrier`: the loop
:func:`~repro.sim.barrier.coordinate` and the worker endpoint's one
``sync``) between a **coordinator** (the process that owns the
:class:`~repro.sim.shard.ShardedScenario`) and K **workers**.  Every
worker is a child forked through the one fork
(:func:`repro.sim.shard._mp_context`) and bound from birth to one end of
a ``socket.socketpair()`` — :class:`_TcpChannel` is the endpoint's
*wire*.  A worker takes its job (config, workload, lookahead, overlay
snapshot, WAL cadence) from fork memory, so it pays no interpreter
start-up and no imports, and a workload that cannot be pickled still
runs.  Every observable stays byte-identical to the serial reference
(the equivalence fuzz in ``tests/test_shard_equivalence.py`` proves it).
:class:`TcpCoordinator` is the loop's *link* and the thin shell around
:class:`Supervisor`, the sans-IO machine that takes every supervision
decision — heartbeats, death detection and in-run recovery all happen
while one barrier round is being gathered, invisible to the loop.

Wire model
----------

Everything rides length-prefixed frames — ``(magic, kind, length)``
header (:data:`_WIRE_HEADER`) + payload — over one socketpair per
worker.  There is no handshake: a slot is bound when its worker is
forked.

- **barriers**: each worker ``SYNC`` carries one pickled
  :class:`~repro.sim.barrier.SyncStatus`: its window status plus the
  window's outboxes already encoded as :class:`ExchangeFrame` blobs (the
  ``SoA1`` wire format, byte-for-byte — the same blobs every executor
  relays and the WAL logs).  The coordinator routes blobs between workers
  and answers per-shard ``DECISION`` frames (window start, inbound blobs
  in src-shard order, directory control records).  There is no
  worker-to-worker connection: the coordinator is the exchange fabric.
- **liveness**: each worker runs a ``PING`` heartbeat (every quarter of
  the read deadline) answered with ``PONG``; both sides treat heartbeat
  frames as pure liveness traffic and skip them when waiting for a
  protocol frame.  A long compute window (or a stalled worker) keeps
  pinging and is *not* dead; a half-open worker stops pinging and is.
- **completion**: ``DONE`` returns the worker's payload (stats, clock,
  result, WAL tail); ``BYE`` releases the worker once results landed.

Every read carries the ``REPRO_TCP_TIMEOUT_S`` deadline, and a worker that
dies at any point — before its first frame included — is EOF on its
connection: a loud ``worker N died mid-window`` :class:`SimulationError`,
never a hang.

Self-healing
------------

When a run carries a WAL (``ScenarioConfig.wal``), a worker death
mid-window (a crash, wire garbage, silence past the deadline, or a SYNC
or DONE whose payload does not unpickle) is not fleet-fatal: the
:class:`Supervisor` quarantines the dead connection, forks a replacement
into the slot (bounded by ``REPRO_TCP_MAX_RESPAWNS``) and replays it to
the current barrier from the WAL's window records (the resume log's
verified prefix, then the log being appended, read back from disk): the
newcomer re-executes the workload from scratch, every replayed sync is
verified field-by-field (frame blobs byte-for-byte) against the log and
the logged decisions are served back, so it reaches the live barrier
bit-identical to the worker it replaced and the digest cannot move.  The
shell's one ``select`` covers every connection, so parked workers get
PONGs while a slot refills.  Without a WAL the death is a loud abort
naming the missing checkpoint.  Recovery counts land in
``StatsCollector.faults`` (never fingerprinted).

The WAL integrates unchanged: the coordinator owns the log
(:class:`~repro.sim.wal.WalSession` never leaves its process), workers
ship their probe blobs inside syncs, and the frame blobs the coordinator
routes are exactly the bytes the log records — so an mp or tcp log
resumes under serial and vice versa (the executor is no field of the
config fingerprint).

Trace stores ride along for free: workers execute through
:class:`~repro.sim.shard.ShardSimulator`, so a workload that attaches a
:class:`~repro.sim.tracestore.TraceStore` via ``attach_scenario`` gets
its per-window flush from the runtime's barrier hooks on the fleet
exactly as on serial — each worker writes its own shard's store file
locally, merged afterwards with :func:`~repro.sim.tracestore.merge_stores`.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import struct
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.envutil import env_float, env_int
from repro.errors import SimulationError
from repro.sim.barrier import (
    Verdict,
    WorkerEndpoint,
    abort_workers,
    coordinate,
    verdict_for,
)
from repro.sim.shard import _mp_context, _run_worker
from repro.sim.wal import verify_shard_window

_WIRE_MAGIC = 0x52545031  # "RTP1"
#: magic, kind, payload length
_WIRE_HEADER = struct.Struct("<IBI")
#: refuse to allocate for absurd lengths — a garbage header must be
#: rejected loudly, not honoured with a gigabyte read
_MAX_FRAME = 1 << 30

_K_SYNC = 5
_K_DECISION = 6
_K_DONE = 7
_K_ERROR = 8
_K_ABORT = 9
_K_BYE = 10
#: worker-initiated liveness heartbeat and the coordinator's echo
_K_PING = 12
_K_PONG = 13

TCP_TIMEOUT_ENV = "REPRO_TCP_TIMEOUT_S"
TCP_MAX_RESPAWNS_ENV = "REPRO_TCP_MAX_RESPAWNS"


def tcp_timeout_seconds() -> float:
    """Per-read socket deadline: how long any endpoint waits on a peer
    before declaring it dead."""
    return env_float(
        TCP_TIMEOUT_ENV, 60.0, exclusive_minimum=0.0, error=SimulationError
    )


def heartbeat_interval(timeout: float) -> float:
    """How often a worker PINGs — a quarter of the read deadline."""
    return max(0.05, timeout / 4.0)


def tcp_max_respawns() -> int:
    """Worker respawns the supervision loop may perform per run before a
    death becomes fleet-fatal (>= 0; 0 disables in-run recovery)."""
    return env_int(TCP_MAX_RESPAWNS_ENV, 3, minimum=0, error=SimulationError)


# ---------------------------------------------------------------------------
# Frame I/O.
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, kind: int, payload: bytes = b"") -> None:
    """One length-prefixed frame, written whole."""
    sock.sendall(
        _WIRE_HEADER.pack(_WIRE_MAGIC, kind, len(payload)) + payload
    )


def _read_exactly(sock: socket.socket, count: int, context: str) -> bytes:
    """Read ``count`` bytes or die loudly: EOF and the socket deadline
    both mean the peer is gone (dead process or half-open connection)."""
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            raise SimulationError(
                f"{context}: no data within the {sock.gettimeout():.0f}s "
                f"deadline ({TCP_TIMEOUT_ENV})"
            ) from None
        except OSError as exc:
            raise SimulationError(f"{context}: connection lost ({exc})") from None
        if not chunk:
            raise SimulationError(
                f"{context}: connection closed "
                f"({count - remaining} of {count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, context: str) -> Tuple[int, bytes]:
    """Read one frame; a bad magic or absurd length is a protocol error
    (garbage on the wire), truncation/timeout a dead peer."""
    header = _read_exactly(sock, _WIRE_HEADER.size, context)
    magic, kind, length = _WIRE_HEADER.unpack(header)
    if magic != _WIRE_MAGIC:
        raise SimulationError(
            f"{context}: bad frame magic 0x{magic:08x} "
            "(not a repro tcp peer)"
        )
    if length > _MAX_FRAME:
        raise SimulationError(
            f"{context}: frame length {length} exceeds the "
            f"{_MAX_FRAME}-byte cap (corrupt header)"
        )
    return kind, _read_exactly(sock, length, context)


# ---------------------------------------------------------------------------
# Worker endpoint.
# ---------------------------------------------------------------------------


class _Heartbeat(threading.Thread):
    """The worker's PING pump: one liveness frame every quarter of the
    read deadline, sharing the send lock with the protocol frames so a
    heartbeat can never interleave into a sync's bytes."""

    def __init__(
        self, sock: socket.socket, lock: threading.Lock, interval: float
    ) -> None:
        super().__init__(daemon=True, name="repro-tcp-heartbeat")
        self._sock = sock
        self._lock = lock
        self._interval = interval
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self._interval):
            try:
                with self._lock:
                    send_frame(self._sock, _K_PING)
            except Exception:
                # Socket gone (run over, or the coordinator died): the
                # main thread surfaces that loudly; the heartbeat just
                # stops beating.
                return

    def stop(self) -> None:
        self._stopped.set()


#: the wire kind of each message a worker endpoint sends
_SEND_KINDS = {"sync": _K_SYNC, "done": _K_DONE, "error": _K_ERROR}


class _TcpChannel(WorkerEndpoint):
    """The fleet's wire: syncs up, decisions down, exchange frames
    riding both as encoded blobs (the coordinator routes them)."""

    def __init__(
        self, sock: socket.socket, shard_id: int, lock: threading.Lock
    ) -> None:
        super().__init__(shard_id)
        self.sock = sock
        #: shared with the heartbeat thread: all sends are serialized
        self.lock = lock

    def _recv_protocol(self, context: str) -> Tuple[int, bytes]:
        """Next non-heartbeat frame; every PONG skipped refreshes the
        read deadline, so a worker parked behind a slow (or respawned)
        sibling shard never starves while its heartbeat is answered."""
        while True:
            kind, payload = recv_frame(self.sock, context)
            if kind != _K_PONG:
                return kind, payload

    def _send(self, kind: str, payload: Any) -> None:
        if kind == "error":
            data = payload.encode("utf-8")
        else:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with self.lock:
            send_frame(self.sock, _SEND_KINDS[kind], data)

    def _recv(self, barrier: int) -> Tuple[str, Any]:
        kind, payload = self._recv_protocol(
            f"shard {self.shard_id} waiting for the window decision at "
            f"barrier {barrier}",
        )
        if kind == _K_ABORT:
            return "abort", payload.decode("utf-8", "replace")
        if kind != _K_DECISION:
            raise SimulationError(
                f"shard {self.shard_id}: expected a decision frame at "
                f"barrier {barrier}, got kind {kind}"
            )
        return "decision", pickle.loads(payload)


def worker_main(
    sock: socket.socket,
    shard_id: int,
    job: Dict[str, Any],
) -> int:
    """One shard worker over its end of the socketpair: run the window
    protocol, then wait for the coordinator's BYE.

    Exit code 0 on a clean run (the BYE, or the coordinator's
    disappearance after our DONE landed), 1 on any failure — which is also
    reported to the coordinator as an ERROR frame when the socket still
    stands.  A replacement the coordinator replays from the WAL runs
    exactly as a fresh worker: replay is transparent, the coordinator
    serves the logged decisions.
    """
    timeout = tcp_timeout_seconds()
    sock.settimeout(timeout)
    lock = threading.Lock()
    channel = _TcpChannel(sock, shard_id, lock)
    heartbeat = _Heartbeat(sock, lock, heartbeat_interval(timeout))
    try:
        heartbeat.start()
        if not _run_worker(
            channel, job["config"], job["workload"], job["num_shards"],
            job["lookahead"], job["snapshot"], job["wal_cadence"],
        ):
            return 1
        try:
            # The coordinator's BYE confirms the results landed; its
            # disappearance after our DONE is equally fine.  PONGs for
            # in-flight heartbeats may arrive first — pure liveness, skip.
            channel._recv_protocol(
                f"worker (shard {shard_id}) awaiting bye"
            )
        except SimulationError:
            pass
        return 0
    finally:
        heartbeat.stop()
        try:
            sock.close()
        except OSError:  # pragma: no cover - close races
            pass


# ---------------------------------------------------------------------------
# Coordinator: the supervision machine and its socket shell.
# ---------------------------------------------------------------------------


class Supervisor:
    """Every supervision decision of the fleet, as a sans-IO machine.

    Its shell (:class:`TcpCoordinator`) feeds it events — :meth:`frame`,
    :meth:`closed` (EOF or garbage) and :meth:`expire` at
    :meth:`deadline` — and carries out the actions each returns, in
    order: ``("send", shard, kind, payload)``, ``("close", shard)``,
    ``("spawn", shard)`` (fork a replacement into the slot), ``("decide",
    shard, verdict)`` (a replayed window's logged decision), ``("abort",
    failure, report)`` (abort the fleet with ``failure``, raise
    ``report``) and, last, ``("done", messages)``: one barrier round of
    :meth:`collect` is complete.  A slot is bound to its worker from the
    fork, so a connection is its shard id.  The clock is injected and
    nothing here blocks, so no worker can hold the fleet.
    """

    def __init__(
        self, num_shards: int, timeout: float, max_respawns: int,
        window_records: Optional[Callable[[int], list]],
        clock: Callable[[], float],
    ) -> None:
        self.num_shards = num_shards
        self.timeout = timeout
        self.max_respawns = self.budget = max_respawns
        #: ``wal.window_records``, the replay source; None without a WAL
        self.window_records = window_records
        self.clock = clock
        #: recovery accounting, merged into the run's
        #: ``StatsCollector.faults`` family (never fingerprinted)
        self.faults: Counter = Counter()
        #: the round: shards whose frame is still awaited, frames already in
        self.barrier = 0
        self.pending = set(range(num_shards))
        self.results: Dict[int, Tuple[str, Any]] = {}
        self.last_seen: Dict[int, float] = {}
        #: respawned slots and the logged windows left to replay to them
        self.replaying: Dict[int, list] = {}
        #: quarantined shards nobody awaited yet, and why — surfaced once,
        #: when the next round awaits them
        self.dead: Dict[int, str] = {}

    def collect(self, barrier: int) -> List[tuple]:
        """Await one frame per shard at ``barrier`` (a frame already
        buffered on a connection counts)."""
        if barrier != self.barrier:
            self.barrier, self.results = barrier, {}
            self.pending = set(range(self.num_shards))
        self.last_seen.update(dict.fromkeys(self.pending, self.clock()))
        actions: List[tuple] = []
        for shard in sorted(self.pending & self.dead.keys()):
            actions += self._death(shard, self.dead.pop(shard))
        return actions + self._progress()

    def deadline(self) -> float:
        """The next instant :meth:`expire` has something to decide: the
        earliest read deadline of an awaited shard."""
        return min(
            self.last_seen[shard] + self.timeout for shard in self.pending
        )

    def frame(self, shard: int, kind: int, payload: bytes) -> List[tuple]:
        """One whole frame came in on ``shard``'s connection."""
        self.last_seen[shard] = self.clock()
        if self.replaying.get(shard) == []:  # replayed to here: it is live
            del self.replaying[shard]
            self.faults["respawns"] += 1
        if kind == _K_PING:
            self.faults["heartbeats"] += 1
            return [("send", shard, _K_PONG, b"")]
        if shard in self.replaying:
            return self._replayed(shard, kind, payload)
        if shard not in self.pending:
            return self._quarantine(shard, (
                f"worker {shard} sent unexpected frame kind {kind} out of turn"
            ))
        if kind in (_K_SYNC, _K_DONE):
            name = "sync" if kind == _K_SYNC else "done"
            message, failure = _unpickled(payload)
            if failure is not None:  # still awaited: its death is handled now
                return self._quarantine(shard, (
                    f"worker {shard} sent an undecodable {name} frame at "
                    f"barrier {self.barrier}: {failure}"
                ))
            result = (name, message)
        elif kind == _K_ERROR:
            result = ("error", payload.decode("utf-8", "replace"))
        else:
            result = ("error", (
                f"worker {shard} sent unexpected frame kind {kind} at barrier "
                f"{self.barrier}"
            ))
        self.pending.discard(shard)
        self.results[shard] = result
        return self._progress()

    def closed(self, shard: int, reason: str) -> List[tuple]:
        """``shard``'s connection hit EOF, or sent garbage no frame can be
        read from."""
        return self._quarantine(shard, (
            f"worker {shard} died mid-window (no sync/done/error message: "
            f"{reason})"
        ))

    def expire(self) -> List[tuple]:
        """Act on every deadline the clock has reached."""
        now = self.clock()
        actions: List[tuple] = []
        for shard in sorted(self.pending):
            # A half-open worker: a live shard in a long compute window
            # keeps pinging and never lands here.
            if self.last_seen[shard] + self.timeout <= now:
                actions += self._quarantine(shard, (
                    f"worker {shard} died mid-window (no sync/done/error "
                    f"message: tcp coordinator waiting on shard {shard} at "
                    f"barrier {self.barrier}: no data within the "
                    f"{self.timeout:.0f}s deadline ({TCP_TIMEOUT_ENV}))"
                ))
                if actions[-1][0] == "abort":  # the fleet is going down
                    break
        return actions

    def _quarantine(self, shard: int, reason: str) -> List[tuple]:
        """Close a dead or misbehaving shard's link.  An awaited shard's
        death is handled now; any other's when the next round awaits it."""
        if shard not in self.pending:
            self.dead[shard] = reason
            return [("close", shard)]
        return [("close", shard)] + self._death(shard, reason)

    def _death(self, shard: int, reason: str) -> List[tuple]:
        """Fork a replacement into an awaited shard's slot, to be replayed
        to this barrier from the WAL — or abort the fleet: no WAL to replay
        from (naming the missing checkpoint), the respawn budget spent, or
        the replacement itself dying before it is live again."""
        if shard in self.replaying:
            window = self.barrier - len(self.replaying[shard])
            return _abort(
                f"replacement worker for shard {shard} failed during WAL "
                f"replay at window {window}:\n{reason}"
            )
        self.faults["worker_deaths"] += 1
        failure = None
        if self.window_records is None:
            failure = (
                f"{reason}; no WAL checkpoint to replay a replacement worker "
                "from — set ScenarioConfig.wal to enable in-run recovery"
            )
        elif self.budget <= 0:
            failure = (
                f"{reason}; worker respawn budget exhausted "
                f"({TCP_MAX_RESPAWNS_ENV}={self.max_respawns})"
            )
        if failure is not None:
            return _abort(failure, f"tcp shard worker failed:\n{failure}")
        try:
            self.replaying[shard] = list(self.window_records(self.barrier))
        except SimulationError as exc:
            return _abort(str(exc))
        self.budget -= 1
        self.last_seen[shard] = self.clock()
        return [("spawn", shard)]


    def _replayed(self, shard: int, kind: int, payload: bytes) -> List[tuple]:
        """One logged window for a replacement: its sync is verified against
        the WAL's record (scalars field by field, frame blobs byte for byte
        — resume's discipline) and the logged decision is served back
        through :func:`~repro.sim.barrier.verdict_for`.  Its outbound
        frames are dropped: the first incarnation delivered them."""
        if kind == _K_ERROR:
            return self._death(shard, payload.decode("utf-8", "replace"))
        if kind != _K_SYNC:
            return self._death(shard, f"sent frame kind {kind}, not a sync")
        status, failure = _unpickled(payload)
        if failure is not None:
            return self._death(shard, f"sent an undecodable sync: {failure}")
        record = self.replaying[shard].pop(0)
        try:
            verify_shard_window(
                record, shard, status.logged, status.routed, prefix="RECOVER"
            )
        except SimulationError as exc:
            return _abort(str(exc))
        self.faults["replayed_windows"] += 1
        return [("decide", shard, verdict_for(
            shard, self.num_shards, record.window_start, record.global_last,
            record.total_executed, record.frames, record.control,
        ))]

    def _progress(self) -> List[tuple]:
        """``done`` once every awaited frame is in."""
        if self.pending:
            return []
        return [("done", [
            (shard, *self.results[shard]) for shard in sorted(self.results)
        ])]


def _unpickled(payload: bytes) -> Tuple[Any, Optional[str]]:
    """``(message, None)``, or ``(None, why)`` for a payload that does not
    unpickle — garbage, a torn write or nothing at all, which can raise
    almost any exception."""
    try:
        return pickle.loads(payload), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _abort(failure: str, report: Optional[str] = None) -> List[tuple]:
    """The supervisor's one fatal action."""
    return [("abort", failure, report or failure)]


class TcpCoordinator:
    """The coordinator side of the fleet and the shell around its
    :class:`Supervisor`: forks one worker per slot, bound from birth to
    one end of a socketpair, and is the
    :func:`~repro.sim.barrier.coordinate` loop's link to them — one
    connection per worker, every exchange blob relayed through the
    decision frames.  It decides nothing: one ``select`` over every
    connection turns readability into the supervisor's events, and its
    actions into socket and process calls."""

    def __init__(
        self,
        config: Any,
        num_shards: int,
        lookahead: float,
        plane: Any,
        wal: Any = None,
    ) -> None:
        self.config = config
        self.num_shards = num_shards
        self.lookahead = lookahead
        self.plane = plane
        self.wal = wal
        self.timeout = tcp_timeout_seconds()
        #: the coordinator's end of each slot's socketpair
        self.connections: List[Optional[socket.socket]] = [None] * num_shards
        #: every worker forked, replaced ones included — :meth:`close`
        #: reaps them all
        self.processes: List[Any] = []
        #: what every worker runs, read from fork memory
        self.job: Dict[str, Any] = {}
        self.supervisor = Supervisor(
            num_shards, self.timeout, tcp_max_respawns(),
            wal.window_records if wal is not None else None, time.monotonic,
        )
        self.faults = self.supervisor.faults

    def _spawn(self, shard_id: int) -> None:
        """Fork ``shard_id``'s worker onto one end of a new socketpair and
        keep the other as the slot's connection.  The child's end is
        closed here at once, so it lives in that worker alone and the
        worker's death, whenever it comes, is EOF on the connection."""
        ours, theirs = socket.socketpair()
        ours.settimeout(self.timeout)
        self.connections[shard_id] = ours
        process = _mp_context().Process(
            target=self._forked_worker, args=(shard_id, theirs), daemon=True
        )
        try:
            process.start()
        finally:
            theirs.close()
        self.processes.append(process)

    def _forked_worker(self, shard_id: int, sock: socket.socket) -> None:
        """A slot's whole life, in the forked child.

        The child first closes its copies of every coordinator end, its
        own slot's included: a replacement forked mid-run that kept a
        sibling's connection open would stop that sibling from ever seeing
        the coordinator hang up.  It leaves by ``os._exit`` (no atexit, no
        inherited teardown); an exception instead propagates to the
        fork's bootstrap, which prints it and exits 1 — and the
        coordinator reads EOF.
        """
        for conn in self.connections:
            if conn is not None:
                conn.close()
        os._exit(worker_main(sock, shard_id, self.job))

    def _serve(self, actions: List[tuple]) -> Any:
        """Carry out the supervisor's actions, feeding it one event at a
        time, until it reports the round done; returns its messages."""
        events = self._events()
        while True:
            for verb, *args in actions:
                if verb == "done":
                    return args[0]
                if verb == "abort":
                    abort_workers(self, range(self.num_shards), args[0])
                    raise SimulationError(args[1])
                if verb == "spawn":
                    self._spawn(args[0])
                elif verb == "decide":
                    self.send_decision(*args)
                elif verb == "send":
                    try:
                        send_frame(self.connections[args[0]], *args[1:])
                    except OSError:  # its read side finds the corpse
                        pass
                else:  # "close"
                    self.connections[args[0]].close()
                    self.connections[args[0]] = None
            actions = next(events)

    def _events(self) -> Iterator[List[tuple]]:
        """The supervisor's events, one per ``next``.  One ``select`` over
        every connection wakes on readability or at the supervisor's next
        deadline; then each readable connection is an event, and the
        deadline check one."""
        supervisor = self.supervisor
        while True:
            names = {
                sock: shard_id for shard_id, sock
                in enumerate(self.connections) if sock is not None
            }
            wait = max(0.0, supervisor.deadline() - time.monotonic())
            for sock in select.select(list(names), [], [], wait)[0]:
                if sock.fileno() == -1:  # closed by an earlier action
                    continue
                try:
                    kind, payload = recv_frame(
                        sock, f"tcp coordinator waiting on shard "
                        f"{names[sock]} at barrier {supervisor.barrier}",
                    )
                except SimulationError as exc:
                    yield supervisor.closed(names[sock], str(exc))
                else:
                    yield supervisor.frame(names[sock], kind, payload)
            yield supervisor.expire()

    # -- the barrier loop's link --------------------------------------------

    def collect(self, barrier: int) -> List[Tuple[int, str, Any]]:
        """One barrier's worth of protocol frames from every shard,
        healing dead workers in place when the WAL allows it."""
        return self._serve(self.supervisor.collect(barrier))

    def send_decision(self, shard_id: int, verdict: Verdict) -> None:
        conn = self.connections[shard_id]
        if conn is None:
            return
        try:
            send_frame(conn, _K_DECISION, pickle.dumps(
                verdict, protocol=pickle.HIGHEST_PROTOCOL
            ))
        except OSError:
            # The worker died after syncing; its next read slot surfaces
            # the loud died-mid-window error (or the supervisor recovers
            # it).
            pass

    def abort(self, shard_id: int, failure: str) -> None:
        conn = self.connections[shard_id]
        if conn is not None:
            send_frame(conn, _K_ABORT, failure.encode("utf-8"))

    def run(self, workload: Any) -> Tuple[List[tuple], int, Counter]:
        """Fork the fleet and drive the run through the shared barrier
        loop, with the supervisor wrapped around every read."""
        wal, plane = self.wal, self.plane
        self.job = {
            "config": self.config,
            "workload": workload,
            "num_shards": self.num_shards,
            "lookahead": self.lookahead,
            "snapshot": plane.snapshot,
            "wal_cadence": wal.cursor_every if wal is not None else 0,
        }
        try:
            for shard_id in range(self.num_shards):
                self._spawn(shard_id)
            payloads, windows = coordinate(
                self, self.num_shards, self.lookahead, plane, wal
            )
        finally:
            self.close()
        return payloads, windows, self.faults

    def close(self) -> None:
        """Full teardown: release every worker, close every connection,
        reap every forked process — no orphan sockets, no zombie workers.
        Every step is individually guarded: a broken pipe mid-teardown
        must never mask the error that triggered it."""
        for conn in self.connections:
            try:
                if conn is not None:
                    send_frame(conn, _K_BYE)
            except Exception:
                pass
        for conn in self.connections:
            try:
                if conn is not None:
                    conn.close()
            except Exception:  # pragma: no cover - close races
                pass
        for process in self.processes:
            process.join(10.0)
            if process.exitcode is None:  # pragma: no cover - hung worker
                process.terminate()
                process.join(5.0)
                if process.exitcode is None:
                    process.kill()
                    process.join()


def run_tcp(
    config: Any,
    workload: Any,
    num_shards: int,
    lookahead: float,
    plane: Any,
    wal: Any = None,
) -> Tuple[List[tuple], int, Counter]:
    """The runner of the ``mp`` and ``tcp`` executors (the
    :func:`~repro.sim.shard._run_serial` signature)."""
    return TcpCoordinator(
        config, num_shards, lookahead, plane=plane, wal=wal
    ).run(workload)
