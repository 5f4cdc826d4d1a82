"""The tcp shard executor: the window protocol over socket frames — the
one multi-process fleet, behind both the ``tcp`` and the ``mp`` executor.

This module runs the window protocol (:mod:`repro.sim.barrier`: the loop
:func:`~repro.sim.barrier.coordinate` and the worker endpoint's one
``sync``) between a **coordinator** (the process that owns the
:class:`~repro.sim.shard.ShardedScenario`) and K **workers** connected
over TCP — :class:`_TcpChannel` is the endpoint's *wire* — so shards can
live on other machines while every observable stays byte-identical to
the serial reference (the equivalence fuzz in
``tests/test_shard_equivalence.py`` proves it over localhost).
:class:`TcpCoordinator` is the loop's *link* and the thin shell around
:class:`Supervisor`, the sans-IO machine that takes every supervision
decision — handshakes, heartbeats, death detection and in-run recovery
all happen while one barrier round is being gathered, invisible to the
loop.

Workers start per the ``tcp_hosts`` placement (:func:`parse_hosts`).  A
``local`` worker is forked from the coordinator — the one fork,
:func:`repro.sim.shard._mp_context` — and runs :func:`worker_main` over a
socket exactly like a remote one, so it pays no interpreter start-up and
no imports, and takes the job from fork memory instead of a pickled JOB
frame; ``wait`` and ``ssh:HOST`` workers are ``repro worker`` processes
in a fresh interpreter, which are sent the pickled job and resolve its
classes through the coordinator's ``sys.path`` carried by WELCOME.  The
``mp`` executor is this fleet with every slot ``local`` on an ephemeral
loopback port, so it shares the supervision and the WAL recovery below,
and still runs workloads that cannot be pickled.

Wire model
----------

Everything rides length-prefixed frames — ``(magic, kind, length)``
header (:data:`_WIRE_HEADER`) + payload — over one connection per
worker:

- **handshake**: the worker sends ``HELLO`` (protocol version + shard-id
  claim, and whether it was forked from the coordinator, JSON); the
  coordinator answers ``WELCOME`` (assigned shard, the scenario's config
  fingerprint, the coordinator's ``sys.path`` so workload classes pickled
  into the job resolve worker-side) and — to a worker that was not forked
  and so holds no job — the pickled ``JOB`` (config, workload, lookahead,
  overlay snapshot, WAL cadence); the worker confirms with ``READY``
  carrying the fingerprint it computed from the job it actually holds.  A
  version or fingerprint mismatch is a loud :class:`SimulationError` — a
  skewed fleet must never reach the first window.  A duplicate, out-of-
  range or non-integer shard claim gets an ``ERROR`` frame and its
  connection closed; the slot stays open for the real worker.
- **barriers**: each worker ``SYNC`` carries one pickled
  :class:`~repro.sim.barrier.SyncStatus` (protocol v3): its window status
  plus the window's outboxes already encoded as :class:`ExchangeFrame`
  blobs (the ``SoA1`` wire format, byte-for-byte — the same blobs every
  executor relays and the WAL logs).  The coordinator routes blobs between workers
  and answers per-shard ``DECISION`` frames (window start, inbound blobs
  in src-shard order, directory control records).  There is no
  worker-to-worker connection: the coordinator is the exchange fabric.
- **liveness**: each worker runs a ``PING`` heartbeat (every quarter of
  the read deadline) answered with ``PONG``; both sides treat heartbeat
  frames as pure liveness traffic and skip them when waiting for a
  protocol frame.  A long compute window (or an injected stall) keeps
  pinging and is *not* dead; a half-open socket stops pinging and is.
- **completion**: ``DONE`` returns the worker's payload (stats, clock,
  result, WAL tail); ``BYE`` releases the worker once results landed.

Robustness: :func:`connect_with_retry` retries the coordinator
connection on a capped exponential backoff (``REPRO_TCP_RETRIES``
attempts, optionally seeded-jittered so K recovering workers don't
reconnect in lockstep), and every read carries the
``REPRO_TCP_TIMEOUT_S`` deadline — a worker that dies mid-window (or a
half-open peer) surfaces as a loud ``worker N died mid-window``
:class:`SimulationError`, never a hang.

Self-healing (the fault plane's recovery side)
----------------------------------------------

When a run carries a WAL (``ScenarioConfig.wal``), a worker death
mid-window (a crash, wire garbage, or a SYNC or DONE whose payload does
not unpickle) is no longer fleet-fatal: the :class:`Supervisor`
quarantines the dead connection, respawns the slot per its ``tcp_hosts``
placement (bounded by ``REPRO_TCP_MAX_RESPAWNS``), greets the replacement
with ``RECOVER`` (``WELCOME`` plus the barrier to replay to), and replays
it to the current barrier from the WAL's window records (the resume log's
verified prefix, then the log being appended, read back from disk): the
newcomer re-executes the workload from scratch, every replayed sync is
verified field-by-field (frame blobs byte-for-byte) against the log and
the logged decisions are served back, so it reaches the live barrier
bit-identical to the worker it replaced and the digest cannot move.  The
shell's one ``select`` covers the listener and every connection, so
parked workers get PONGs while the slot refills, and a handshake is one
event per frame with a deadline per step: no connection that is silent,
half-spoken or hung up can stall them.  Strays that dial in once the
fleet is up are turned away and counted as quarantined.  Without a WAL
the crash is a loud abort naming the missing checkpoint.  Recovery counts
land in ``StatsCollector.faults`` (never fingerprinted).

The WAL integrates unchanged: the coordinator owns the log
(:class:`~repro.sim.wal.WalSession` never leaves its process), workers
ship their probe blobs inside syncs, and the frame blobs the coordinator
routes are exactly the bytes the log records — so checkpoint/resume
works with remote workers, and a tcp or mp log resumes under serial and
vice versa (``executor`` and the tcp plumbing fields are excluded from
the config fingerprint).

Trace stores ride along for free: workers execute through
:class:`~repro.sim.shard.ShardSimulator`, so a workload that attaches a
:class:`~repro.sim.tracestore.TraceStore` via ``attach_scenario`` gets
its per-window flush from the runtime's barrier hooks on tcp and mp
exactly as on serial — each worker writes its own shard's store file
locally, merged afterwards with :func:`~repro.sim.tracestore.merge_stores`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import select
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.envutil import env_float, env_int
from repro.errors import ConfigurationError, SimulationError
from repro.sim.barrier import (
    Verdict,
    WorkerEndpoint,
    abort_workers,
    coordinate,
    verdict_for,
)
from repro.sim.faults import FaultPlan, mix64, splitmix64
from repro.sim.shard import _mp_context, _run_worker
from repro.sim.wal import config_fingerprint, verify_shard_window

#: v2 added the liveness heartbeat (PING/PONG) and the RECOVER handshake;
#: v3 made the SYNC payload a pickled ``SyncStatus``
PROTOCOL_VERSION = 3

_WIRE_MAGIC = 0x52545031  # "RTP1"
#: magic, kind, payload length
_WIRE_HEADER = struct.Struct("<IBI")
#: refuse to allocate for absurd lengths — a garbage header must be
#: rejected loudly, not honoured with a gigabyte read
_MAX_FRAME = 1 << 30

_K_HELLO = 1
_K_WELCOME = 2
_K_JOB = 3
_K_READY = 4
_K_SYNC = 5
_K_DECISION = 6
_K_DONE = 7
_K_ERROR = 8
_K_ABORT = 9
_K_BYE = 10
#: WELCOME's recovery twin: same fields plus the barrier to replay to
_K_RECOVER = 11
#: worker-initiated liveness heartbeat and the coordinator's echo
_K_PING = 12
_K_PONG = 13

#: how often the shell polls an open slot's process for an early exit
#: (a ``Popen`` cannot be selected on); never while every slot is bound
_POLL_S = 0.2

TCP_TIMEOUT_ENV = "REPRO_TCP_TIMEOUT_S"
TCP_RETRIES_ENV = "REPRO_TCP_RETRIES"
TCP_MAX_RESPAWNS_ENV = "REPRO_TCP_MAX_RESPAWNS"


def tcp_timeout_seconds() -> float:
    """Per-read socket deadline (and the fleet-assembly deadline): how
    long any endpoint waits on a peer before declaring it dead."""
    return env_float(
        TCP_TIMEOUT_ENV, 60.0, exclusive_minimum=0.0, error=SimulationError
    )


def heartbeat_interval(timeout: float) -> float:
    """How often a worker PINGs — a quarter of the read deadline — and so
    the longest the coordinator may block on anything but the fleet."""
    return max(0.05, timeout / 4.0)


def tcp_retries() -> int:
    """Connection attempts a worker makes before giving up (>= 1)."""
    return env_int(TCP_RETRIES_ENV, 8, minimum=1, error=SimulationError)


def tcp_max_respawns() -> int:
    """Worker respawns the supervision loop may perform per run before a
    death becomes fleet-fatal (>= 0; 0 disables in-run recovery)."""
    return env_int(TCP_MAX_RESPAWNS_ENV, 3, minimum=0, error=SimulationError)


def backoff_schedule(
    retries: int,
    base: float = 0.05,
    cap: float = 1.0,
    jitter_seed: Optional[int] = None,
) -> List[float]:
    """The capped-exponential sleep schedule between connection attempts:
    ``base * 2^i`` clamped to ``cap``, one entry per retry gap.

    With ``jitter_seed`` each delay is scaled by a factor in [0.5, 1.0)
    drawn from the fault plane's splitmix64 stream — K recovering workers
    seeded differently spread their reconnects out instead of dialing in
    lockstep (the thundering herd), while the whole schedule stays
    reproducible from the seed.  ``None`` keeps the exact unjittered
    schedule.
    """
    delays = [min(cap, base * (2.0 ** i)) for i in range(max(0, retries - 1))]
    if jitter_seed is None:
        return delays
    state = jitter_seed
    jittered = []
    for delay in delays:
        state, value = splitmix64(state)
        jittered.append(delay * (0.5 + (value >> 11) / float(1 << 54)))
    return jittered


def fingerprint_digest(config: Any) -> str:
    """Hex digest of the scenario-identity fields a tcp fleet must agree
    on — the WAL's :func:`config_fingerprint` dict, canonically encoded.
    Exchanged at handshake so a worker running a different scenario (or a
    different code revision's idea of one) fails before the first window.
    """
    blob = json.dumps(
        config_fingerprint(config), sort_keys=True, default=repr
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def parse_address(spec: str) -> Tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``) to a connect/bind address."""
    host, _, port = spec.rpartition(":")
    try:
        number = int(port)
    except ValueError:
        raise ConfigurationError(
            f"invalid tcp address {spec!r}; expected HOST:PORT"
        ) from None
    if not 1 <= number <= 65535:
        raise ConfigurationError(
            f"invalid tcp address {spec!r}: port {number} is outside "
            "1-65535"
        )
    return (host or "127.0.0.1", number)


def parse_hosts(spec: Optional[str], num_shards: int) -> List[str]:
    """The per-shard worker placement list from a ``tcp_hosts`` spec.

    Comma-separated entries, one per shard (a single entry applies to
    every shard): ``local`` forks the worker from the coordinator on this
    machine, ``wait`` expects a worker launched elsewhere (another box, a
    terminal, a test) to connect in, ``ssh:HOST`` starts ``repro worker``
    over ssh against the coordinator's bind address.
    """
    if spec is None or not spec.strip():
        entries = ["local"]
    else:
        entries = [entry.strip() for entry in spec.split(",")]
    if any(not entry for entry in entries):
        raise ConfigurationError(
            f"tcp hosts spec {spec!r} has an empty entry"
        )
    for entry in entries:
        if entry not in ("local", "wait") and not entry.startswith("ssh:"):
            raise ConfigurationError(
                f"unknown tcp hosts entry {entry!r}; expected 'local', "
                "'wait', or 'ssh:HOST'"
            )
    if len(entries) == 1:
        entries = entries * num_shards
    if len(entries) != num_shards:
        raise ConfigurationError(
            f"tcp hosts spec names {len(entries)} workers but the run has "
            f"{num_shards} shards (give one entry, or exactly one per shard)"
        )
    return entries


# ---------------------------------------------------------------------------
# Frame I/O.
# ---------------------------------------------------------------------------


def _configure(sock: socket.socket, timeout: float) -> socket.socket:
    sock.settimeout(timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - stacks without TCP_NODELAY
        pass
    return sock


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
    (garbage on the port), truncation/timeout a dead peer."""
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


def connect_with_retry(
    host: str,
    port: int,
    retries: Optional[int] = None,
    timeout: Optional[float] = None,
    jitter_seed: Optional[int] = None,
) -> socket.socket:
    """Dial the coordinator, retrying refused/unreachable connections on
    the capped backoff schedule (seeded-jittered when ``jitter_seed`` is
    given) — workers routinely start before the coordinator's listener is
    up, and recovering workers must not reconnect in lockstep."""
    retries = tcp_retries() if retries is None else retries
    timeout = tcp_timeout_seconds() if timeout is None else timeout
    delays = backoff_schedule(retries, jitter_seed=jitter_seed)
    last_error: Optional[OSError] = None
    for attempt in range(retries):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            last_error = exc
            if attempt < len(delays):
                time.sleep(delays[attempt])
            continue
        return _configure(sock, timeout)
    raise SimulationError(
        f"could not connect to the tcp coordinator at {host}:{port} after "
        f"{retries} attempts ({TCP_RETRIES_ENV}); last error: {last_error}"
    )


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
    """The tcp executor's wire: syncs up, decisions down, exchange frames
    riding both as encoded blobs (the coordinator routes them)."""

    def __init__(
        self, sock: socket.socket, shard_id: int, lock: threading.Lock
    ) -> None:
        super().__init__(shard_id)
        self.sock = sock
        #: shared with the heartbeat thread: all sends are serialized
        self.lock = lock
        #: fault plane (repro.sim.faults.FaultInjector) — wire faults
        #: replace this barrier's sync frame; None on clean and
        #: RECOVER-ed workers
        self.injector: Any = None

    def _recv_protocol(self, context: str) -> Tuple[int, bytes]:
        """Next non-heartbeat frame; every PONG skipped refreshes the
        read deadline, so a worker parked behind a slow (or recovering)
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
        header = (_WIRE_MAGIC, _SEND_KINDS[kind], len(data))
        fault = None
        if kind == "sync" and self.injector is not None:
            # sync() has already moved on to the next barrier index
            fault = self.injector.wire_fault(self._barrier - 1)
        if fault == "corrupt":
            header = (0x0BADF00D, _K_SYNC, len(data))
        elif fault == "truncate":  # promise more bytes than ever arrive
            header = (_WIRE_MAGIC, _K_SYNC, len(data) + 64)
        with self.lock:
            self.sock.sendall(_WIRE_HEADER.pack(*header) + data)
            if fault is not None:
                # Having mangled this barrier's sync, die without releasing
                # the lock — no heartbeat may follow the bad bytes.
                os._exit(3)

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
    host: str,
    port: int,
    shard: int = -1,
    retries: Optional[int] = None,
    timeout: Optional[float] = None,
    backoff_seed: int = 0,
    job: Optional[Dict[str, Any]] = None,
) -> int:
    """One tcp shard worker: connect, handshake, run the window protocol.

    The ``repro worker`` CLI entry point and a forked ``local`` worker's
    body alike; exit code 0 on a clean run (the
    coordinator's BYE, or its disappearance after our DONE landed), 1 on
    any failure — which is also reported to the coordinator as an ERROR
    frame when the socket still stands.

    ``backoff_seed`` seeds the reconnect jitter (mixed with the shard
    claim, so siblings spread out); the coordinator passes the fault
    plane's seed through so recovery timing stays reproducible.  A forked
    worker passes the coordinator's ``job`` straight from fork memory and
    says so in its HELLO, so no JOB frame is pickled for it — which is
    also how a workload that cannot be pickled (a closure) still runs on
    forked workers.
    """
    timeout = tcp_timeout_seconds() if timeout is None else timeout
    sock = connect_with_retry(
        host, port, retries=retries, timeout=timeout,
        jitter_seed=mix64(backoff_seed, shard),
    )
    heartbeat: Optional[_Heartbeat] = None
    try:
        send_frame(
            sock,
            _K_HELLO,
            json.dumps({
                "version": PROTOCOL_VERSION, "shard": shard,
                "forked": job is not None,
            }).encode("utf-8"),
        )
        context = f"worker (claiming shard {shard}) awaiting welcome"
        kind, payload = recv_frame(sock, context)
        if kind == _K_ERROR:
            raise SimulationError(
                "tcp coordinator rejected this worker: "
                + payload.decode("utf-8", "replace")
            )
        if kind not in (_K_WELCOME, _K_RECOVER):
            raise SimulationError(f"{context}: unexpected frame kind {kind}")
        # RECOVER is WELCOME's twin for a respawned slot: same fields and
        # checks, plus the barrier the coordinator will replay us to.  A
        # recovering worker runs the workload exactly as a fresh one —
        # replay is transparent (the coordinator serves logged decisions)
        # — but must NOT re-arm the fault injector, or the fault that
        # killed its predecessor would fire again and recovery would loop.
        recovering = kind == _K_RECOVER
        welcome = json.loads(payload.decode("utf-8"))
        if welcome.get("version") != PROTOCOL_VERSION:
            message = (
                f"tcp protocol version mismatch: coordinator speaks "
                f"{welcome.get('version')}, this worker speaks "
                f"{PROTOCOL_VERSION}"
            )
            send_frame(sock, _K_ERROR, message.encode("utf-8"))
            raise SimulationError(message)
        shard_id = int(welcome["shard"])
        # The coordinator's import roots: workload/config classes pickled
        # into the job must resolve here even when this worker was started
        # bare (test fixtures, bench modules).  Appended, never prepended —
        # the worker's own environment wins on conflicts.
        for entry in welcome.get("sys_path", ()):
            if entry and entry not in sys.path:
                sys.path.append(entry)
        if job is None:
            kind, payload = recv_frame(
                sock, f"worker (shard {shard_id}) awaiting job"
            )
            if kind != _K_JOB:
                raise SimulationError(
                    f"worker (shard {shard_id}): expected the job frame, "
                    f"got kind {kind}"
                )
            job = pickle.loads(payload)
        fingerprint = fingerprint_digest(job["config"])
        if fingerprint != welcome.get("fingerprint"):
            message = (
                f"config fingerprint mismatch: coordinator announced "
                f"{welcome.get('fingerprint')}, the job decodes to "
                f"{fingerprint} — coordinator and worker disagree about "
                "the scenario (code revision skew?)"
            )
            send_frame(sock, _K_ERROR, message.encode("utf-8"))
            raise SimulationError(message)
        send_frame(
            sock,
            _K_READY,
            json.dumps(
                {"shard": shard_id, "fingerprint": fingerprint}
            ).encode("utf-8"),
        )

        lock = threading.Lock()
        channel = _TcpChannel(sock, shard_id, lock)
        heartbeat = _Heartbeat(sock, lock, heartbeat_interval(timeout))
        plan = FaultPlan.parse(getattr(job["config"], "faults", None))
        fault_hook = None
        if plan is not None and not recovering:
            channel.injector = plan.injector(
                shard_id,
                job["num_shards"],
                counters=channel.faults,
                blackhole_s=2.0 * timeout + 1.0,
            )
        if channel.injector is not None:
            channel.injector.bind_heartbeat(heartbeat)
            fault_hook = channel.injector.at_barrier
        heartbeat.start()
        if not _run_worker(
            channel, job["config"], job["workload"], job["num_shards"],
            job["lookahead"], job["snapshot"], job.get("wal_cadence", 0),
            fault_hook=fault_hook,
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
        if heartbeat is not None:
            heartbeat.stop()
        try:
            sock.close()
        except OSError:  # pragma: no cover - close races
            pass


# ---------------------------------------------------------------------------
# Coordinator: the supervision machine and its socket shell.
# ---------------------------------------------------------------------------


def _json_object(payload: bytes) -> Optional[Dict[str, Any]]:
    """A handshake frame's JSON object, or None for anything else."""
    try:
        value = json.loads(payload.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError included
        return None
    return value if isinstance(value, dict) else None


class Supervisor:
    """Every supervision decision of a process fleet, as a sans-IO machine.

    Its shell (:class:`TcpCoordinator`) feeds it events — :meth:`opened`,
    :meth:`frame`, :meth:`closed` (EOF or garbage), :meth:`exited`, and
    :meth:`expire` at :meth:`deadline` — and carries out the actions each
    returns, in order: ``("send", conn, kind, payload)``,
    ``("close", conn)``, ``("bind", conn, shard)`` (a handshake completed),
    ``("spawn", shard)``, ``("decide", shard, verdict)`` (a replayed
    window's logged decision), ``("abort", failure, report)`` (abort the
    fleet with ``failure``, raise ``report``) and, last, ``("done",
    messages)``: the phase — :meth:`assemble`, or one barrier round of
    :meth:`collect` — is complete.  A connection is the shell's handle
    while it handshakes and its shard id once bound.  The clock is
    injected and nothing here blocks, so no connection can hold the fleet.
    """

    def __init__(
        self, num_shards: int, timeout: float, max_respawns: int,
        window_records: Optional[Callable[[int], list]],
        clock: Callable[[], float], fingerprint: str = "",
        sys_path: Sequence[str] = (),
    ) -> None:
        self.num_shards = num_shards
        self.timeout = timeout
        self.max_respawns = self.budget = max_respawns
        #: ``wal.window_records``, the replay source; None without a WAL
        self.window_records = window_records
        self.clock = clock
        #: fault/recovery accounting, merged into the run's
        #: ``StatsCollector.faults`` family (never fingerprinted)
        self.faults: Counter = Counter()
        self.rejected = 0  # connections turned away
        self.assembling = False
        self.job: Dict[str, Any] = {}
        self.welcome = dict(
            version=PROTOCOL_VERSION, fingerprint=fingerprint,
            sys_path=list(sys_path),
        )
        #: the round: shards whose frame is still awaited, frames already in
        self.barrier = 0
        self.pending = set(range(num_shards))
        self.results: Dict[int, Tuple[str, Any]] = {}
        self.last_seen: Dict[int, float] = {}
        #: open slots and the instant each must be claimed by
        self.open: Dict[int, float] = {}
        #: handshaking connections: [deadline, the slot claimed at HELLO]
        self.greeting: Dict[Any, list] = {}
        #: recovering slots and the logged windows left to replay to them
        self.replaying: Dict[int, list] = {}
        #: quarantined shards nobody awaited yet, and why — surfaced once,
        #: when the next round awaits them
        self.dead: Dict[int, str] = {}

    def assemble(self, job: Dict[str, Any]) -> List[tuple]:
        """Open every slot for one read deadline and spawn its worker."""
        self.job, self.assembling = job, True
        deadline = self.clock() + self.timeout
        self.open = dict.fromkeys(range(self.num_shards), deadline)
        return [("spawn", shard) for shard in range(self.num_shards)]

    def collect(self, barrier: int) -> List[tuple]:
        """Await one frame per shard at ``barrier`` (one that came in while
        the fleet assembled already counts for barrier 0)."""
        if barrier != self.barrier:
            self.barrier, self.results = barrier, {}
            self.pending = set(range(self.num_shards))
        bound = self.pending - set(self.open)
        self.last_seen.update(dict.fromkeys(bound, self.clock()))
        actions: List[tuple] = []
        for shard in sorted(self.pending & self.dead.keys()):
            actions += self._death(shard, self.dead.pop(shard))
        return actions + self._progress()

    def deadline(self) -> float:
        """The next instant :meth:`expire` has something to decide — every
        state that awaits anything has one."""
        return min([
            *self.open.values(), *(at for at, _ in self.greeting.values()),
            *(self.last_seen[shard] + self.timeout
              for shard in self.pending - set(self.open)),
        ])

    def opened(self, conn: Any) -> List[tuple]:
        """A new connection has one heartbeat interval to say HELLO."""
        deadline = self.clock() + heartbeat_interval(self.timeout)
        self.greeting[conn] = [deadline, None]
        return []

    def frame(self, conn: Any, kind: int, payload: bytes) -> List[tuple]:
        """One whole frame came in on ``conn``."""
        if conn in self.greeting:
            return self._handshake(conn, kind, payload)
        self.last_seen[conn] = self.clock()
        if kind == _K_PING:
            self.faults["heartbeats"] += 1
            return [("send", conn, _K_PONG, b"")]
        if conn in self.replaying:
            return self._replayed(conn, kind, payload)
        if conn not in self.pending:
            return self._quarantine(conn, (
                f"worker {conn} sent unexpected frame kind {kind} out of turn"
            ))
        if kind in (_K_SYNC, _K_DONE):
            name = "sync" if kind == _K_SYNC else "done"
            message, failure = _unpickled(payload)
            if failure is not None:  # still awaited: its death is handled now
                return self._quarantine(conn, (
                    f"worker {conn} sent an undecodable {name} frame at "
                    f"barrier {self.barrier}: {failure}"
                ))
            result = (name, message)
        elif kind == _K_ERROR:
            result = ("error", payload.decode("utf-8", "replace"))
        else:
            result = ("error", (
                f"worker {conn} sent unexpected frame kind {kind} at barrier "
                f"{self.barrier}"
            ))
        self.pending.discard(conn)
        self.results[conn] = result
        return self._progress()

    def closed(self, conn: Any, reason: str) -> List[tuple]:
        """``conn`` hit EOF, or sent garbage no frame can be read from."""
        if conn in self.greeting:
            return self._turn_away(conn)
        return self._quarantine(conn, (
            f"worker {conn} died mid-window (no sync/done/error message: "
            f"{reason})"
        ))

    def exited(self, shard: int, code: int) -> List[tuple]:
        """The current process of slot ``shard`` exited with ``code``."""
        if code == 0 or shard not in self.open:
            return []
        return _abort(
            f"tcp worker process for shard {shard} exited with code {code} "
            "before completing its handshake"
        )

    def expire(self) -> List[tuple]:
        """Act on every deadline the clock has reached."""
        now = self.clock()
        if any(deadline <= now for deadline in self.open.values()):
            return _abort(
                f"tcp coordinator timed out after {self.timeout:.0f}s "
                f"({TCP_TIMEOUT_ENV}) waiting for workers to claim shards "
                f"{sorted(self.open)}"
            )
        actions: List[tuple] = []
        for conn, (deadline, _) in list(self.greeting.items()):
            if deadline <= now:
                actions += self._turn_away(conn)
        for shard in sorted(self.pending - set(self.open)):
            # A half-open socket: a live shard in a long compute window
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

    def _handshake(self, conn: Any, kind: int, payload: bytes) -> List[tuple]:
        """HELLO → WELCOME/RECOVER (+ JOB to a worker holding none) →
        READY, one frame per event.  A version or fingerprint mismatch is
        run-fatal; a bad, taken or out-of-range claim is turned away and
        the slot stays open."""
        claim = self.greeting[conn][1]
        if claim is not None:
            return self._ready(conn, claim, kind, payload)
        hello = _json_object(payload) if kind == _K_HELLO else None
        if hello is None:
            return self._turn_away(conn, "expected a HELLO frame")
        if hello.get("version") != PROTOCOL_VERSION:
            return self._turn_away(conn, (
                "tcp protocol version mismatch: worker speaks "
                f"{hello.get('version')}, coordinator speaks "
                f"{PROTOCOL_VERSION}"
            ), fatal=True)
        claim = hello.get("shard", -1)
        if type(claim) is not int:  # a string, null, list, bool or float
            return self._turn_away(
                conn, f"shard id {claim!r} is not an integer"
            )
        if claim == -1 and self.open:  # the lowest slot nobody is claiming
            claimed = {slot for _, slot in self.greeting.values()}
            claim = min(set(self.open) - claimed or self.open)
        if claim not in self.open:
            return self._turn_away(conn, (
                f"shard id {claim} is already claimed or out of range "
                f"(open slots: {sorted(self.open)})"
            ))
        self.greeting[conn] = [self.clock() + self.timeout, claim]
        welcome, reply = dict(self.welcome, shard=claim), _K_WELCOME
        if claim in self.replaying:  # a recovered slot: replay it to here
            welcome["barrier"], reply = self.barrier, _K_RECOVER
        actions = [("send", conn, reply, json.dumps(welcome).encode("utf-8"))]
        if hello.get("forked") is not True:
            job = pickle.dumps(self.job, protocol=pickle.HIGHEST_PROTOCOL)
            actions.append(("send", conn, _K_JOB, job))
        return actions

    def _ready(
        self, conn: Any, claim: int, kind: int, payload: bytes
    ) -> List[tuple]:
        if kind == _K_ERROR:
            return _abort(
                f"tcp worker for shard {claim} failed its handshake: "
                + payload.decode("utf-8", "replace")
            )
        ready = _json_object(payload) if kind == _K_READY else None
        if ready is None:
            return self._turn_away(
                conn, f"expected READY, got frame kind {kind}"
            )
        if claim not in self.open:  # a rival claimant's READY came first
            return self._turn_away(
                conn, f"shard id {claim} is already claimed"
            )
        if ready.get("fingerprint") != self.welcome["fingerprint"]:
            return self._turn_away(conn, (
                f"config fingerprint mismatch: worker for shard {claim} "
                f"computed {ready.get('fingerprint')}, coordinator has "
                f"{self.welcome['fingerprint']} — the fleet disagrees about "
                "the scenario"
            ), fatal=True)
        del self.greeting[conn], self.open[claim]
        self.last_seen[claim] = self.clock()
        self._caught_up(claim)
        return [("bind", conn, claim)] + self._progress()

    def _turn_away(
        self, conn: Any, message: Optional[str] = None, fatal: bool = False
    ) -> List[tuple]:
        """Drop a handshaking connection (with an ERROR frame when there is
        something to say); once the fleet is up it counts as quarantined.
        ``fatal``: the whole fleet goes down with it."""
        del self.greeting[conn]
        self.rejected += 1
        if not self.assembling:
            self.faults["quarantined_connections"] += 1
        if message is None:
            return [("close", conn)]
        error = ("send", conn, _K_ERROR, message.encode("utf-8"))
        return [error, ("close", conn)] + (_abort(message) if fatal else [])

    def _quarantine(self, shard: int, reason: str) -> List[tuple]:
        """Close a dead or misbehaving shard's link.  An awaited shard's
        death is handled now; any other's when the next round awaits it."""
        if shard not in self.pending:
            self.dead[shard] = reason
            return [("close", shard)]
        return [("close", shard)] + self._death(shard, reason)

    def _death(self, shard: int, reason: str) -> List[tuple]:
        """Respawn an awaited shard's slot, to be RECOVERed and replayed to
        this barrier from the WAL — or abort the fleet: no WAL to replay
        from (naming the missing checkpoint), the respawn budget spent, or
        the replacement itself dying mid-replay."""
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
        self.open[shard] = self.clock() + self.timeout
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
        self._caught_up(shard)
        return [("decide", shard, verdict_for(
            shard, self.num_shards, record.window_start, record.global_last,
            record.total_executed, record.frames, record.control,
        ))]

    def _caught_up(self, shard: int) -> None:
        """A replacement that has replayed every logged window is live."""
        if self.replaying.get(shard) == []:
            del self.replaying[shard]
            self.faults["respawns"] += 1

    def _progress(self) -> List[tuple]:
        """``done`` once no slot is open and — past assembly — every
        awaited frame is in."""
        if self.open or (self.pending and not self.assembling):
            return []
        self.assembling = False
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


class _ForkedWorker:
    """A ``local`` worker forked from the coordinator, behind the slice of
    :class:`subprocess.Popen` the shell and teardown use — ``poll``,
    ``wait``, ``terminate``, ``kill`` — so an ssh slot's process and a
    forked one are handled alike."""

    def __init__(self, target: Any, args: tuple) -> None:
        self._process = _mp_context().Process(
            target=target, args=args, daemon=True
        )
        self._process.start()

    def poll(self) -> Optional[int]:
        return self._process.exitcode

    def wait(self, timeout: Optional[float] = None) -> int:
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise subprocess.TimeoutExpired("forked tcp worker", timeout)
        return self._process.exitcode

    def terminate(self) -> None:
        self._process.terminate()

    def kill(self) -> None:
        self._process.kill()


class TcpCoordinator:
    """The listening side of a tcp run and the shell around its
    :class:`Supervisor`: forks, launches or awaits K workers per the
    ``tcp_hosts`` placement (a ``local`` slot is forked from this process,
    ``ssh:HOST`` runs ``repro worker`` over ssh, ``wait`` starts nothing)
    and is the :func:`~repro.sim.barrier.coordinate` loop's link to them —
    one socket per worker, every exchange blob relayed through the
    decision frames.  It decides nothing: one ``select`` over the listener
    and every connection turns readability into the supervisor's events,
    and its actions into socket and process calls."""

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
        self.hosts = parse_hosts(
            getattr(config, "tcp_hosts", None), num_shards
        )
        self.listener: Optional[socket.socket] = None
        self.address: Optional[Tuple[str, int]] = None
        self.connections: List[Optional[socket.socket]] = [None] * num_shards
        #: the *current* process per slot — a :class:`_ForkedWorker` for
        #: "local", a ``subprocess.Popen`` for "ssh:HOST", none for "wait"
        self.processes: Dict[int, Any] = {}
        #: replaced predecessors: a recovered slot's corpse carries the
        #: exit code of the death already healed, so nothing polls it
        #: again — :meth:`close` reaps it
        self._reap: List[Any] = []
        self.supervisor = Supervisor(
            num_shards, self.timeout, tcp_max_respawns(),
            wal.window_records if wal is not None else None, time.monotonic,
            fingerprint_digest(config), self._sys_path(),
        )
        self.faults = self.supervisor.faults
        #: reconnect-jitter base handed to spawned workers: the fault
        #: plane's seed when one is configured, so recovery timing is
        #: reproducible from the same knob that schedules the faults
        plan = FaultPlan.parse(getattr(config, "faults", None))
        self._backoff_seed = plan.seed if plan is not None else 0

    def bind(self) -> Tuple[str, int]:
        """Open the listener; returns the bound (host, port) — resolved
        even when ``tcp_port=0`` asked for an ephemeral port."""
        if self.listener is not None:
            return self.address
        host = getattr(self.config, "tcp_host", "127.0.0.1") or "127.0.0.1"
        port = getattr(self.config, "tcp_port", 0) or 0
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(self.num_shards + 4)
        self.listener, self.address = listener, listener.getsockname()[:2]
        return self.address

    def _spawn_one(self, shard_id: int, entry: str) -> None:
        if entry == "wait":
            return
        if entry == "local":
            process = _ForkedWorker(self._forked_worker, (shard_id,))
        else:  # ssh:HOST — the remote python must have repro installed
            host, port = self.address
            process = subprocess.Popen([
                "ssh", entry[len("ssh:"):], "python3", "-m", "repro.cli",
                "worker", "--connect", f"{host}:{port}", "--shard",
                str(shard_id), "--backoff-seed", str(self._backoff_seed),
            ])
        if shard_id in self.processes:
            self._reap.append(self.processes[shard_id])
        self.processes[shard_id] = process

    def _forked_worker(self, shard_id: int) -> None:
        """A ``local`` slot's whole life, in the forked child.

        The child first closes its copies of the listener and of every
        worker connection, handshaking ones included: a replacement forked
        mid-run that kept a sibling's coordinator socket open would stop
        that sibling from ever seeing EOF.  It leaves by ``os._exit`` (no
        atexit, no inherited teardown); an exception instead propagates to
        the fork's bootstrap, which prints it and exits 1 — "exited with
        code 1 before completing its handshake".
        """
        greeting = self.supervisor.greeting
        for sock in [self.listener, *self.connections, *greeting]:
            if sock is not None:
                sock.close()
        host, port = self.address
        os._exit(worker_main(
            host, port, shard_id, backoff_seed=self._backoff_seed,
            job=self.supervisor.job,
        ))

    @staticmethod
    def _sys_path() -> List[str]:
        return [entry or os.getcwd() for entry in sys.path]

    def _serve(self, actions: List[tuple]) -> Any:
        """Carry out the supervisor's actions, feeding it one event at a
        time, until it reports the phase done; returns its messages."""
        events = self._events()
        while True:
            for verb, *args in actions:
                if verb == "done":
                    return args[0]
                if verb == "abort":
                    abort_workers(self, range(self.num_shards), args[0])
                    raise SimulationError(args[1])
                if verb == "spawn":
                    self._spawn_one(args[0], self.hosts[args[0]])
                elif verb == "decide":
                    self.send_decision(*args)
                elif verb == "bind":
                    args[0].settimeout(self.timeout)  # the full deadline
                    self.connections[args[1]] = args[0]
                elif verb == "send":
                    try:
                        send_frame(self._socket(args[0]), args[1], args[2])
                    except OSError:  # its read side finds the corpse
                        pass
                else:  # "close"
                    self._socket(args[0]).close()
                    if isinstance(args[0], int):
                        self.connections[args[0]] = None
            actions = next(events)

    def _socket(self, conn: Any) -> socket.socket:
        """A supervisor connection — a shard id, or a handshaking socket."""
        return self.connections[conn] if isinstance(conn, int) else conn

    def _events(self) -> Iterator[List[tuple]]:
        """The supervisor's events, one per ``next``.  One ``select`` over
        the listener and every connection wakes on readability or at the
        supervisor's next deadline (and, while a slot is open, every
        :data:`_POLL_S` to poll its process); then each readable socket is
        an event, the deadline check one, an open slot's exit one."""
        supervisor = self.supervisor
        while True:
            names = {sock: sock for sock in supervisor.greeting}
            names.update(
                (sock, shard_id) for shard_id, sock
                in enumerate(self.connections) if sock is not None
            )
            if self.listener is not None:
                names[self.listener] = None
            wait = supervisor.deadline() - time.monotonic()
            if supervisor.open:
                wait = min(wait, _POLL_S)
            for sock in select.select(list(names), [], [], max(0.0, wait))[0]:
                if sock is self.listener:
                    yield supervisor.opened(_configure(
                        sock.accept()[0], heartbeat_interval(self.timeout)
                    ))
                elif sock.fileno() != -1:  # not closed by an earlier action
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
            for shard_id in sorted(supervisor.open):
                process = self.processes.get(shard_id)
                code = None if process is None else process.poll()
                if code is not None:
                    yield supervisor.exited(shard_id, code)

    # -- the barrier loop's link --------------------------------------------

    def collect(self, barrier: int) -> List[Tuple[int, str, Any]]:
        """One barrier's worth of protocol frames from every shard,
        recovering dead workers in place when the WAL allows it."""
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
        """Assemble the fleet and drive the run through the shared barrier
        loop, with the supervisor wrapped around every read."""
        self.bind()
        wal, plane = self.wal, self.plane
        job = {
            "config": self.config,
            "workload": workload,
            "num_shards": self.num_shards,
            "lookahead": self.lookahead,
            "snapshot": plane.snapshot,
            "wal_cadence": wal.cursor_every if wal is not None else 0,
        }
        try:
            self._serve(self.supervisor.assemble(job))
            payloads, windows = coordinate(
                self, self.num_shards, self.lookahead, plane, wal
            )
        finally:
            self.close()
        return payloads, windows, self.faults

    def close(self) -> None:
        """Full teardown: release every worker, close every socket, reap
        every spawned process — no orphan sockets, no zombie workers.
        Every step is individually guarded: a broken pipe mid-teardown
        must never mask the error that triggered it."""
        for conn in self.connections:
            try:
                if conn is not None:
                    send_frame(conn, _K_BYE)
            except Exception:
                pass
        greeting = self.supervisor.greeting
        for sock in [self.listener, *self.connections, *greeting]:
            try:
                if sock is not None:
                    sock.close()
            except Exception:  # pragma: no cover - close races
                pass
        for process in list(self.processes.values()) + self._reap:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung worker
                process.terminate()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()


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
