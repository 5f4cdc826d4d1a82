"""The tcp shard executor: the window protocol over socket frames.

The mp executor (:func:`repro.sim.shard._run_mp`) caps out at one box —
its control pipes and shared-memory rings need a common kernel.  This
module runs the *same* window protocol (:mod:`repro.sim.barrier`: the
loop :func:`~repro.sim.barrier.coordinate` and the worker endpoint's one
``sync``) between a **coordinator** (the process that owns the
:class:`~repro.sim.shard.ShardedScenario`) and K **workers** connected
over TCP — :class:`_TcpChannel` is the endpoint's *wire* — so shards can
live on other machines while every observable stays byte-identical to
serial/mp (the equivalence fuzz in ``tests/test_shard_equivalence.py``
proves it over localhost).  :class:`TcpCoordinator` is the loop's *link*:
it assembles
the fleet, and its collect step is the supervision pump — heartbeats,
death detection, and in-run recovery all happen while one barrier round
is being gathered, invisible to the loop.

Wire model
----------

Everything rides length-prefixed frames — ``(magic, kind, length)``
header (:data:`_WIRE_HEADER`) + payload — over one connection per
worker:

- **handshake**: the worker sends ``HELLO`` (protocol version + shard-id
  claim, JSON); the coordinator answers ``WELCOME`` (assigned shard, the
  scenario's config fingerprint, the coordinator's ``sys.path`` so
  workload classes pickled into the job resolve worker-side) and the
  pickled ``JOB`` (config, workload, lookahead, overlay snapshot, WAL
  cadence); the worker confirms with ``READY`` carrying the fingerprint
  it computed from the job it actually received.  A version or
  fingerprint mismatch is a loud :class:`SimulationError` — a skewed
  fleet must never reach the first window.  A duplicate (or out-of-
  range) shard claim gets an ``ERROR`` frame and its connection closed;
  the slot stays open for the real worker.
- **barriers**: each worker ``SYNC`` carries one pickled
  :class:`~repro.sim.barrier.SyncStatus` (protocol v3): its window status
  plus the window's outboxes already encoded as :class:`ExchangeFrame`
  blobs (the ``SoA1`` wire format, byte-for-byte — the same blobs the mp
  rings carry and the WAL logs), written once — ``routed`` and ``blobs``
  are one list.  The coordinator routes blobs between workers
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

When a run carries a WAL (``--wal``), a worker death mid-window is no
longer fleet-fatal: the coordinator's supervision loop quarantines the
dead connection, respawns the slot per its ``--hosts`` placement
(bounded by ``REPRO_TCP_MAX_RESPAWNS``), handshakes the replacement
with a ``RECOVER`` frame (``WELCOME`` plus the barrier to replay to,
fingerprint-checked the same way), and replays it to the current
barrier from the WAL's retained window records: the newcomer re-executes
the workload from scratch, every replayed sync is verified field-by-
field (and frame-blob byte-for-byte) against the log, and the logged
decisions are served back — so by the time it reaches the live barrier
it is bit-identical to the worker it replaced, and the run's final
digest cannot move.  The slot refills through the same accept loop that
assembled the fleet, with the same supervision pump answering the parked
workers' heartbeats between accepts; a newcomer's HELLO is read under the
heartbeat interval, so a connection that says nothing cannot starve them.
Stale or duplicate connections that dial in during recovery are rejected
and counted as quarantined.  Without a WAL the
crash degrades gracefully to the pre-recovery behavior: a loud abort
naming the missing checkpoint.  All recovery accounting lands in the
``StatsCollector.faults`` family (never fingerprinted).

The WAL integrates unchanged: the coordinator owns the log
(:class:`~repro.sim.wal.WalSession` never leaves its process), workers
ship their probe blobs inside syncs, and the frame blobs the coordinator
routes are exactly the bytes the log records — so checkpoint/resume
works with remote workers, and a tcp log resumes under serial/mp and
vice versa (``executor`` and the tcp plumbing fields are excluded from
the config fingerprint).

Trace stores ride along for free: workers execute through
:class:`~repro.sim.shard.ShardSimulator`, so a workload that attaches a
:class:`~repro.sim.tracestore.TraceStore` via ``attach_scenario`` gets
its per-window flush from the runtime's barrier hooks on tcp exactly as
on serial/mp — each worker writes its own shard's store file locally,
merged afterwards with :func:`~repro.sim.tracestore.merge_stores`.
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
from typing import Any, Dict, List, Optional, Set, Tuple

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
from repro.sim.shard import _run_worker
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

#: internal supervision-loop sentinel (never on the wire): a shard whose
#: connection died before delivering a protocol frame
_K_DEAD = -1

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
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ConfigurationError(
            f"invalid tcp address {spec!r}; expected HOST:PORT"
        ) from None


def parse_hosts(spec: Optional[str], num_shards: int) -> List[str]:
    """The per-shard worker placement list from a ``--hosts`` spec.

    Comma-separated entries, one per shard (a single entry applies to
    every shard): ``local`` spawns a ``repro worker`` subprocess on this
    machine, ``wait`` expects a worker launched elsewhere (another box, a
    terminal, a test) to connect in, ``ssh:HOST`` spawns the worker over
    ssh against the coordinator's bind address.
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
) -> int:
    """One tcp shard worker: connect, handshake, run the window protocol.

    The ``repro worker`` CLI entry point; exit code 0 on a clean run (the
    coordinator's BYE, or its disappearance after our DONE landed), 1 on
    any failure — which is also reported to the coordinator as an ERROR
    frame when the socket still stands.

    ``backoff_seed`` seeds the reconnect jitter (mixed with the shard
    claim, so siblings spread out); the coordinator passes the fault
    plane's seed through so recovery timing stays reproducible.
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
            json.dumps(
                {"version": PROTOCOL_VERSION, "shard": shard}
            ).encode("utf-8"),
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
            job["lookahead"], job.get("snapshot"), job.get("wal_cadence", 0),
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
# Coordinator.
# ---------------------------------------------------------------------------


class TcpCoordinator:
    """The listening side of a tcp run: spawns/accepts K workers and is
    the :func:`~repro.sim.barrier.coordinate` loop's link to them — one
    socket per worker, every exchange blob relayed through the decision
    frames.  Its :meth:`collect` is a supervision pump that answers
    heartbeats and (on WAL runs) respawns and replays workers that die
    mid-window."""

    def __init__(
        self,
        config: Any,
        num_shards: int,
        lookahead: float,
        plane: Any = None,
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
        self.connections: List[Optional[socket.socket]] = (
            [None] * num_shards
        )
        #: the *current* spawned process per slot ("wait" slots have none)
        self.processes: Dict[int, subprocess.Popen] = {}
        #: replaced predecessors: a recovered slot's corpse carries the
        #: exit code of the death already healed, so nothing polls it
        #: again — :meth:`close` reaps it
        self._reap: List[subprocess.Popen] = []
        #: connections the accept loop turned away (garbage, bad claims)
        self.rejected = 0
        #: fault/recovery accounting: merged into the run's
        #: ``StatsCollector.faults`` family (never fingerprinted)
        self.faults = Counter()
        #: why each quarantined connection died — surfaced when the
        #: supervision loop next awaits that shard
        self._failed: Dict[int, str] = {}
        self._respawn_budget = tcp_max_respawns()
        #: reconnect-jitter base handed to spawned workers: the fault
        #: plane's seed when one is configured, so recovery timing is
        #: reproducible from the same knob that schedules the faults
        plan = FaultPlan.parse(getattr(config, "faults", None))
        self._backoff_seed = plan.seed if plan is not None else 0
        #: the pickled JOB and the fleet's config fingerprint — set by
        #: :meth:`run`, served to every worker and every replacement
        self._job_blob = b""
        self._fingerprint = ""

    # -- fleet assembly ------------------------------------------------------

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
        self.listener = listener
        self.address = listener.getsockname()[:2]
        return self.address

    def _worker_command(self, shard_id: int) -> List[str]:
        host, port = self.address
        return [
            "-m", "repro.cli", "worker",
            "--connect", f"{host}:{port}",
            "--shard", str(shard_id),
            "--backoff-seed", str(self._backoff_seed),
        ]

    def _spawn_one(self, shard_id: int, entry: str) -> None:
        if entry == "wait":
            return
        if entry == "local":
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                dict.fromkeys(self._sys_path())
            )
            process = subprocess.Popen(
                [sys.executable] + self._worker_command(shard_id),
                env=env,
            )
        else:  # ssh:HOST — the remote python must have repro installed
            process = subprocess.Popen(
                ["ssh", entry[len("ssh:"):], "python3"]
                + self._worker_command(shard_id)
            )
        if shard_id in self.processes:
            self._reap.append(self.processes[shard_id])
        self.processes[shard_id] = process

    @staticmethod
    def _sys_path() -> List[str]:
        return [entry or os.getcwd() for entry in sys.path]

    def _accept(
        self, unclaimed: Set[int], recover_barrier: Optional[int] = None
    ) -> None:
        """The one accept loop: hand every slot in ``unclaimed`` to a
        connection that completes the handshake — the whole fleet at
        assembly, a dead worker's slot during recovery (``recover_barrier``
        set: the newcomer is greeted with RECOVER instead of WELCOME).

        Garbage and stale/duplicate claims are turned away and the slot
        stays open; version/fingerprint mismatches are run-fatal; so is
        an open slot's spawned process exiting non-zero, and the deadline.
        """
        deadline = time.monotonic() + self.timeout
        self.listener.settimeout(0.2)
        while unclaimed:
            if recover_barrier is not None:
                # Recovery only: the surviving fleet is parked at a barrier
                # and must keep getting PONGs while the slot refills.  At
                # assembly nobody is parked, and an early worker's first
                # SYNC may already be buffered — reading it here would be
                # "out of turn"; it must wait for the first collect.
                self._pump(set(), {}, {}, recover_barrier, wait=0.0)
            for shard_id in sorted(unclaimed):
                process = self.processes.get(shard_id)
                code = process.poll() if process is not None else None
                if code is not None and code != 0:
                    raise SimulationError(
                        f"tcp worker process for shard {shard_id} exited "
                        f"with code {code} before completing its handshake"
                    )
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"tcp coordinator timed out after {self.timeout:.0f}s "
                    f"({TCP_TIMEOUT_ENV}) waiting for workers to claim "
                    f"shards {sorted(unclaimed)}"
                )
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            # HELLO is read under the heartbeat interval, not the full
            # deadline: a connection that says nothing must not hold the
            # loop past the point where parked workers miss their PONGs.
            _configure(conn, heartbeat_interval(self.timeout))
            self._handshake(conn, unclaimed, recover_barrier)

    def _reject(
        self,
        conn: socket.socket,
        message: Optional[str],
        quarantined: bool = False,
    ) -> None:
        """Turn a connection away (with an ERROR frame when there is
        something to say); ``quarantined`` counts it as a stale or stray
        connection that dialed in while a dead slot was refilling."""
        if message is not None:
            try:
                send_frame(conn, _K_ERROR, message.encode("utf-8"))
            except OSError:
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - close races
            pass
        self.rejected += 1
        if quarantined:
            self.faults["quarantined_connections"] += 1

    def _handshake(
        self,
        conn: socket.socket,
        unclaimed: set,
        recover_barrier: Optional[int] = None,
    ) -> None:
        """One connection through HELLO → WELCOME/RECOVER → JOB → READY.

        During recovery (``recover_barrier`` set) ``unclaimed`` holds
        only the dead slot: any other claim — a stale duplicate of a
        live worker included — is rejected and quarantined.
        """
        recovering = recover_barrier is not None
        context = "tcp coordinator handshaking a new connection"
        try:
            kind, payload = recv_frame(conn, context)
            hello = json.loads(payload.decode("utf-8"))
        except (SimulationError, ValueError, UnicodeDecodeError):
            # Garbage, truncation, or silence: not a worker — drop the
            # connection, keep the slot open.
            self._reject(conn, None, recovering)
            return
        if kind != _K_HELLO or not isinstance(hello, dict):
            self._reject(conn, "expected a HELLO frame", recovering)
            return
        conn.settimeout(self.timeout)  # it speaks: the full read deadline
        version = hello.get("version")
        if version != PROTOCOL_VERSION:
            message = (
                f"tcp protocol version mismatch: worker speaks {version}, "
                f"coordinator speaks {PROTOCOL_VERSION}"
            )
            self._reject(conn, message)
            raise SimulationError(message)
        claim = int(hello.get("shard", -1))
        if claim == -1 and unclaimed:
            claim = min(unclaimed)
        if claim not in unclaimed:
            self._reject(
                conn,
                f"shard id {claim} is already claimed or out of range "
                f"(open slots: {sorted(unclaimed)})",
                recovering,
            )
            return
        welcome = {
            "version": PROTOCOL_VERSION,
            "shard": claim,
            "fingerprint": self._fingerprint,
            "sys_path": self._sys_path(),
        }
        if recovering:
            welcome["barrier"] = recover_barrier
        send_frame(
            conn,
            _K_RECOVER if recovering else _K_WELCOME,
            json.dumps(welcome).encode("utf-8"),
        )
        send_frame(conn, _K_JOB, self._job_blob)
        context = f"tcp coordinator awaiting READY from shard {claim}"
        kind, payload = recv_frame(conn, context)
        if kind == _K_ERROR:
            raise SimulationError(
                f"tcp worker for shard {claim} failed its handshake: "
                + payload.decode("utf-8", "replace")
            )
        if kind != _K_READY:
            self._reject(conn, f"expected READY, got frame kind {kind}")
            return
        ready = json.loads(payload.decode("utf-8"))
        if ready.get("fingerprint") != self._fingerprint:
            message = (
                f"config fingerprint mismatch: worker for shard {claim} "
                f"computed {ready.get('fingerprint')}, coordinator has "
                f"{self._fingerprint} — the fleet disagrees about the "
                "scenario"
            )
            self._reject(conn, message)
            raise SimulationError(message)
        unclaimed.discard(claim)
        self.connections[claim] = conn

    # -- the supervision pump ------------------------------------------------

    def _quarantine(self, shard_id: int, reason: str) -> None:
        """Close and forget a dead (or misbehaving) worker connection so
        no later read can confuse its leftovers with live traffic;
        ``reason`` is what the next wait on that shard reports."""
        self._failed[shard_id] = reason
        conn, self.connections[shard_id] = self.connections[shard_id], None
        try:
            conn.close()
        except Exception:  # pragma: no cover - close races
            pass

    def _pump(
        self,
        pending: Set[int],
        results: Dict[int, Tuple[int, Any]],
        last_seen: Dict[int, float],
        barrier: int,
        wait: float,
    ) -> None:
        """One supervision pass over the whole fleet — the only place a
        worker connection is read once its handshake is done.

        Selects (for up to ``wait`` seconds) over every live connection.
        A PING, from anyone, is answered with a PONG and refreshes that
        shard's ``last_seen`` clock.  A protocol frame from a shard in
        ``pending`` moves it to ``results`` (an ERROR's text decoded, any
        kind but SYNC/DONE/ERROR turned into one).  A connection that yields
        EOF or garbage, and a protocol frame from a shard nobody awaits,
        are quarantined — the barrier wait turns that into the shard's
        ``_K_DEAD`` result now or whenever it is next awaited.
        """
        live = {
            conn: shard_id
            for shard_id, conn in enumerate(self.connections)
            if conn is not None
        }
        try:
            readable, _, _ = select.select(list(live), [], [], wait)
        except (OSError, ValueError):  # pragma: no cover - close races
            return
        now = time.monotonic()
        for conn in readable:
            shard_id = live[conn]
            try:
                kind, payload = recv_frame(
                    conn,
                    f"tcp coordinator waiting on shard {shard_id} "
                    f"at barrier {barrier}",
                )
            except SimulationError as exc:
                self._quarantine(
                    shard_id,
                    f"worker {shard_id} died mid-window "
                    f"(no sync/done/error message: {exc})",
                )
                continue
            if kind == _K_PING:
                self.faults["heartbeats"] += 1
                if shard_id in last_seen:
                    last_seen[shard_id] = now
                try:
                    send_frame(conn, _K_PONG)
                except OSError:
                    pass
            elif shard_id not in pending:
                self._quarantine(
                    shard_id,
                    f"worker {shard_id} sent unexpected frame kind {kind} "
                    "out of turn",
                )
            else:
                pending.discard(shard_id)
                if kind == _K_ERROR:
                    payload = payload.decode("utf-8", "replace")
                elif kind not in (_K_SYNC, _K_DONE):
                    kind, payload = _K_ERROR, (
                        f"worker {shard_id} sent unexpected frame kind "
                        f"{kind} at barrier {barrier}"
                    )
                results[shard_id] = (kind, payload)

    def _await_frames(
        self, awaiting: Set[int], barrier: int
    ) -> Dict[int, Tuple[int, Any]]:
        """One protocol frame from every awaited shard, pumping the whole
        fleet's heartbeats meanwhile.

        A shard whose connection is quarantined — before this wait, by a
        pump pass, or here because it produced *no* frame at all, not
        even a heartbeat, for the read deadline — comes back as the
        ``_K_DEAD`` sentinel with the died-mid-window message, for the
        supervision loop to recover or surface.
        """
        results: Dict[int, Tuple[int, Any]] = {}
        pending = set(awaiting)
        last_seen = dict.fromkeys(pending, time.monotonic())
        while True:
            now = time.monotonic()
            for shard_id in sorted(pending):
                if (
                    self.connections[shard_id] is not None
                    and now - last_seen[shard_id] > self.timeout
                ):
                    # A half-open socket.  A live shard in a long compute
                    # window keeps pinging and never lands here.
                    self._quarantine(
                        shard_id,
                        f"worker {shard_id} died mid-window "
                        "(no sync/done/error message: tcp coordinator "
                        f"waiting on shard {shard_id} at barrier {barrier}: "
                        f"no data within the {self.timeout:.0f}s deadline "
                        f"({TCP_TIMEOUT_ENV}))",
                    )
                if self.connections[shard_id] is None:
                    pending.discard(shard_id)
                    results[shard_id] = (
                        _K_DEAD,
                        self._failed.pop(
                            shard_id,
                            f"worker {shard_id} died mid-window "
                            "(connection already quarantined)",
                        ),
                    )
            if not pending:
                return results
            self._pump(pending, results, last_seen, barrier, wait=0.2)

    # -- in-run recovery -----------------------------------------------------

    def _recover(self, shard_id: int, reason: str, barrier: int) -> None:
        """Respawn a dead worker's slot and replay it to ``barrier``.

        Raises (after aborting the fleet) when recovery is impossible:
        no WAL to replay from — the graceful degradation to the
        pre-recovery loud abort, naming the missing checkpoint — or the
        respawn budget is spent, or the replacement itself fails.
        """
        self.faults["worker_deaths"] += 1
        failure = None
        if self.wal is None:
            failure = (
                f"{reason}; no WAL checkpoint to replay a replacement "
                "worker from — run with --wal PATH to enable in-run "
                "recovery"
            )
        elif self._respawn_budget <= 0:
            failure = (
                f"{reason}; worker respawn budget exhausted "
                f"({TCP_MAX_RESPAWNS_ENV}={tcp_max_respawns()})"
            )
        if failure is not None:
            abort_workers(self, range(self.num_shards), failure)
            raise SimulationError(f"tcp shard worker failed:\n{failure}")
        self._respawn_budget -= 1
        try:
            self._spawn_one(shard_id, self.hosts[shard_id])
            self._accept({shard_id}, recover_barrier=barrier)
            self._replay_prefix(shard_id, barrier)
        except SimulationError as exc:
            abort_workers(self, range(self.num_shards), str(exc))
            raise
        self.faults["respawns"] += 1

    def _replay_prefix(self, shard_id: int, barrier: int) -> None:
        """Re-feed the recovered worker the logged prefix up to (not
        including) ``barrier``.

        The newcomer re-executes the workload from scratch and cannot
        tell replay from live windows: its syncs are verified against
        the WAL's retained records (scalars field-by-field, frame blobs
        byte-for-byte — the same discipline as resume) and its decisions
        are rebuilt from the log through the live windows' own
        :func:`~repro.sim.barrier.verdict_for`, with the logged frame set
        as the routing grid.  Its outbound frames are discarded — the
        original recipients got them from the first incarnation.
        """
        for replay_barrier in range(barrier):
            record = self.wal.window_record(replay_barrier)
            kind, payload = self._await_frames(
                {shard_id}, replay_barrier
            )[shard_id]
            if kind in (_K_DEAD, _K_ERROR):
                raise SimulationError(
                    f"replacement worker for shard {shard_id} failed during "
                    f"WAL replay at window {replay_barrier}:\n{payload}"
                )
            if kind != _K_SYNC:
                raise SimulationError(
                    f"replacement worker for shard {shard_id} sent frame "
                    f"kind {kind} at replay window {replay_barrier}, "
                    "expected a sync"
                )
            # Any drift means the replacement is not the worker it claims
            # to be: die before it can touch the digest.
            status = pickle.loads(payload)
            verify_shard_window(
                record, shard_id, status.logged, status.blobs,
                prefix="RECOVER",
            )
            self.send_decision(
                shard_id,
                verdict_for(
                    shard_id, self.num_shards, record.window_start,
                    record.global_last, record.total_executed,
                    record.frames, record.control,
                ),
            )
            self.faults["replayed_windows"] += 1

    # -- the barrier loop's link --------------------------------------------

    def collect(self, barrier: int) -> List[Tuple[int, str, Any]]:
        """One barrier's worth of protocol frames from every shard,
        recovering dead workers in place when the WAL allows it."""
        awaiting = set(range(self.num_shards))
        round_messages: List[Tuple[int, str, Any]] = []
        while awaiting:
            results = self._await_frames(awaiting, barrier)
            awaiting = set()
            for shard_id in sorted(results):
                kind, payload = results[shard_id]
                if kind == _K_DEAD:
                    # _recover raises (after aborting the fleet) when the
                    # death cannot be healed; otherwise the slot is live
                    # and replayed to this barrier — re-await its live
                    # frame.
                    self._recover(shard_id, payload, barrier)
                    awaiting.add(shard_id)
                elif kind in (_K_SYNC, _K_DONE):
                    round_messages.append((
                        shard_id,
                        "sync" if kind == _K_SYNC else "done",
                        pickle.loads(payload),
                    ))
                else:
                    round_messages.append((shard_id, "error", payload))
        return round_messages

    def send_decision(self, shard_id: int, verdict: Verdict) -> None:
        conn = self.connections[shard_id]
        if conn is None:
            return
        try:
            send_frame(
                conn,
                _K_DECISION,
                pickle.dumps(verdict, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except OSError:
            # The worker died after syncing; its next read slot surfaces
            # the loud died-mid-window error (or the supervision loop
            # recovers it).
            pass

    def abort(self, shard_id: int, failure: str) -> None:
        conn = self.connections[shard_id]
        if conn is not None:
            send_frame(conn, _K_ABORT, failure.encode("utf-8"))

    def run(self, workload: Any) -> Tuple[List[tuple], int, Counter]:
        """Assemble the fleet and drive the run through the shared barrier
        loop, with the supervision pump wrapped around every read."""
        self.bind()
        wal = self.wal
        plane = self.plane
        self._job_blob = pickle.dumps(
            {
                "config": self.config,
                "workload": workload,
                "num_shards": self.num_shards,
                "lookahead": self.lookahead,
                "snapshot": plane.snapshot if plane is not None else None,
                "wal_cadence": wal.cursor_every if wal is not None else 0,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._fingerprint = fingerprint_digest(self.config)
        try:
            for shard_id, entry in enumerate(self.hosts):
                self._spawn_one(shard_id, entry)
            self._accept(set(range(self.num_shards)))
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
            if conn is None:
                continue
            try:
                send_frame(conn, _K_BYE)
            except Exception:
                pass
            try:
                conn.close()
            except Exception:  # pragma: no cover - close races
                pass
        if self.listener is not None:
            try:
                self.listener.close()
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
    plane: Any = None,
    wal: Any = None,
) -> Tuple[List[tuple], int, Counter]:
    """The ``executor="tcp"`` runner (the :func:`_run_mp` signature)."""
    return TcpCoordinator(
        config, num_shards, lookahead, plane=plane, wal=wal
    ).run(workload)
