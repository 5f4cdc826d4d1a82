"""The tcp executor's wire protocol, handshake, and failure modes.

Five layers of coverage:

- framing — length-prefixed frame round trips (property fuzz), and loud
  rejection of garbage magic, truncated headers, short payload reads,
  absurd lengths, and silent peers (per-read deadlines);
- connection robustness — the capped-exponential backoff schedule and
  ``connect_with_retry`` giving up loudly after ``REPRO_TCP_RETRIES``;
- handshake and supervision — event scripts against the sans-IO
  ``Supervisor`` on a fake clock: version and config-fingerprint
  mismatches are run-fatal, duplicate/out-of-range shard claims and
  garbage connections are rejected while the slot stays open, deaths are
  recovered or stashed; the shell driving it over real sockets keeps
  parked workers answered while a slot refills;
- placement — a forked ``local`` worker holds none of the coordinator's
  sockets and fails its handshake loudly when it raises, and a ``wait``
  slot takes ``python -m repro.cli worker`` in a fresh interpreter;
- fault injection — a worker killed mid-window (``os._exit``) and a
  half-open socket both surface ``died mid-window`` within the deadline
  with full coordinator teardown (no hang, no orphan sockets, processes
  reaped), and a tcp checkpoint chopped mid-log resumes to the
  never-crashed digest.

The byte-identity contract itself (tcp ≡ mp ≡ serial ≡ unsharded) lives
in ``test_shard_equivalence.py``.
"""

import json
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.barrier import SyncStatus
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import ScenarioConfig
from repro.sim.shard import ShardedScenario
from repro.sim.tcpexec import (
    _K_ERROR,
    _K_HELLO,
    _K_JOB,
    _K_PING,
    _K_PONG,
    _K_READY,
    _K_RECOVER,
    _K_SYNC,
    _K_WELCOME,
    _MAX_FRAME,
    _WIRE_HEADER,
    _WIRE_MAGIC,
    PROTOCOL_VERSION,
    TCP_RETRIES_ENV,
    TCP_TIMEOUT_ENV,
    TCP_MAX_RESPAWNS_ENV,
    Supervisor,
    TcpCoordinator,
    backoff_schedule,
    connect_with_retry,
    fingerprint_digest,
    heartbeat_interval,
    parse_address,
    parse_hosts,
    recv_frame,
    send_frame,
    worker_main,
)
from repro.sim.wal import WalReader, WindowRecord
from determinism_fixtures import truncate_wal


def _config(num_peers, shards, **overrides):
    options = dict(
        num_peers=num_peers,
        overlay="fullmesh",
        churn="none",
        rng_mode="perpeer",
        jitter_floor=0.5,
        shards=shards,
        shard=ShardSpec(num_peers=num_peers),
        seed=5,
    )
    options.update(overrides)
    return ScenarioConfig(**options)


class _StormWorkload:
    """The test_wal storm as a picklable class: every peer broadcasts 16
    batches to all others, so every window carries cross-shard frames."""

    def __call__(self, scenario):
        network = scenario.network
        for address in range(8):  # an unregistered source's broadcast is refused
            scenario.register_peer(address, lambda message: None)
        for src in range(8):
            if scenario.owns(src):
                dsts = [d for d in range(8) if d != src]
                for _ in range(16):
                    network.broadcast_block(src, dsts, "storm", None, 256)
        scenario.simulator.run_until_idle()
        return None


class _CrashingWorkload:
    """The storm plus one timer on peer 1's shard that either kills the
    worker process hard (``die=True``) or does nothing — scheduled in
    both runs so the kernel's sequence cursor stays comparable."""

    def __init__(self, die):
        self.die = die

    def __call__(self, scenario):
        if scenario.owns(1):
            die = self.die
            scenario.simulator.schedule_at(
                1.6, (lambda: os._exit(3)) if die else (lambda: None)
            )
        return _StormWorkload()(scenario)


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def test_frame_round_trip_property_fuzz():
    """Random (kind, payload) frames survive the wire byte for byte,
    including empty and multi-chunk payloads."""
    import random

    rng = random.Random(0x7C9)
    a, b = _pair()
    try:
        for _ in range(50):
            kind = rng.randrange(1, 11)
            payload = bytes(
                rng.getrandbits(8) for _ in range(rng.choice((0, 1, 7, 400)))
            ) + (b"\x00" * rng.choice((0, 0, 65536)))
            send_frame(a, kind, payload)
            got_kind, got_payload = recv_frame(b, "fuzz")
            assert got_kind == kind
            assert got_payload == payload
    finally:
        a.close()
        b.close()


def test_bad_magic_rejected():
    a, b = _pair()
    try:
        a.sendall(struct.pack("<IBI", 0xDEADBEEF, 1, 0))
        with pytest.raises(SimulationError, match="bad frame magic"):
            recv_frame(b, "garbage")
    finally:
        a.close()
        b.close()


def test_absurd_length_rejected():
    a, b = _pair()
    try:
        a.sendall(struct.pack("<IBI", _WIRE_MAGIC, 1, _MAX_FRAME + 1))
        with pytest.raises(SimulationError, match="exceeds"):
            recv_frame(b, "oversize")
    finally:
        a.close()
        b.close()


def test_truncated_header_rejected():
    a, b = _pair()
    try:
        a.sendall(b"\x01\x02\x03")
        a.close()
        with pytest.raises(SimulationError, match="connection closed"):
            recv_frame(b, "truncated header")
    finally:
        b.close()


def test_short_payload_read_rejected():
    """A header promising more bytes than ever arrive is a dead peer, and
    the error says how far the read got."""
    a, b = _pair()
    try:
        a.sendall(_WIRE_HEADER.pack(_WIRE_MAGIC, 1, 100) + b"x" * 10)
        a.close()
        with pytest.raises(SimulationError, match=r"10 of 100 bytes"):
            recv_frame(b, "short payload")
    finally:
        b.close()


def test_silent_peer_hits_the_read_deadline():
    a, b = _pair()
    b.settimeout(0.2)
    try:
        start = time.monotonic()
        with pytest.raises(SimulationError, match=TCP_TIMEOUT_ENV):
            recv_frame(b, "silent peer")
        assert time.monotonic() - start < 2.0
    finally:
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# Connect retry / backoff.
# ---------------------------------------------------------------------------


def test_backoff_schedule_is_capped_exponential():
    assert backoff_schedule(8) == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]
    assert backoff_schedule(1) == []
    assert backoff_schedule(3, base=0.01, cap=0.015) == [0.01, 0.015]


def test_backoff_jitter_is_seeded_and_bounded():
    """Seeded jitter scales each delay into [0.5, 1.0) of the unjittered
    value — reproducible per seed, spread across seeds, and the default
    (unseeded) schedule stays exactly the historical one."""
    base = backoff_schedule(8)
    jittered = backoff_schedule(8, jitter_seed=7)
    assert jittered == backoff_schedule(8, jitter_seed=7)
    assert all(
        0.5 * delay <= value < delay
        for value, delay in zip(jittered, base)
    )
    assert jittered != backoff_schedule(8, jitter_seed=8)
    assert backoff_schedule(8, jitter_seed=None) == base


def test_connect_with_retry_gives_up_loudly():
    """A dead port exhausts the retry budget and the error names the
    attempt count and its knob."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()  # nothing listens here now
    start = time.monotonic()
    with pytest.raises(SimulationError) as excinfo:
        connect_with_retry(host, port, retries=3, timeout=1.0)
    assert "3 attempts" in str(excinfo.value)
    assert TCP_RETRIES_ENV in str(excinfo.value)
    assert time.monotonic() - start < 5.0


def test_connect_with_retry_succeeds_once_listener_is_up():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]
    try:
        sock = connect_with_retry(host, port, retries=2, timeout=2.0)
        sock.close()
    finally:
        listener.close()


# ---------------------------------------------------------------------------
# Address / hosts specs and the config fingerprint.
# ---------------------------------------------------------------------------


def test_parse_address():
    assert parse_address("10.0.0.7:9001") == ("10.0.0.7", 9001)
    assert parse_address("9001") == ("127.0.0.1", 9001)
    with pytest.raises(ConfigurationError, match="HOST:PORT"):
        parse_address("nonsense")
    assert parse_address("host:1") == ("host", 1)
    assert parse_address("host:65535") == ("host", 65535)
    # getaddrinfo would wrap 70000 to 4464 and dial the wrong port
    for spec in ("host:70000", "host:65536", "host:0", "host:-1"):
        with pytest.raises(ConfigurationError, match=f"{spec!r}.*1-65535"):
            parse_address(spec)


def test_parse_hosts_broadcast_and_per_shard():
    assert parse_hosts(None, 3) == ["local", "local", "local"]
    assert parse_hosts("wait", 2) == ["wait", "wait"]
    assert parse_hosts("local, wait", 2) == ["local", "wait"]
    assert parse_hosts("ssh:alpha,ssh:beta", 2) == ["ssh:alpha", "ssh:beta"]
    with pytest.raises(ConfigurationError, match="2 workers"):
        parse_hosts("local,wait", 3)
    with pytest.raises(ConfigurationError, match="unknown tcp hosts entry"):
        parse_hosts("docker:x", 1)
    with pytest.raises(ConfigurationError, match="empty entry"):
        parse_hosts("local,,wait", 3)


def test_fingerprint_excludes_placement_but_not_physics():
    """Where workers run never changes scenario identity; the seed does."""
    base = _config(8, shards=2)
    moved = _config(
        8, shards=2, executor="tcp", tcp_hosts="wait", tcp_port=9001,
        wal="/tmp/x.wal", faults="seed=7,crash",
    )
    reseeded = _config(8, shards=2, seed=6)
    assert fingerprint_digest(base) == fingerprint_digest(moved)
    assert fingerprint_digest(base) != fingerprint_digest(reseeded)


# ---------------------------------------------------------------------------
# Handshake: fatal mismatches vs rejected connections, as event scripts
# against the supervision machine on a fake clock.
# ---------------------------------------------------------------------------


class _Clock:
    """The supervisor's injected clock, moved by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _machine(shards=2, window_records=None, respawns=3, timeout=4.0):
    """A :class:`Supervisor` on a fake clock, announcing fingerprint
    ``"fp"``; ``window_records`` stands in for the WAL (None: no WAL)."""
    clock = _Clock()
    return Supervisor(
        shards, timeout, respawns, window_records, clock, fingerprint="fp"
    ), clock


def _hello(machine, conn, shard, version=PROTOCOL_VERSION, forked=True):
    """``conn`` dials in and says HELLO; returns the supervisor's answer."""
    assert machine.opened(conn) == []
    hello = {"version": version, "shard": shard, "forked": forked}
    return machine.frame(conn, _K_HELLO, json.dumps(hello).encode())


def _ready(machine, conn, shard, fingerprint="fp"):
    ready = {"shard": shard, "fingerprint": fingerprint}
    return machine.frame(conn, _K_READY, json.dumps(ready).encode())


def _joined(machine, conn, shard):
    """A full handshake; returns the READY's actions."""
    greeting = _hello(machine, conn, shard)
    assert [action[:3] for action in greeting] == [
        ("send", conn,
         _K_RECOVER if shard in machine.replaying else _K_WELCOME)
    ]
    return _ready(machine, conn, shard)


def _sync(machine, shard, payload="sync"):
    return machine.frame(shard, _K_SYNC, pickle.dumps(payload))


def _turned_away(actions, conn, text=None):
    """``actions`` drop ``conn``, with an ERROR frame containing ``text``."""
    if text is None:
        assert actions == [("close", conn)]
    else:
        (verb, to, kind, payload), close = actions
        assert (verb, to, kind) == ("send", conn, _K_ERROR)
        assert close == ("close", conn)
        assert text.encode() in payload


def test_version_mismatch_is_run_fatal():
    machine, _ = _machine(shards=1)
    machine.assemble({})
    *rejection, abort = _hello(machine, "skewed", 0, version=99)
    _turned_away(rejection, "skewed", "version mismatch")
    assert abort[0] == "abort" and "version mismatch" in abort[2]


def test_fingerprint_mismatch_is_run_fatal():
    machine, _ = _machine(shards=1)
    machine.assemble({"config": "c"})
    welcome, job = _hello(machine, "w", 0, forked=False)
    assert welcome[:3] == ("send", "w", _K_WELCOME)
    assert json.loads(welcome[3]) == {
        "version": PROTOCOL_VERSION, "fingerprint": "fp", "sys_path": [],
        "shard": 0,
    }
    assert job == ("send", "w", _K_JOB, pickle.dumps(
        {"config": "c"}, protocol=pickle.HIGHEST_PROTOCOL
    ))
    *rejection, abort = _ready(machine, "w", 0, "not-the-fingerprint")
    _turned_away(rejection, "w", "fingerprint mismatch")
    assert abort[0] == "abort" and "fingerprint mismatch" in abort[2]


def test_duplicate_claim_rejected_and_slot_stays_open():
    """A second claim on a taken shard, an out-of-range claim and a claim
    that is no integer at all each get an ERROR and a closed connection;
    the fleet still assembles.  Two workers claiming one slot at once
    both get a WELCOME, and the first READY wins it."""
    machine, _ = _machine(shards=2)
    assert machine.assemble({}) == [("spawn", 0), ("spawn", 1)]
    assert _joined(machine, "first", 0) == [("bind", "first", 0)]
    _turned_away(
        _hello(machine, "duplicate", 0), "duplicate",
        "already claimed or out of range",
    )
    _turned_away(
        _hello(machine, "out-of-range", 7), "out-of-range",
        "already claimed or out of range",
    )
    for claim in ("x", None, [1], True, 1.0):
        _turned_away(
            _hello(machine, repr(claim), claim), repr(claim),
            "is not an integer",
        )
    assert _hello(machine, "rival", 1)[0][2] == _K_WELCOME
    assert _hello(machine, "second", 1)[0][2] == _K_WELCOME
    assert _ready(machine, "second", 1) == [
        ("bind", "second", 1), ("done", [])
    ]
    _turned_away(_ready(machine, "rival", 1), "rival", "already claimed")
    assert machine.rejected == 8
    # only the rival counts as quarantined: it was turned away once the
    # fleet was up
    assert machine.faults["quarantined_connections"] == 1


def test_unnumbered_workers_claim_distinct_slots():
    """Workers started without ``--shard`` claim -1: concurrent ones are
    offered different open slots."""
    machine, _ = _machine(shards=2)
    machine.assemble({})
    offers = [
        json.loads(_hello(machine, conn, -1)[0][3])["shard"]
        for conn in ("a", "b")
    ]
    assert offers == [0, 1]
    assert _ready(machine, "b", 1) == [("bind", "b", 1)]
    assert _ready(machine, "a", 0) == [("bind", "a", 0), ("done", [])]


def test_garbage_connection_rejected_fleet_still_assembles():
    """Noise on the port, a connection that falls silent, and a worker
    that says HELLO and then closes, or sends anything but READY, are
    dropped without burning a shard slot."""
    machine, clock = _machine(shards=1)
    machine.assemble({})
    machine.opened("noise")
    _turned_away(machine.closed("noise", "bad frame magic"), "noise")
    machine.opened("not json")
    _turned_away(
        machine.frame("not json", _K_HELLO, b"\xff{"), "not json",
        "expected a HELLO frame",
    )
    machine.opened("silent")
    clock.now = heartbeat_interval(4.0)
    _turned_away(machine.expire(), "silent")
    _hello(machine, "hung-up", 0)
    _turned_away(machine.closed("hung-up", "connection closed"), "hung-up")
    _hello(machine, "chatty", 0)
    _turned_away(
        machine.frame("chatty", _K_PING, b""), "chatty", "expected READY"
    )
    assert machine.open == {0: 4.0}
    assert _joined(machine, "worker", 0) == [
        ("bind", "worker", 0), ("done", [])
    ]
    assert machine.rejected == 5


def test_worker_rejects_coordinator_version_skew():
    """The worker side of the version check: a WELCOME speaking another
    protocol version is fatal, and the worker reports it back."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]
    seen = {}

    def fake_coordinator():
        conn, _ = listener.accept()
        conn.settimeout(5.0)
        kind, payload = recv_frame(conn, "fake coordinator")
        seen["hello"] = (kind, json.loads(payload.decode()))
        send_frame(
            conn, _K_WELCOME,
            json.dumps(
                {"version": 99, "shard": 0, "fingerprint": "x", "sys_path": []}
            ).encode(),
        )
        kind, payload = recv_frame(conn, "fake coordinator awaiting error")
        seen["reply"] = (kind, payload)
        conn.close()

    thread = threading.Thread(target=fake_coordinator, daemon=True)
    thread.start()
    with pytest.raises(SimulationError, match="version mismatch"):
        worker_main(host, port, shard=0, retries=1, timeout=5.0)
    thread.join(timeout=5.0)
    listener.close()
    assert seen["hello"][0] == _K_HELLO
    assert seen["reply"][0] == _K_ERROR
    assert b"version mismatch" in seen["reply"][1]


# ---------------------------------------------------------------------------
# Supervision: the machine's rounds, deadlines and recoveries, then the
# shell driving them over real sockets (no subprocesses).
# ---------------------------------------------------------------------------


def test_assembly_never_reads_a_protocol_frame():
    """An early worker's first SYNC may come in before the fleet is
    complete: it is the first collect's result, never quarantined as out
    of turn.  Its heartbeats are answered meanwhile."""
    machine, _ = _machine(shards=2)
    machine.assemble({})
    _joined(machine, "early", 0)
    assert _sync(machine, 0, "first sync") == []
    assert machine.frame(0, _K_PING, b"") == [("send", 0, _K_PONG, b"")]
    assert _joined(machine, "late", 1) == [
        ("bind", "late", 1), ("done", [(0, "sync", "first sync")])
    ]
    assert machine.collect(0) == []
    assert _sync(machine, 1, "second sync") == [("done", [
        (0, "sync", "first sync"), (1, "sync", "second sync")
    ])]
    assert machine.faults == {"heartbeats": 1}


def test_a_half_open_shard_is_caught_by_its_deadline():
    """An awaited shard that sends nothing, not even a heartbeat, for the
    read deadline is dead; one that pings is not, however long it
    computes."""
    machine, clock = _machine(shards=2)
    assert machine.collect(0) == []
    assert machine.deadline() == 4.0
    clock.now = 3.5
    machine.frame(0, _K_PING, b"")
    assert machine.expire() == []
    clock.now = 4.0
    close, (verb, failure, report) = machine.expire()
    assert (close, verb) == (("close", 1), "abort")
    assert "worker 1 died mid-window" in failure
    assert "no data within the 4s deadline" in failure
    assert report.startswith("tcp shard worker failed:\n")


@pytest.mark.parametrize("misbehaviour", ("out-of-turn frame", "death"))
def test_non_awaited_shard_failure_is_stashed_until_awaited(misbehaviour):
    """Shard 1 speaking out of turn (or dying) after its sync — in a round,
    or early, while the fleet still assembles — is quarantined at once but
    surfaces, recovered with its reason, only when the next round awaits
    it, and only once."""
    def script(machine, assembling):
        if assembling:
            machine.assemble({})
            _joined(machine, "one", 1)
        else:
            assert machine.collect(0) == []
        assert _sync(machine, 1) == []
        if misbehaviour == "death":
            actions = machine.closed(1, "connection closed")
        else:
            actions = _sync(machine, 1, "too early")
        assert actions == [("close", 1)]
        if assembling:
            _joined(machine, "zero", 0)
            assert machine.collect(0) == []
        assert _sync(machine, 0)[-1][0] == "done"
        return machine.collect(1)

    reason = (
        "worker 1 died mid-window" if misbehaviour == "death" else
        f"worker 1 sent unexpected frame kind {_K_SYNC} out of turn"
    )
    for assembling in (False, True):
        machine, _ = _machine()
        (verb, failure, _), = script(machine, assembling)
        assert verb == "abort" and reason in failure
        assert "no WAL checkpoint" in failure

        machine, _ = _machine(window_records=lambda stop: [])
        assert script(machine, assembling) == [("spawn", 1)]
        assert machine.faults["worker_deaths"] == 1
        assert _joined(machine, "replacement", 1) == [
            ("bind", "replacement", 1)
        ]
        _sync(machine, 0)
        assert _sync(machine, 1)[-1][0] == "done"
        assert machine.collect(2) == []  # surfaced once
        assert machine.faults["worker_deaths"] == 1
        assert machine.faults["respawns"] == 1


def test_recovery_aborts_with_todays_messages():
    """No WAL names the missing checkpoint; a spent budget names its knob;
    a replacement dying mid-replay names the window."""
    machine, _ = _machine()
    machine.collect(0)
    (verb, failure, report), = machine.closed(1, "gone")[1:]
    assert failure == (
        "worker 1 died mid-window (no sync/done/error message: gone); no WAL "
        "checkpoint to replay a replacement worker from — run with --wal "
        "PATH to enable in-run recovery"
    )
    assert report == f"tcp shard worker failed:\n{failure}"

    machine, _ = _machine(window_records=lambda stop: [], respawns=1)
    machine.collect(0)
    assert machine.closed(1, "gone") == [("close", 1), ("spawn", 1)]
    _joined(machine, "replacement", 1)
    (verb, failure, report), = machine.closed(1, "gone again")[1:]
    assert f"worker respawn budget exhausted ({TCP_MAX_RESPAWNS_ENV}=1)" in (
        failure
    )
    assert machine.faults["respawns"] == 1
    assert machine.faults["worker_deaths"] == 2

    machine, _ = _machine(window_records=lambda stop: ["w0", "w1"][:stop])
    machine.collect(2)
    machine.closed(1, "gone")
    _joined(machine, "replacement", 1)
    (verb, failure, _), = machine.closed(1, "eof")[1:]
    assert failure.startswith(
        "replacement worker for shard 1 failed during WAL replay at window 0"
    )


class _NoWindows:
    """A WAL with nothing logged yet: a worker recovered at barrier 0 has
    no window to replay."""

    @staticmethod
    def window_records(stop):
        assert stop == 0
        return []


def _parked(coordinator, shard_id):
    """Install one end of a socketpair as shard ``shard_id``'s live
    connection; returns the scripted worker's end."""
    ours, theirs = _pair()
    coordinator.connections[shard_id] = ours
    return theirs


def _handshake_client(host, port, shard, version=PROTOCOL_VERSION,
                      greeting=_K_WELCOME):
    """A scripted worker: HELLO → WELCOME → JOB → READY (parroting the
    announced fingerprint).  Returns the open socket.  A replacement
    worker expects ``greeting=_K_RECOVER``."""
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.settimeout(5.0)
    send_frame(
        sock, _K_HELLO,
        json.dumps({"version": version, "shard": shard}).encode(),
    )
    kind, payload = recv_frame(sock, "client awaiting welcome")
    if kind == _K_ERROR:
        return sock, kind, payload
    assert kind == greeting
    welcome = json.loads(payload.decode())
    kind, job = recv_frame(sock, "client awaiting job")
    assert kind == _K_JOB
    send_frame(
        sock, _K_READY,
        json.dumps(
            {"shard": welcome["shard"], "fingerprint": welcome["fingerprint"]}
        ).encode(),
    )
    return sock, greeting, payload


def _recovering(monkeypatch, timeout, hosts="wait"):
    """A coordinator collecting barrier 0 on a thread, its shard 0 parked
    (synced, waiting for the decision) and its shard 1 dead — so slot 1
    is open for a RECOVER handshake.  Returns the coordinator, the parked
    worker's socket, the thread and its outcome."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, str(timeout))
    config = _config(8, shards=2, executor="tcp", tcp_hosts=hosts)
    lookahead = ShardedScenario(config, executor="tcp").lookahead
    coordinator = TcpCoordinator(config, 2, lookahead, wal=_NoWindows)
    coordinator.bind()
    for shard_id, entry in enumerate(coordinator.hosts):  # as assembly did
        coordinator._spawn_one(shard_id, entry)
    parked, dead = _parked(coordinator, 0), _parked(coordinator, 1)
    send_frame(parked, _K_SYNC, pickle.dumps("parked"))
    dead.close()
    outcome = {}

    def collect():
        try:
            outcome["messages"] = coordinator.collect(0)
        except SimulationError as exc:
            outcome["error"] = str(exc)

    thread = threading.Thread(target=collect, daemon=True)
    thread.start()
    return coordinator, parked, thread, outcome


def _replaced(coordinator, thread, outcome):
    """The real replacement claims slot 1 and syncs: the round completes."""
    host, port = coordinator.address
    replacement, kind, payload = _handshake_client(
        host, port, 1, greeting=_K_RECOVER
    )
    assert kind == _K_RECOVER
    assert json.loads(payload.decode())["barrier"] == 0
    send_frame(replacement, _K_SYNC, pickle.dumps("replacement"))
    thread.join(timeout=10.0)
    assert outcome.get("messages") == [
        (0, "sync", "parked"), (1, "sync", "replacement")
    ], outcome
    assert coordinator.faults["respawns"] == 1
    return replacement


def test_silent_connection_during_recovery_cannot_starve_parked_workers(
    monkeypatch,
):
    """A stray connection that says nothing while a dead slot refills —
    before its HELLO, or after a valid one — never holds the loop: a
    parked worker's PING is answered within about one heartbeat interval,
    and the slot stays open for the real replacement."""
    for says_hello in (False, True):
        coordinator, parked, thread, outcome = _recovering(monkeypatch, 4)
        interval = heartbeat_interval(coordinator.timeout)
        assert interval == 1.0
        silent = socket.create_connection(coordinator.address, timeout=5.0)
        if says_hello:  # a valid claim on the open slot, then silence
            send_frame(silent, _K_HELLO, json.dumps(
                {"version": PROTOCOL_VERSION, "shard": 1}
            ).encode())
            assert recv_frame(silent, "silent claimant")[0] == _K_RECOVER
        time.sleep(0.4)  # unfixed, the loop is now blocked reading it
        start = time.monotonic()
        send_frame(parked, _K_PING)
        assert recv_frame(parked, "parked worker awaiting pong")[0] == _K_PONG
        # Unfixed, the PONG waits out the full 4s deadline.
        assert time.monotonic() - start < 2.0 * interval
        assert thread.is_alive() and not outcome, "the slot must stay open"
        if not says_hello:  # turned away once its HELLO interval ran out
            assert silent.recv(1) == b""
            assert coordinator.faults["quarantined_connections"] == 1
        replacement = _replaced(coordinator, thread, outcome)
        assert coordinator.faults["heartbeats"] == 1
        for sock in (silent, parked, replacement):
            sock.close()
        coordinator.close()


def test_garbage_hello_during_recovery_is_quarantined_exactly_once(
    monkeypatch,
):
    """Noise, a HELLO whose shard claim is no integer, a HELLO followed by
    EOF and a HELLO followed by anything but READY: each is turned away
    and counted as quarantined once, and the slot stays open."""
    coordinator, parked, thread, outcome = _recovering(monkeypatch, 10)
    host, port = coordinator.address
    noise = socket.create_connection((host, port), timeout=5.0)
    noise.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
    strays = []
    for claim, then in (("1", None), (1, "eof"), (1, _K_PING)):
        stray = socket.create_connection((host, port), timeout=5.0)
        stray.settimeout(5.0)
        strays.append(stray)
        send_frame(stray, _K_HELLO, json.dumps(
            {"version": PROTOCOL_VERSION, "shard": claim}
        ).encode())
        if then is None:
            assert recv_frame(stray, "stray claimant")[0] == _K_ERROR
            continue
        assert recv_frame(stray, "stray claimant")[0] == _K_RECOVER
        assert recv_frame(stray, "stray claimant")[0] == _K_JOB
        if then == "eof":
            stray.close()
            continue
        send_frame(stray, then)
        kind, payload = recv_frame(stray, "stray claimant")
        assert (kind, b"expected READY" in payload) == (_K_ERROR, True)
    assert thread.is_alive() and not outcome, "the slot must stay open"
    replacement = _replaced(coordinator, thread, outcome)
    assert coordinator.faults["quarantined_connections"] == 4
    for sock in (noise, parked, replacement, *strays):
        sock.close()
    coordinator.close()


class _FakeProcess:
    def __init__(self, code):
        self.code = code
        self.polls = 0

    def poll(self):
        self.polls += 1
        return self.code

    def wait(self, timeout=None):
        return self.code


def test_accept_loop_polls_only_the_current_process_per_slot(monkeypatch):
    """Respawning a slot moves the predecessor to the reap list: its
    non-zero exit code is the death being healed, not a failed handshake —
    but the *replacement* exiting non-zero still is."""
    import repro.sim.tcpexec as tcpexec

    corpse, replacement, broken = (
        _FakeProcess(3), _FakeProcess(None), _FakeProcess(7)
    )
    spawned = iter([corpse, replacement, broken])
    monkeypatch.setattr(
        tcpexec, "_ForkedWorker", lambda *args, **kwargs: next(spawned)
    )
    coordinator, parked, thread, outcome = _recovering(
        monkeypatch, 10, hosts="wait,local"
    )
    thread.join(timeout=0.5)  # a few polls with the corpse in the reap list
    assert thread.is_alive() and not outcome
    worker = _replaced(coordinator, thread, outcome)
    assert coordinator.processes == {1: replacement}
    assert coordinator._reap == [corpse]
    assert corpse.polls == 0 and replacement.polls > 0

    worker.close()  # dies again at barrier 1; its replacement exits 7
    coordinator.supervisor.window_records = lambda stop: []
    with pytest.raises(
        SimulationError,
        match="shard 1 exited with code 7 before completing its handshake",
    ):
        coordinator.collect(1)
    parked.close()
    coordinator.close()


# ---------------------------------------------------------------------------
# Worker placement: forked "local" workers and fresh-interpreter workers.
# ---------------------------------------------------------------------------


def _socket_inodes(pid):
    """The socket inodes among a process's open file descriptors."""
    fd_dir = f"/proc/{pid}/fd"
    inodes = set()
    for name in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, name))
        except OSError:  # closed while listing
            continue
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd"
)
def test_forked_workers_hold_no_coordinator_socket(tmp_path, monkeypatch):
    """A forked ``local`` worker drops its copies of the coordinator's
    listener and worker connections before it dials — checked once the
    fleet is assembled, and for a RECOVER replacement forked while its
    sibling's connection is live (a copy kept there would hide that
    connection's EOF from the sibling)."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    serve = TcpCoordinator._serve
    checks, fleets = [], []

    def checked_serve(self, actions):
        messages = serve(self, actions)
        fleet = sorted(map(id, self.processes.values()))
        if fleets and fleets[-1] == fleet:
            return messages  # checked once per fleet it assembled
        fleets.append(fleet)
        coordinator_side = {
            os.fstat(sock.fileno()).st_ino
            for sock in [self.listener, *self.connections]
            if sock is not None
        }
        assert len(coordinator_side) == 3  # the listener and two links
        for shard_id, worker in sorted(self.processes.items()):
            held = _socket_inodes(worker._process.pid)
            checks.append(
                (bool(self._reap), shard_id, held & coordinator_side)
            )
        return messages

    monkeypatch.setattr(TcpCoordinator, "_serve", checked_serve)
    run = ShardedScenario(
        _config(
            8, shards=2, executor="tcp", wal=str(tmp_path / "storm.wal"),
            faults="crash@1:1",
        )
    ).run(_StormWorkload())
    assert run.stats.faults["respawns"] == 1
    assert run.digest() == (
        ShardedScenario(_config(8, shards=2)).run(_StormWorkload()).digest()
    )
    assert [(recovery, shard) for recovery, shard, _ in checks] == [
        (False, 0), (False, 1), (True, 0), (True, 1)
    ]
    assert not [leak for *_, leak in checks if leak], checks


def test_forked_worker_raising_before_hello_fails_the_handshake(
    monkeypatch, capfd
):
    """An exception in a forked worker before it says HELLO leaves its
    traceback on stderr and exit code 1, which the accept loop reports at
    once — not after the assembly deadline."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    import repro.sim.tcpexec as tcpexec

    def broken(*args, **kwargs):
        raise RuntimeError("worker broke before dialling")

    monkeypatch.setattr(tcpexec, "worker_main", broken)
    start = time.monotonic()
    with pytest.raises(
        SimulationError,
        match="exited with code 1 before completing its handshake",
    ):
        ShardedScenario(
            _config(8, shards=2, executor="tcp")
        ).run(_StormWorkload())
    assert time.monotonic() - start < 10.0
    assert "RuntimeError: worker broke before dialling" in (
        capfd.readouterr().err
    )


def test_wait_slot_runs_repro_worker_in_a_fresh_interpreter(monkeypatch):
    """``python -m repro.cli worker`` end to end, under another hash seed:
    the CLI entry point passes ``--shard`` through, the job's workload
    class (defined in this test module) resolves through WELCOME's
    ``sys_path``, and the run lands on the serial reference's digest."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    import repro

    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        PYTHONHASHSEED=(
            "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        ),
    )
    # Started before the coordinator binds: the worker's connect retry
    # covers the gap.
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--connect", f"127.0.0.1:{port}", "--shard", "1",
        ],
        env=env,
    )
    try:
        run = ShardedScenario(
            _config(
                8, shards=2, executor="tcp", tcp_hosts="local,wait",
                tcp_port=port,
            )
        ).run(_StormWorkload())
        assert worker.wait(timeout=30.0) == 0
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    reference = ShardedScenario(_config(8, shards=2)).run(_StormWorkload())
    assert run.digest() == reference.digest()


# ---------------------------------------------------------------------------
# Fault injection: dead and half-open workers, and crash-consistent WALs.
# ---------------------------------------------------------------------------


def test_killed_worker_surfaces_died_mid_window(monkeypatch):
    """os._exit in a worker mid-window: a loud SimulationError well within
    the deadline, never a hang."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    start = time.monotonic()
    with pytest.raises(SimulationError, match="died mid-window"):
        ShardedScenario(
            _config(8, shards=2, executor="tcp")
        ).run(_CrashingWorkload(die=True))
    # The dead worker's socket closes on exit, so detection is EOF-fast —
    # far under even one read deadline.
    assert time.monotonic() - start < 30.0


def test_half_open_worker_surfaces_died_mid_window(monkeypatch):
    """A worker that handshakes then goes silent (half-open socket): the
    per-read deadline converts it into 'died mid-window', and teardown
    leaves no orphan sockets and no unreaped processes."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "5")
    config = _config(8, shards=2, executor="tcp", tcp_hosts="local,wait")
    lookahead = ShardedScenario(config, executor="tcp").lookahead
    coordinator = TcpCoordinator(config, 2, lookahead)
    host, port = coordinator.bind()
    outcome = {}

    def drive():
        try:
            coordinator.run(_StormWorkload())
        except SimulationError as exc:
            outcome["error"] = str(exc)

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    # Claim shard 1 with a full handshake, then never sync.
    half_open, kind, _ = _handshake_client(host, port, 1)
    assert kind == _K_WELCOME
    start = time.monotonic()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "coordinator hung on a half-open worker"
    assert "worker 1 died mid-window" in outcome["error"]
    assert time.monotonic() - start < 30.0
    # Full teardown: listener and per-worker sockets closed, spawned
    # worker processes reaped.
    assert coordinator.listener.fileno() == -1
    for conn in coordinator.connections:
        assert conn is None or conn.fileno() == -1
    assert set(coordinator.processes) == {0}
    for process in coordinator.processes.values():
        assert process.poll() is not None
    half_open.close()


@pytest.mark.parametrize("part", ("stats", "kernel", "rng"))
def test_recover_divergence_names_the_extras_part(part):
    """A replacement worker whose replayed sync drifts from the WAL dies
    on the shared logged-window verifier, which names what moved (the
    part of the probe extras, as resume does) under the RECOVER prefix."""
    logged = {"stats": {"counters": {"x": 1}}, "kernel": {"seq": 4},
              "rng": {"0:1": "state"}}
    replayed = dict(logged, **{part: {"moved": True}})
    record = WindowRecord(
        barrier=0, window_start=0.0, global_last=0.5, total_executed=3,
        statuses=[
            (1.0, 0.5, 2, [], pickle.dumps(logged)),
            (1.0, 0.5, 1, [], pickle.dumps(logged)),
        ],
        frames={(1, 0): b"frame"},
    )
    machine, _ = _machine(window_records=lambda stop: [record] * stop)
    machine.collect(1)
    assert machine.closed(1, "gone") == [("close", 1), ("spawn", 1)]
    assert _joined(machine, "replacement", 1) == [("bind", "replacement", 1)]
    sync = SyncStatus(
        1.0, 0.5, 1, float("inf"), [], pickle.dumps(replayed), [(0, b"frame")]
    )
    (verb, failure, _), = machine.frame(1, _K_SYNC, pickle.dumps(sync))
    assert verb == "abort"
    assert f"RECOVER divergence at window 0: shard 1 {part} cursors" in failure
    assert machine.faults["replayed_windows"] == 0


def test_tcp_checkpoint_chopped_midlog_resumes_to_reference(tmp_path):
    """Chop a tcp-written WAL mid-log (the crash simulator) and resume
    under tcp: the final digest equals the never-crashed run's."""
    reference = ShardedScenario(_config(8, shards=2)).run(_StormWorkload())
    wal = str(tmp_path / "storm.wal")
    full = ShardedScenario(
        _config(8, shards=2, executor="tcp", wal=wal)
    ).run(_StormWorkload())
    assert full.digest() == reference.digest()
    total = len(WalReader(wal).windows)
    assert total >= 3
    cut = str(tmp_path / "chopped.wal")
    truncate_wal(wal, total // 2, out_path=cut)
    assert WalReader(cut).commit is None
    resumed = ShardedScenario(
        _config(8, shards=2, executor="tcp", resume=cut)
    ).run(_StormWorkload())
    assert resumed.digest() == reference.digest()
    assert WalReader(cut).commit["digest"] == reference.digest()
