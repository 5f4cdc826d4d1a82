"""The tcp executor's wire protocol, handshake, and failure modes.

Four layers of coverage:

- framing — length-prefixed frame round trips (property fuzz), and loud
  rejection of garbage magic, truncated headers, short payload reads,
  absurd lengths, and silent peers (per-read deadlines);
- connection robustness — the capped-exponential backoff schedule and
  ``connect_with_retry`` giving up loudly after ``REPRO_TCP_RETRIES``;
- handshake — version and config-fingerprint mismatches are run-fatal,
  duplicate/out-of-range shard claims and garbage connections are
  rejected while the slot stays open for the real worker;
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
    _K_DEAD,
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
from repro.sim.wal import WalReader, WindowRecord, truncate_wal


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
                1.6, (lambda: os._exit(3)) if die else (lambda: None),
                label="die",
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
# Handshake: fatal mismatches vs rejected connections.
# ---------------------------------------------------------------------------


def _coordinator(shards=2, hosts="wait"):
    config = _config(8, shards=shards, executor="tcp", tcp_hosts=hosts)
    lookahead = ShardedScenario(config, executor="tcp").lookahead
    return TcpCoordinator(config, shards, lookahead)


def _accept_in_thread(coordinator, fingerprint, unclaimed=None, **recover):
    """Run the one accept loop (fleet assembly by default; a recovery
    accept with ``unclaimed``/``recover_barrier``) on a thread."""
    outcome = {}
    coordinator._job_blob = b"fake-job"
    coordinator._fingerprint = fingerprint
    if unclaimed is None:
        unclaimed = set(range(coordinator.num_shards))

    def accept():
        try:
            coordinator._accept(unclaimed, **recover)
            outcome["done"] = True
        except SimulationError as exc:
            outcome["error"] = str(exc)

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    return thread, outcome


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


def test_version_mismatch_is_run_fatal(monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "10")
    coordinator = _coordinator(shards=1)
    host, port = coordinator.bind()
    fingerprint = fingerprint_digest(coordinator.config)
    thread, outcome = _accept_in_thread(coordinator, fingerprint)
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.settimeout(5.0)
    send_frame(
        sock, _K_HELLO, json.dumps({"version": 99, "shard": 0}).encode()
    )
    kind, payload = recv_frame(sock, "skewed client")
    assert kind == _K_ERROR
    assert b"version mismatch" in payload
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert "version mismatch" in outcome["error"]
    sock.close()
    coordinator.close()


def test_fingerprint_mismatch_is_run_fatal(monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "10")
    coordinator = _coordinator(shards=1)
    host, port = coordinator.bind()
    fingerprint = fingerprint_digest(coordinator.config)
    thread, outcome = _accept_in_thread(coordinator, fingerprint)
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.settimeout(5.0)
    send_frame(
        sock, _K_HELLO,
        json.dumps({"version": PROTOCOL_VERSION, "shard": 0}).encode(),
    )
    kind, _ = recv_frame(sock, "client awaiting welcome")
    assert kind == _K_WELCOME
    kind, _ = recv_frame(sock, "client awaiting job")
    assert kind == _K_JOB
    send_frame(
        sock, _K_READY,
        json.dumps({"shard": 0, "fingerprint": "not-the-fingerprint"}).encode(),
    )
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert "fingerprint mismatch" in outcome["error"]
    sock.close()
    coordinator.close()


def test_duplicate_claim_rejected_and_slot_stays_open(monkeypatch):
    """A second claim on a taken shard (and an out-of-range claim) gets an
    ERROR and a closed connection; the fleet still assembles."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "10")
    coordinator = _coordinator(shards=2)
    host, port = coordinator.bind()
    fingerprint = fingerprint_digest(coordinator.config)
    thread, outcome = _accept_in_thread(coordinator, fingerprint)

    first, kind, _ = _handshake_client(host, port, 0)
    assert kind == _K_WELCOME

    duplicate = socket.create_connection((host, port), timeout=5.0)
    duplicate.settimeout(5.0)
    send_frame(
        duplicate, _K_HELLO,
        json.dumps({"version": PROTOCOL_VERSION, "shard": 0}).encode(),
    )
    kind, payload = recv_frame(duplicate, "duplicate claimant")
    assert kind == _K_ERROR
    assert b"already claimed or out of range" in payload
    assert duplicate.recv(1) == b""  # coordinator closed it

    out_of_range = socket.create_connection((host, port), timeout=5.0)
    out_of_range.settimeout(5.0)
    send_frame(
        out_of_range, _K_HELLO,
        json.dumps({"version": PROTOCOL_VERSION, "shard": 7}).encode(),
    )
    kind, payload = recv_frame(out_of_range, "out-of-range claimant")
    assert kind == _K_ERROR
    assert b"already claimed or out of range" in payload

    second, kind, _ = _handshake_client(host, port, 1)
    assert kind == _K_WELCOME
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert outcome.get("done")
    assert coordinator.rejected == 2
    for sock in (first, duplicate, out_of_range, second):
        sock.close()
    coordinator.close()


def test_garbage_connection_rejected_fleet_still_assembles(monkeypatch):
    """An HTTP probe (or any non-worker noise) on the port is dropped
    without burning a shard slot."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "10")
    coordinator = _coordinator(shards=1)
    host, port = coordinator.bind()
    fingerprint = fingerprint_digest(coordinator.config)
    thread, outcome = _accept_in_thread(coordinator, fingerprint)

    noise = socket.create_connection((host, port), timeout=5.0)
    noise.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
    stub = socket.create_connection((host, port), timeout=5.0)
    stub.sendall(b"\x01\x02")
    stub.close()

    worker, kind, _ = _handshake_client(host, port, 0)
    assert kind == _K_WELCOME
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert outcome.get("done")
    assert coordinator.rejected == 2
    noise.close()
    worker.close()
    coordinator.close()


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
# The single accept loop and the single supervision pump, on scripted
# sockets (no subprocesses).
# ---------------------------------------------------------------------------


def _parked(coordinator, shard_id):
    """Install one end of a socketpair as shard ``shard_id``'s live
    connection; returns the scripted worker's end."""
    ours, theirs = _pair()
    coordinator.connections[shard_id] = ours
    return theirs


def test_assembly_never_reads_a_protocol_frame(monkeypatch):
    """An early worker's first SYNC (and heartbeat) may be buffered before
    the fleet is complete: assembly must leave both for the first collect —
    heartbeat servicing inside the accept loop is recovery-only."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "10")
    coordinator = _coordinator(shards=2)
    host, port = coordinator.bind()
    thread, outcome = _accept_in_thread(
        coordinator, fingerprint_digest(coordinator.config)
    )
    early, kind, _ = _handshake_client(host, port, 0)
    assert kind == _K_WELCOME
    send_frame(early, _K_SYNC, b"first sync")
    send_frame(early, _K_PING)
    time.sleep(0.6)  # several turns of the accept loop
    late, kind, _ = _handshake_client(host, port, 1)
    assert kind == _K_WELCOME
    thread.join(timeout=10.0)
    assert outcome.get("done")
    assert coordinator.faults["heartbeats"] == 0
    assert coordinator.connections[0] is not None, "quarantined out of turn"
    assert recv_frame(coordinator.connections[0], "first collect") == (
        _K_SYNC, b"first sync"
    )
    early.close()
    late.close()
    coordinator.close()


def test_silent_connection_during_recovery_cannot_starve_parked_workers(
    monkeypatch,
):
    """A stray connection that says nothing while a dead slot refills is
    read under the heartbeat interval, not the full deadline: a parked
    worker's PING is answered within about one interval, and the slot is
    still open for the real replacement."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "4")
    coordinator = _coordinator(shards=2)
    interval = heartbeat_interval(coordinator.timeout)
    assert interval == 1.0
    host, port = coordinator.bind()
    parked = _parked(coordinator, 0)
    thread, outcome = _accept_in_thread(
        coordinator, fingerprint_digest(coordinator.config),
        unclaimed={1}, recover_barrier=0,
    )
    silent = socket.create_connection((host, port), timeout=5.0)
    time.sleep(0.4)  # the accept loop is now blocked reading its HELLO
    start = time.monotonic()
    send_frame(parked, _K_PING)
    assert recv_frame(parked, "parked worker awaiting pong")[0] == _K_PONG
    # Unfixed, the PONG waits out the full 4s deadline.
    assert time.monotonic() - start < 2.0 * interval
    assert thread.is_alive() and not outcome, "the slot must stay open"
    replacement, kind, payload = _handshake_client(
        host, port, 1, greeting=_K_RECOVER
    )
    assert kind == _K_RECOVER
    assert json.loads(payload.decode())["barrier"] == 0
    thread.join(timeout=10.0)
    assert outcome.get("done")
    assert coordinator.connections[1] is not None
    assert coordinator.faults["quarantined_connections"] == 1
    assert coordinator.faults["heartbeats"] == 1
    for sock in (silent, parked, replacement):
        sock.close()
    coordinator.close()


def test_garbage_hello_during_recovery_is_quarantined_exactly_once(
    monkeypatch,
):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "10")
    coordinator = _coordinator(shards=2)
    host, port = coordinator.bind()
    thread, outcome = _accept_in_thread(
        coordinator, fingerprint_digest(coordinator.config),
        unclaimed={1}, recover_barrier=3,
    )
    noise = socket.create_connection((host, port), timeout=5.0)
    noise.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
    replacement, kind, _ = _handshake_client(
        host, port, 1, greeting=_K_RECOVER
    )
    assert kind == _K_RECOVER
    thread.join(timeout=10.0)
    assert outcome.get("done")
    assert coordinator.rejected == 1
    assert coordinator.faults["quarantined_connections"] == 1
    noise.close()
    replacement.close()
    coordinator.close()


class _FakeProcess:
    def __init__(self, code):
        self.code = code

    def poll(self):
        return self.code

    def wait(self, timeout=None):
        return self.code


def test_accept_loop_polls_only_the_current_process_per_slot(monkeypatch):
    """Respawning a slot moves the predecessor to the reap list: its
    non-zero exit code is the death being healed, not a failed handshake —
    but the *replacement* exiting non-zero still is."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "10")
    import repro.sim.tcpexec as tcpexec

    corpse, replacement = _FakeProcess(3), _FakeProcess(None)
    spawned = iter([corpse, replacement])
    monkeypatch.setattr(
        tcpexec.subprocess, "Popen", lambda *args, **kwargs: next(spawned)
    )
    coordinator = _coordinator(shards=2, hosts="wait,local")
    host, port = coordinator.bind()
    coordinator._spawn_one(1, "local")
    coordinator._spawn_one(1, "local")
    assert coordinator.processes == {1: replacement}
    assert coordinator._reap == [corpse]
    fingerprint = fingerprint_digest(coordinator.config)
    thread, outcome = _accept_in_thread(
        coordinator, fingerprint, unclaimed={1}, recover_barrier=0
    )
    time.sleep(0.5)  # a few polls with the corpse in the reap list
    assert thread.is_alive() and not outcome
    worker, kind, _ = _handshake_client(host, port, 1, greeting=_K_RECOVER)
    thread.join(timeout=10.0)
    assert outcome == {"done": True}

    replacement.code = 7
    thread, outcome = _accept_in_thread(
        coordinator, fingerprint, unclaimed={1}, recover_barrier=0
    )
    thread.join(timeout=10.0)
    assert "shard 1 exited with code 7 before completing its handshake" in (
        outcome["error"]
    )
    worker.close()
    coordinator.close()


@pytest.mark.parametrize("misbehaviour", ("out-of-turn frame", "death"))
def test_non_awaited_shard_failure_is_stashed_until_awaited(misbehaviour):
    """While only shard 0 is awaited, shard 1 speaking out of turn (or
    dying) is quarantined by the same pump pass and surfaces — as the dead
    sentinel with its reason — when shard 1 is next awaited."""
    coordinator = _coordinator(shards=2)
    awaited, other = _parked(coordinator, 0), _parked(coordinator, 1)
    if misbehaviour == "death":
        other.close()
        reason = "worker 1 died mid-window"
    else:
        send_frame(other, _K_SYNC, b"too early")
        reason = f"worker 1 sent unexpected frame kind {_K_SYNC} out of turn"
    send_frame(awaited, _K_PING)
    send_frame(awaited, _K_SYNC, b"on time")
    assert coordinator._await_frames({0}, barrier=0) == {
        0: (_K_SYNC, b"on time")
    }
    assert coordinator.faults["heartbeats"] == 1
    assert coordinator.connections[1] is None
    (kind, message), = coordinator._await_frames({1}, barrier=1).values()
    assert kind == _K_DEAD
    assert reason in message
    # Surfaced once: a second wait falls back to the generic message.
    (kind, message), = coordinator._await_frames({1}, barrier=1).values()
    assert (kind, "already quarantined" in message) == (_K_DEAD, True)
    awaited.close()
    other.close()
    coordinator.close()



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
    coordinator = _coordinator()

    class _Wal:
        @staticmethod
        def window_record(barrier):
            return record

    coordinator.wal = _Wal
    blobs = [(0, b"frame")]
    sync = SyncStatus(
        1.0, 0.5, 1, float("inf"), [], pickle.dumps(replayed), blobs, blobs
    )
    coordinator._await_frames = lambda shards, barrier: {
        1: (_K_SYNC, pickle.dumps(sync))
    }
    with pytest.raises(
        SimulationError,
        match=f"RECOVER divergence at window 0: shard 1 {part} cursors",
    ):
        coordinator._replay_prefix(1, barrier=1)


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
