"""The fleet's wire protocol, supervision, and failure modes.

Four layers of coverage:

- framing — length-prefixed frame round trips (property fuzz), and loud
  rejection of garbage magic, truncated headers, short payload reads,
  absurd lengths, and silent peers (per-read deadlines);
- supervision — event scripts against the sans-IO ``Supervisor`` on a
  fake clock: deaths are recovered or stashed, a replacement is live at
  its first frame and fatal if it dies before, parked workers are
  answered while a slot refills, a frame kind no worker sends is loud,
  and a replayed window that drifts from the WAL names what moved;
- worker endpoint — ``worker_main`` on one end of a socketpair exits 0
  or 1 as its run went and closes its end on the way out; its channel
  skips PONGs and refuses anything but a decision;
- placement — a forked worker's end of its socketpair lives in that
  worker alone, and a worker raising before its first frame fails the
  run loudly with its traceback;
- dead workers — a worker killed mid-window (``os._exit``) and a
  half-open worker (heartbeat stopped, socket left open) both surface
  ``died mid-window`` within the deadline with full coordinator teardown
  (no hang, no orphan sockets, processes reaped), a replacement that
  dies before it rejoins fails the run, and a checkpoint chopped mid-log
  resumes to the never-crashed digest.

The byte-identity contract itself (mp ≡ tcp ≡ serial ≡ unsharded) lives
in ``test_shard_equivalence.py``.
"""

import os
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.errors import SimulationError
from repro.sim.barrier import SyncStatus
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import ScenarioConfig
from repro.sim.shard import ShardedScenario
from repro.sim.tcpexec import (
    _K_ABORT,
    _K_BYE,
    _K_DECISION,
    _K_DONE,
    _K_ERROR,
    _K_PING,
    _K_PONG,
    _K_SYNC,
    _MAX_FRAME,
    _WIRE_HEADER,
    _WIRE_MAGIC,
    TCP_TIMEOUT_ENV,
    TCP_MAX_RESPAWNS_ENV,
    Supervisor,
    TcpCoordinator,
    _TcpChannel,
    recv_frame,
    send_frame,
    worker_main,
)
from repro.sim.wal import WalReader, WindowRecord
from determinism_fixtures import truncate_wal
from misbehave import GARBLED, install


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


@pytest.mark.parametrize("kind,error", [
    ("corrupt", "bad frame magic"),
    ("truncate", r"8 of 72 bytes"),
])
def test_a_garbled_sync_is_refused_by_the_frame_reader(kind, error):
    """The bytes a garbling worker sends before it exits are refused by
    the frame reader itself, not merely cut short by the hang-up."""
    a, b = _pair()
    try:
        a.sendall(_WIRE_HEADER.pack(*GARBLED[kind]) + b"x" * 8)
        a.close()
        with pytest.raises(SimulationError, match=error):
            recv_frame(b, kind)
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
# Supervision: the machine's rounds, deadlines and recoveries, as event
# scripts on a fake clock.
# ---------------------------------------------------------------------------


class _Clock:
    """The supervisor's injected clock, moved by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _machine(shards=2, window_records=None, respawns=3, timeout=4.0):
    """A :class:`Supervisor` on a fake clock; ``window_records`` stands in
    for the WAL (None: no WAL)."""
    clock = _Clock()
    return Supervisor(shards, timeout, respawns, window_records, clock), clock


def _sync(machine, shard, payload="sync"):
    return machine.frame(shard, _K_SYNC, pickle.dumps(payload))


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
    """Shard 1 speaking out of turn (or dying) after its sync is
    quarantined at once but surfaces, recovered with its reason, only when
    the next round awaits it, and only once."""
    def script(machine):
        assert machine.collect(0) == []
        assert _sync(machine, 1) == []
        if misbehaviour == "death":
            actions = machine.closed(1, "connection closed")
        else:
            actions = _sync(machine, 1, "too early")
        assert actions == [("close", 1)]
        assert _sync(machine, 0)[-1][0] == "done"
        return machine.collect(1)

    reason = (
        "worker 1 died mid-window" if misbehaviour == "death" else
        f"worker 1 sent unexpected frame kind {_K_SYNC} out of turn"
    )
    machine, _ = _machine()
    (verb, failure, _), = script(machine)
    assert verb == "abort" and reason in failure
    assert "no WAL checkpoint" in failure

    machine, _ = _machine(window_records=lambda stop: [])
    assert script(machine) == [("spawn", 1)]
    assert machine.faults["worker_deaths"] == 1
    _sync(machine, 0)
    assert _sync(machine, 1)[-1][0] == "done"  # the replacement's first frame
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
        "checkpoint to replay a replacement worker from — set "
        "ScenarioConfig.wal to enable in-run recovery"
    )
    assert report == f"tcp shard worker failed:\n{failure}"

    machine, _ = _machine(window_records=lambda stop: [], respawns=1)
    machine.collect(0)
    assert machine.closed(1, "gone") == [("close", 1), ("spawn", 1)]
    machine.frame(1, _K_PING, b"")  # the replacement is live
    (verb, failure, report), = machine.closed(1, "gone again")[1:]
    assert f"worker respawn budget exhausted ({TCP_MAX_RESPAWNS_ENV}=1)" in (
        failure
    )
    assert machine.faults["respawns"] == 1
    assert machine.faults["worker_deaths"] == 2

    machine, _ = _machine(window_records=lambda stop: ["w0", "w1"][:stop])
    machine.collect(2)
    machine.closed(1, "gone")
    (verb, failure, _), = machine.closed(1, "eof")[1:]
    assert failure.startswith(
        "replacement worker for shard 1 failed during WAL replay at window 0"
    )


def test_a_replacement_is_live_at_its_first_frame_and_fatal_before():
    """A replacement with nothing to replay is bound to its slot from the
    fork, so the first thing it says — a heartbeat or its sync — makes it
    live.  Dying or falling silent before that fails the run: the budget
    is not spent on a worker that never started."""
    for ending in ("eof", "silence"):
        machine, clock = _machine(window_records=lambda stop: [])
        machine.collect(1)
        clock.now = 1.0
        assert machine.closed(1, "gone") == [("close", 1), ("spawn", 1)]
        assert machine.replaying == {1: []}  # nothing logged to replay
        assert machine.deadline() == 4.0  # shard 0 was due first
        _sync(machine, 0)
        assert machine.deadline() == 5.0  # the replacement's own deadline
        if ending == "eof":
            actions = machine.closed(1, "connection closed")
        else:
            clock.now = 5.0
            actions = machine.expire()
        close, (verb, failure, _) = actions
        assert (close, verb) == (("close", 1), "abort")
        assert failure.startswith(
            "replacement worker for shard 1 failed during WAL replay at "
            "window 1"
        )
        assert machine.faults["respawns"] == 0

    machine, _ = _machine(window_records=lambda stop: [])
    machine.collect(1)
    machine.closed(1, "gone")
    assert machine.frame(1, _K_PING, b"") == [("send", 1, _K_PONG, b"")]
    assert machine.replaying == {} and machine.faults["respawns"] == 1


def test_parked_workers_are_answered_while_a_slot_refills():
    """Shard 0 has synced and waits for its decision while shard 1's
    replacement replays a logged window: every heartbeat of the parked
    worker is answered at once, and the round completes once the
    replacement's live sync is in."""
    record = WindowRecord(
        barrier=0, window_start=0.0, global_last=0.5, total_executed=3,
        statuses=[
            (1.0, 0.5, 2, [], pickle.dumps({})),
            (1.0, 0.5, 1, [], pickle.dumps({})),
        ],
        frames={},
    )
    machine, clock = _machine(window_records=lambda stop: [record] * stop)
    machine.collect(1)
    assert _sync(machine, 0, "parked") == []
    assert machine.closed(1, "gone") == [("close", 1), ("spawn", 1)]
    for tick in (1.0, 2.0, 3.0):
        clock.now = tick
        assert machine.frame(0, _K_PING, b"") == [("send", 0, _K_PONG, b"")]
    assert machine.deadline() == 4.0  # only the replacement is awaited
    replayed = SyncStatus(1.0, 0.5, 1, float("inf"), [], pickle.dumps({}), [])
    (verb, shard, verdict), = machine.frame(1, _K_SYNC, pickle.dumps(replayed))
    assert (verb, shard) == ("decide", 1)
    assert _sync(machine, 1, "replacement") == [("done", [
        (0, "sync", "parked"), (1, "sync", "replacement")
    ])]
    assert machine.faults == {
        "heartbeats": 3, "worker_deaths": 1, "replayed_windows": 1,
        "respawns": 1,
    }


_UNDECODABLE = {
    "not-a-pickle": b"not a pickle",
    "truncated": b"\x80\x05\x95",
    "empty": b"",
}


@pytest.mark.parametrize("payload", _UNDECODABLE.values(),
                         ids=_UNDECODABLE.keys())
def test_an_undecodable_sync_is_that_shards_death(payload):
    """A SYNC (or DONE) whose payload does not unpickle kills its shard,
    not the coordinator: with a WAL the slot is respawned, without one the
    fleet aborts naming the shard — in both cases an action, never an
    exception out of ``frame``."""
    for kind in (_K_SYNC, _K_DONE):
        machine, _ = _machine(shards=2, window_records=lambda stop: [])
        assert machine.collect(0) == []
        assert machine.frame(0, kind, payload) == [
            ("close", 0), ("spawn", 0)
        ]
        assert machine.pending == {0, 1}
        assert machine.faults["worker_deaths"] == 1

        machine, _ = _machine(shards=2)
        assert machine.collect(0) == []
        close, (verb, failure, report) = machine.frame(0, kind, payload)
        assert (close, verb) == (("close", 0), "abort")
        assert failure.startswith("worker 0 sent an undecodable ")
        assert "no WAL checkpoint" in failure

    # a replacement replaying from the WAL is judged the same way
    machine, _ = _machine(window_records=lambda stop: ["w0"][:stop])
    machine.collect(1)
    assert machine.closed(1, "gone") == [("close", 1), ("spawn", 1)]
    (verb, failure, _), = machine.frame(1, _K_SYNC, payload)
    assert verb == "abort" and failure.startswith(
        "replacement worker for shard 1 failed during WAL replay at window 0"
    )
    assert "undecodable sync" in failure


#: kinds only the coordinator sends, and the first frame of the retired
#: HELLO handshake — none of them is a worker's message
_FOREIGN_KINDS = {
    "decision": _K_DECISION, "abort": _K_ABORT, "bye": _K_BYE,
    "pong": _K_PONG, "retired-hello": 1,
}


@pytest.mark.parametrize("kind", _FOREIGN_KINDS.values(),
                         ids=_FOREIGN_KINDS.keys())
def test_a_frame_kind_no_worker_sends_is_loud(kind):
    """An awaited worker that answers its round with a kind no worker
    sends lands an error result naming the kind — the round still
    completes, so the barrier loop aborts the fleet with it; a replacement
    doing so mid-replay fails the run."""
    machine, _ = _machine()
    machine.collect(0)
    assert machine.frame(0, kind, b"") == []
    assert _sync(machine, 1) == [("done", [
        (0, "error", f"worker 0 sent unexpected frame kind {kind} at "
                     "barrier 0"),
        (1, "sync", "sync"),
    ])]

    machine, _ = _machine(window_records=lambda stop: ["w0"][:stop])
    machine.collect(1)
    assert machine.closed(1, "gone") == [("close", 1), ("spawn", 1)]
    (verb, failure, report), = machine.frame(1, kind, b"")
    assert verb == "abort" and failure == report == (
        "replacement worker for shard 1 failed during WAL replay at window "
        f"0:\nsent frame kind {kind}, not a sync"
    )
    assert machine.faults["replayed_windows"] == 0


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
    sync = SyncStatus(
        1.0, 0.5, 1, float("inf"), [], pickle.dumps(replayed), [(0, b"frame")]
    )
    (verb, failure, _), = machine.frame(1, _K_SYNC, pickle.dumps(sync))
    assert verb == "abort"
    assert f"RECOVER divergence at window 0: shard 1 {part} cursors" in failure
    assert machine.faults["replayed_windows"] == 0


# ---------------------------------------------------------------------------
# Worker endpoint: ``worker_main`` and its channel, in-process on one end
# of a socketpair, the coordinator played by hand on the other.
# ---------------------------------------------------------------------------


#: what a forked worker reads from fork memory; ``_run_worker`` is
#: stubbed in these tests, so none of it is run
_JOB = {
    "config": None, "workload": None, "num_shards": 2, "lookahead": 0.5,
    "snapshot": None, "wal_cadence": 0,
}


@pytest.mark.parametrize("ending", ("bye", "hang-up", "failed run"))
def test_worker_main_exits_as_its_run_went(monkeypatch, ending):
    """Exit code 0 once the run is done and the coordinator says BYE —
    PONGs for in-flight heartbeats skipped on the way — or hangs up; 1
    when the run failed, without waiting for the coordinator at all."""
    import repro.sim.tcpexec as tcpexec

    monkeypatch.setattr(
        tcpexec, "_run_worker",
        lambda *args, **kwargs: ending != "failed run",
    )
    ours, theirs = _pair()
    try:
        if ending == "bye":
            send_frame(ours, _K_PONG)
            send_frame(ours, _K_BYE)
        elif ending == "hang-up":
            ours.close()
        start = time.monotonic()
        code = worker_main(theirs, 1, _JOB)
        assert time.monotonic() - start < 2.0  # no read deadline waited out
    finally:
        ours.close()
    assert code == (1 if ending == "failed run" else 0)
    assert theirs.fileno() == -1  # the worker closes its end on the way out


@pytest.mark.parametrize("answer", ("decision", "abort", "stray"))
def test_the_worker_channel_takes_only_a_decision_or_an_abort(answer):
    """Parked at a barrier, a worker skips every PONG and takes the
    decision or the abort; any other kind is a loud protocol error."""
    ours, theirs = _pair()
    channel = _TcpChannel(theirs, 1, threading.Lock())
    try:
        send_frame(ours, _K_PONG)
        send_frame(ours, _K_PONG)
        if answer == "decision":
            send_frame(ours, _K_DECISION, pickle.dumps(("verdict", 3)))
            assert channel._recv(3) == ("decision", ("verdict", 3))
        elif answer == "abort":
            send_frame(ours, _K_ABORT, "shard 0 failed".encode("utf-8"))
            assert channel._recv(3) == ("abort", "shard 0 failed")
        else:
            send_frame(ours, _K_ERROR, b"not for a worker")
            with pytest.raises(SimulationError, match=(
                f"shard 1: expected a decision frame at barrier 3, got "
                f"kind {_K_ERROR}"
            )):
                channel._recv(3)
    finally:
        ours.close()
        theirs.close()


# ---------------------------------------------------------------------------
# Placement: every worker is a forked child on its own socketpair.
# ---------------------------------------------------------------------------


def _socket_inodes(pid):
    """The socket inodes among a process's open file descriptors (none
    for a process that is gone)."""
    fd_dir = f"/proc/{pid}/fd"
    inodes = set()
    try:
        names = os.listdir(fd_dir)
    except OSError:  # exited (or a zombie) already
        return inodes
    for name in names:
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
    """Per socketpair: the child's end lives in exactly one process, the
    worker forked with it, and the coordinator's end in no worker at all —
    checked after every barrier round, a replacement forked mid-run while
    its sibling's connection is live included (a copy of that connection
    kept there would hide the coordinator's hang-up from the sibling)."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    pairs = []  # (coordinator end's inode, child end's inode) per fork
    socketpair = socket.socketpair

    def recorded_socketpair(*args):
        ours, theirs = socketpair(*args)
        pairs.append(tuple(
            os.fstat(end.fileno()).st_ino for end in (ours, theirs)
        ))
        return ours, theirs

    collect, checks = TcpCoordinator.collect, []

    def checked_collect(self, barrier):
        messages = collect(self, barrier)
        assert len(pairs) == len(self.processes)
        held = {
            process.pid: _socket_inodes(process.pid)
            for process in self.processes
        }
        held[os.getpid()] = _socket_inodes(os.getpid())
        for process, (ours, theirs) in zip(self.processes, pairs):
            holders = sorted(pid for pid, inodes in held.items()
                             if theirs in inodes)
            assert holders in ([process.pid], []), (barrier, holders)
            assert not [pid for pid, inodes in held.items()
                        if ours in inodes and pid != os.getpid()]
        checks.append(sum(
            theirs in held[process.pid]
            for process, (_, theirs) in zip(self.processes, pairs)
        ))
        return messages

    monkeypatch.setattr(socket, "socketpair", recorded_socketpair)
    monkeypatch.setattr(TcpCoordinator, "collect", checked_collect)
    install(monkeypatch, tmp_path, ("crash", 1, 1))
    run = ShardedScenario(
        _config(8, shards=2, wal=str(tmp_path / "storm.wal")), executor="mp",
    ).run(_StormWorkload())
    assert run.stats.faults["respawns"] == 1
    assert run.digest() == (
        ShardedScenario(_config(8, shards=2)).run(_StormWorkload()).digest()
    )
    assert len(pairs) == 3  # two slots, and one replacement
    # every round saw both live workers holding their own ends
    assert checks and set(checks) == {2}


def test_forked_worker_raising_before_its_first_frame_fails_loudly(
    monkeypatch, capfd
):
    """An exception in a forked worker before it sends anything leaves its
    traceback on stderr and exit code 1; the coordinator reads EOF on the
    worker's connection and fails the run at once — not after the read
    deadline."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    import repro.sim.tcpexec as tcpexec

    def broken(*args, **kwargs):
        raise RuntimeError("worker broke before its first frame")

    monkeypatch.setattr(tcpexec, "worker_main", broken)
    start = time.monotonic()
    with pytest.raises(SimulationError, match=r"worker [01] died mid-window"):
        ShardedScenario(
            _config(8, shards=2), executor="mp"
        ).run(_StormWorkload())
    assert time.monotonic() - start < 10.0
    assert "RuntimeError: worker broke before its first frame" in (
        capfd.readouterr().err
    )


# ---------------------------------------------------------------------------
# Dead and half-open workers, and crash-consistent WALs.
# ---------------------------------------------------------------------------


def test_killed_worker_surfaces_died_mid_window(monkeypatch):
    """os._exit in a worker mid-window: a loud SimulationError well within
    the deadline, never a hang."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    start = time.monotonic()
    with pytest.raises(SimulationError, match="died mid-window"):
        ShardedScenario(
            _config(8, shards=2), executor="tcp"
        ).run(_CrashingWorkload(die=True))
    # The dead worker's socket closes on exit, so detection is EOF-fast —
    # far under even one read deadline.
    assert time.monotonic() - start < 30.0


def test_half_open_worker_surfaces_died_mid_window(tmp_path, monkeypatch):
    """Shard 1's worker stops its heartbeat and goes silent with its
    socket open (half-open): the read deadline converts it into 'died
    mid-window', and teardown leaves no orphan socket and no unreaped
    process."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "2")
    fleet = install(monkeypatch, tmp_path, ("halfopen", 1, 0))
    start = time.monotonic()
    with pytest.raises(SimulationError, match="worker 1 died mid-window"):
        ShardedScenario(
            _config(8, shards=2), executor="tcp"
        ).run(_StormWorkload())
    assert 2.0 <= time.monotonic() - start < 10.0
    fleet.assert_torn_down()
    assert len(fleet.connections) == 2  # no replacement without a WAL


def test_a_replacement_dying_before_it_rejoins_fails_the_run(
    tmp_path, monkeypatch, capfd
):
    """A crash at window 1 is healed by a forked replacement; one that
    raises before its first frame fails the run loudly and at once, with
    its traceback — no respawn loop, no wait for the read deadline."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    import repro.sim.tcpexec as tcpexec

    worker_main = tcpexec.worker_main
    fleet = install(monkeypatch, tmp_path, ("crash", 1, 1))

    def flaky(sock, shard_id, job):
        if fleet.fired():  # the crash happened: this is its replacement
            raise RuntimeError("replacement broke before its first frame")
        return worker_main(sock, shard_id, job)

    monkeypatch.setattr(tcpexec, "worker_main", flaky)
    start = time.monotonic()
    with pytest.raises(
        SimulationError,
        match="replacement worker for shard 1 failed during WAL replay",
    ):
        ShardedScenario(
            _config(8, shards=2, wal=str(tmp_path / "storm.wal")),
            executor="mp",
        ).run(_StormWorkload())
    assert time.monotonic() - start < 10.0
    assert "RuntimeError: replacement broke before its first frame" in (
        capfd.readouterr().err
    )
    fleet.assert_torn_down()


def test_tcp_checkpoint_chopped_midlog_resumes_to_reference(tmp_path):
    """Chop a fleet-written WAL mid-log (the crash simulator) and resume
    under the fleet: the final digest equals the never-crashed run's."""
    reference = ShardedScenario(_config(8, shards=2)).run(_StormWorkload())
    wal = str(tmp_path / "storm.wal")
    full = ShardedScenario(
        _config(8, shards=2, wal=wal), executor="tcp"
    ).run(_StormWorkload())
    assert full.digest() == reference.digest()
    total = len(WalReader(wal).windows)
    assert total >= 3
    cut = str(tmp_path / "chopped.wal")
    truncate_wal(wal, total // 2, out_path=cut)
    assert WalReader(cut).commit is None
    resumed = ShardedScenario(
        _config(8, shards=2, resume=cut), executor="tcp"
    ).run(_StormWorkload())
    assert resumed.digest() == reference.digest()
    assert WalReader(cut).commit["digest"] == reference.digest()
