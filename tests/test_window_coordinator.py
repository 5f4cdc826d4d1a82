"""The window protocol's two halves, each driven by a scripted twin.

``repro.sim.barrier.coordinate`` is the one barrier loop behind the
serial, mp and tcp executors, and ``WorkerEndpoint.sync`` the one worker
barrier.  These tests feed the loop canned rounds through a
``ScriptedLink`` and the endpoint canned answers through a
``ScriptedWire`` — no worker threads, processes or fleets — and assert
what the executors' end-to-end suites cannot see: the exact error each
divergence raises, *which* workers are sent an abort (including when one
of them is already dead), and what one ``sync`` puts on its wire.
"""

import multiprocessing
import pickle
import queue
import socket
import threading

import pytest

from repro.errors import SimulationError
from repro.sim.barrier import SyncStatus, Verdict, WorkerEndpoint, coordinate
from repro.sim.distribution import ShardSpec
from repro.sim.exchange import ExchangeFrame
from repro.sim.scenario import ScenarioConfig
from repro.sim.shard import _PipeLink, _ProcessChannel, _ThreadChannel
from repro.sim.tcpexec import (
    _K_DECISION,
    _K_SYNC,
    _TcpChannel,
    recv_frame,
    send_frame,
)
from repro.sim.wal import WalReader, WalSession

INF = float("inf")
LOOKAHEAD = 0.5


class ScriptedLink:
    """Replays canned barrier rounds; records decisions and aborts.
    Shards in ``dead`` raise on abort like a closed pipe or socket."""

    def __init__(self, rounds, dead=()):
        self._rounds = iter(rounds)
        self._dead = set(dead)
        self.decisions = []
        self.aborted = []

    def collect(self, barrier):
        return next(self._rounds)

    def send_decision(self, shard_id, verdict):
        self.decisions.append((shard_id, verdict))

    def abort(self, shard_id, failure):
        if shard_id in self._dead:
            raise BrokenPipeError(f"worker {shard_id} is gone")
        self.aborted.append((shard_id, failure))


def _sync(shard_id, next_time, requests=(), routed=(), blobs=(), last=-INF):
    status = SyncStatus(
        next_time, last, 1, INF, list(requests), None, list(routed),
        list(blobs),
    )
    return (shard_id, "sync", status)


class _Plane:
    """The slice of DirectoryControlPlane the loop touches."""

    def __init__(self, events=()):
        self.events = list(events)
        self.requests = []

    def handle_requests(self, requests):
        self.requests.extend(requests)

    def next_time(self):
        return self.events[0] if self.events else INF

    def advance(self, until):
        served = [(t, "leave", 0) for t in self.events if t <= until]
        self.events = [t for t in self.events if t > until]
        return served


def test_rounds_become_decisions_until_every_worker_is_done():
    link = ScriptedLink([
        [_sync(1, 4.0, routed=[(0, b"one-to-zero")]), _sync(0, 2.0, last=1.5)],
        [_sync(0, INF), _sync(1, INF)],
        [(0, "done", "zero"), (1, "done", "one")],
    ])
    plane = _Plane(events=[2.25, 9.0])
    payloads, windows = coordinate(link, 2, LOOKAHEAD, plane=plane)
    assert payloads == ["zero", "one"]
    assert windows == 2
    assert link.aborted == []
    first, second = link.decisions[:2], link.decisions[2:]
    # Window 0 opens at the global minimum next-event time; the frame
    # shard 1 sent rides shard 0's verdict only; the plane's records up to
    # the window end are served to everyone.
    assert first == [
        (0, (2.0, 1.5, 2, [(1, b"one-to-zero")], [(2.25, "leave", 0)])),
        (1, (2.0, 1.5, 2, [], [(2.25, "leave", 0)])),
    ]
    # Every worker heap idle: the control timeline alone opens window 1.
    assert [verdict[0] for _, verdict in second] == [9.0, 9.0]


@pytest.mark.parametrize(
    "round_messages, dead, error, aborted",
    [
        pytest.param(
            [_sync(0, 1.0), (1, "done", "early"), _sync(2, 1.0)], (),
            "mixed done/sync at one barrier", [0, 2],
            id="mixed-done-sync",
        ),
        pytest.param(
            [_sync(0, 1.0), (1, "done", "early"), _sync(2, 1.0)], (0,),
            "mixed done/sync at one barrier", [2],
            id="mixed-done-sync-with-a-dead-synced-worker",
        ),
        pytest.param(
            [_sync(0, 1.0), _sync(0, 1.5), _sync(2, 1.0)], (),
            "shard 0 raced the window barrier", [0, 2],
            id="raced",
        ),
        pytest.param(
            [_sync(0, 1.0), (1, "error", "Traceback: boom"), _sync(2, 1.0)],
            (2,), "shard worker failed:\nTraceback: boom", [0],
            id="worker-error",
        ),
        pytest.param(
            [_sync(0, 1.0, requests=[("start_churn", 0.0)]), _sync(1, 1.0),
             _sync(2, 1.0, requests=[("start_churn", 0.0)])], (),
            "control requests differ across shards", [0, 1, 2],
            id="spmd-request-disagreement",
        ),
    ],
)
def test_divergence_aborts_exactly_the_synced_workers(
    round_messages, dead, error, aborted
):
    link = ScriptedLink([round_messages], dead=dead)
    with pytest.raises(SimulationError) as raised:
        coordinate(link, 3, LOOKAHEAD, plane=_Plane())
    assert error in str(raised.value)
    assert [shard_id for shard_id, _ in link.aborted] == aborted
    assert link.decisions == []
    # Every abort carries the failure being reported.
    for _, failure in link.aborted:
        assert failure in str(raised.value)


def _wal_config(**paths):
    return ScenarioConfig(
        num_peers=4, overlay="fullmesh", churn="none", rng_mode="perpeer",
        jitter_floor=0.5, shards=2, shard=ShardSpec(num_peers=4), seed=3,
        **paths,
    )


def test_wal_divergence_aborts_every_synced_worker(tmp_path):
    path = str(tmp_path / "scripted.wal")
    rounds = [
        [_sync(0, 1.0, routed=[(1, b"blob")], blobs=[(1, b"blob")]),
         _sync(1, 2.0)],
        [(0, "done", "zero"), (1, "done", "one")],
    ]
    wal = WalSession(_wal_config(wal=path), 2, LOOKAHEAD)
    coordinate(ScriptedLink(rounds), 2, LOOKAHEAD, wal=wal)
    wal.close()
    logged = WalReader(path).windows
    assert [sorted(record.frames.items()) for record in logged] == [
        [((0, 1), b"blob")]
    ]
    # Resume against the log with shard 1 reporting a different clock:
    # the loop names the field and tells both synced workers — shard 0,
    # whose pipe is already closed, must not mask the report.
    rounds[0][1] = _sync(1, 2.5)
    link = ScriptedLink(rounds, dead=(0,))
    resumed = WalSession(_wal_config(resume=path), 2, LOOKAHEAD)
    with pytest.raises(
        SimulationError,
        match="WAL divergence at window 0: shard 1 next event time",
    ):
        coordinate(link, 2, LOOKAHEAD, wal=resumed)
    resumed.close()
    assert [shard_id for shard_id, _ in link.aborted] == [1]
    assert "WAL divergence at window 0" in link.aborted[0][1]
    assert link.decisions == []


def test_a_worker_that_dies_after_its_sync_aborts_the_survivors():
    """Over real pipes: shard 1 syncs and closes; shard 0 syncs twice.
    The decision to the dead worker must not crash the loop — the next
    collect names the shard and the survivor is told to abort."""
    near0, far0 = multiprocessing.Pipe()
    near1, far1 = multiprocessing.Pipe()
    _, kind, status = _sync(0, 1.0)
    far0.send((kind, status))
    far0.send((kind, status))
    far1.send((kind, status))
    far1.close()
    with pytest.raises(
        SimulationError, match="shard worker 1 died mid-window"
    ):
        coordinate(_PipeLink([near0, near1]), 2, LOOKAHEAD)
    assert far0.recv()[0] == "decision"
    kind, failure = far0.recv()
    assert kind == "abort"
    assert "shard worker 1 died mid-window" in failure


def test_pipe_link_outlives_a_closed_pipe():
    near, far = multiprocessing.Pipe()
    far.close()
    link = _PipeLink([near])
    link.send_decision(0, Verdict(1.0, 0.5, 1, [], []))  # returns
    near.close()  # reading a dead handle is a death too, not a crash
    assert link.collect(0) == [(0, "error", (
        "shard worker 0 died mid-window "
        "(pipe closed without a sync/done/error message)"
    ))]


# ---------------------------------------------------------------------------
# The worker half.
# ---------------------------------------------------------------------------


class ScriptedWire(WorkerEndpoint):
    """Records what ``_send`` saw; answers ``_recv`` from a script."""

    def __init__(self, shard_id, answers=()):
        super().__init__(shard_id)
        self.sent = []
        self.answers = list(answers)

    def _send(self, kind, payload):
        self.sent.append((kind, payload))

    def _recv(self, barrier):
        return self.answers.pop(0)


def _records(src_shard, times, dst=1):
    return [
        (time, src_shard, seq, src_shard, dst, "m", None, 40, 40, 1)
        for seq, time in enumerate(times, start=1)
    ]


def _decision(inbound=()):
    return ("decision", Verdict(2.0, 1.5, 3, list(inbound), []))


# One endpoint per wire with ``answer`` waiting on it, plus the handles
# to close afterwards.


def _scripted(answer):
    return ScriptedWire(0, [answer]), []


def _serial(answer):
    down = queue.Queue()
    down.put(answer)
    return _ThreadChannel(0, queue.Queue(), down), []


def _mp(answer):
    near, far = multiprocessing.Pipe()
    near.send(answer)
    return _ProcessChannel(0, far), [near, far]


def _tcp(answer):
    near, far = socket.socketpair()
    send_frame(near, _K_DECISION, pickle.dumps(answer[1]))
    return _TcpChannel(far, 0, threading.Lock()), [near, far]


def test_sync_sends_one_status_per_barrier_and_opens_the_verdict():
    inbound = ExchangeFrame.from_records(_records(1, [4.0, 3.0], dst=0))
    wire = ScriptedWire(0, [
        _decision(),
        _decision([(1, inbound.encode(1))]),
        _decision(),
    ])
    outboxes = [
        [[], _records(0, [5.0, 2.5]), _records(0, [3.5], dst=2)],
        [[], [], []],
        [[], _records(0, [9.0]), []],
    ]
    answers = [
        wire.sync(outbound, 7.0, 1.0, 2, [("start_churn", 0.0)], b"probe")
        for outbound in outboxes
    ]
    assert [kind for kind, _ in wire.sent] == ["sync"] * 3
    statuses = [status for _, status in wire.sent]
    assert all(isinstance(status, SyncStatus) for status in statuses)
    # min_outbound is the earliest delivery among the frames just encoded
    assert [status.min_outbound for status in statuses] == [2.5, INF, 9.0]
    assert statuses[0][:3] + statuses[0][4:6] == (
        7.0, 1.0, 2, [("start_churn", 0.0)], b"probe"
    )
    assert [dst for dst, _ in statuses[0].routed] == [1, 2]
    # every blob is tagged with its barrier: 0, 1, 2, ...
    assert [
        [ExchangeFrame.decode(blob)[1] for _, blob in status.routed]
        for status in statuses
    ] == [[0, 0], [], [2]]
    # the verdict comes back as it was sent, its inbound opened into frames
    verdict, frames = answers[1]
    assert verdict.window_start == 2.0 and verdict.control == []
    assert [frame.to_records() for frame in frames] == [inbound.to_records()]
    assert answers[0][1] == [] and answers[2][1] == []
    assert wire.exchange["frames"] == 3 and wire.exchange["records"] == 4
    assert wire.exchange["encoded_bytes"] == sum(
        len(blob) for status in statuses for _, blob in status.routed
    )


def test_a_relaying_wire_ships_each_blob_once():
    """``routed`` and ``blobs`` are one list, so a pickling wire's memo
    writes every blob once — a copy would double each tcp SYNC."""
    wire = ScriptedWire(0, [_decision()])
    wire.sync([[], _records(0, [float(i) for i in range(1, 65)])],
              INF, -INF, 0, [])
    (_, status), = wire.sent
    assert status.routed is status.blobs
    blob_bytes = sum(len(blob) for _, blob in status.blobs)
    assert blob_bytes > 1000
    # ... and over the real tcp wire: the SYNC frame, read off the socket
    channel, (near, far) = _tcp(_decision())
    try:
        channel.sync([[], _records(0, [float(i) for i in range(1, 65)])],
                     INF, -INF, 0, [])
        kind, payload = recv_frame(near, "test")
    finally:
        near.close()
        far.close()
    assert kind == _K_SYNC
    assert len(payload) <= 1.1 * blob_bytes
    received = pickle.loads(payload)
    assert received == status
    assert received.routed is received.blobs


def test_an_abort_raises_naming_the_shard_and_the_reason():
    wire = ScriptedWire(3, [("abort", "shard 1 raced the window barrier")])
    with pytest.raises(
        SimulationError,
        match="shard 3: aborted at window barrier: shard 1 raced",
    ):
        wire.sync([[], [], [], []], INF, -INF, 0, [])


def test_finish_and_fail_arrive_as_done_and_error():
    wire = ScriptedWire(0)
    wire.finish(("stats", 1.0, "result", None))
    wire.fail("Traceback: boom")
    assert wire.sent == [
        ("done", ("stats", 1.0, "result", None)),
        ("error", "Traceback: boom"),
    ]


@pytest.mark.parametrize("wire", [_scripted, _serial, _mp, _tcp])
def test_a_frame_tagged_with_the_wrong_barrier_is_refused_on_every_wire(wire):
    stale = ExchangeFrame.from_records(_records(1, [4.0], dst=0)).encode(7)
    channel, handles = wire(_decision([(1, stale)]))
    try:
        with pytest.raises(
            SimulationError,
            match="shard 0: exchange frame from shard 1 tagged barrier 7, "
                  "expected 0",
        ):
            channel.sync([[], []], INF, -INF, 0, [])
    finally:
        for handle in handles:
            handle.close()
