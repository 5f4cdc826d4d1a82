"""The window coordinator loop, driven by a scripted in-memory link.

``repro.sim.barrier.coordinate`` is the one barrier loop behind the
serial, mp and tcp executors.  These tests feed it canned rounds — no
threads, processes or sockets — and assert what the executors' end-to-end
suites cannot see: the exact error each divergence raises and *which*
workers are sent an abort, including when one of them is already dead.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.barrier import SyncStatus, coordinate
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import ScenarioConfig
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
