"""Make a forked fleet worker misbehave on cue, for the recovery tests.

``install(monkeypatch, tmp_path, (kind, shard, barrier), ...)`` patches the
fleet before a run forks it: shard ``shard``'s worker misbehaves at window
barrier ``barrier``, just before it would sync —

- ``crash``: ``os._exit``;
- ``stall``: sleeps ``stall_s`` seconds while its heartbeat keeps flowing,
  then syncs (a slow worker, which must be waited out, not respawned);
- ``halfopen``: stops its heartbeat and goes silent with its socket open
  until the coordinator hangs up on it, then exits;
- ``corrupt`` / ``truncate``: sends a SYNC header with a bad magic, or one
  promising more bytes than follow, then exits.

Only a slot's first incarnation misbehaves: the first worker to reach a
cue creates the cue's marker file (``O_CREAT | O_EXCL``) and the
replacement, replayed to the same barrier, finds it taken.
"""

import os
import threading
import time
from typing import NamedTuple

import repro.sim.tcpexec as tcpexec
from repro.sim.tcpexec import _K_SYNC, _WIRE_HEADER, _WIRE_MAGIC


class Cue(NamedTuple):
    kind: str
    shard: int
    barrier: int


def _crash(channel, stall_s):
    os._exit(3)


def _stall(channel, stall_s):
    time.sleep(stall_s)  # the heartbeat thread keeps pinging


def _half_open(channel, stall_s):
    for thread in threading.enumerate():
        if isinstance(thread, tcpexec._Heartbeat):
            thread.stop()
    channel.sock.settimeout(None)
    try:
        while channel.sock.recv(1 << 16):  # silent until the coordinator
            pass  # hangs up on it
    except OSError:
        pass
    os._exit(3)


def _garbled(header):
    def send(channel, stall_s):
        with channel.lock:  # no heartbeat may follow the bad bytes
            channel.sock.sendall(_WIRE_HEADER.pack(*header) + b"x" * 8)
            os._exit(3)
    return send


#: the SYNC header each garbling worker sends ahead of its 8 bytes
GARBLED = {
    "corrupt": (0x0BADF00D, _K_SYNC, 8),
    "truncate": (_WIRE_MAGIC, _K_SYNC, 8 + 64),
}

MISBEHAVIOURS = {
    "crash": _crash,
    "stall": _stall,
    "halfopen": _half_open,
    **{kind: _garbled(header) for kind, header in GARBLED.items()},
}


class Fleet:
    """The cues of one run, their markers, every connection a coordinator
    opened and every coordinator the run built (recorded at teardown)."""

    def __init__(self, tmp_path, cues):
        self.markers = {
            cue: tmp_path / f"{cue.kind}-shard{cue.shard}-barrier{cue.barrier}"
            for cue in cues
        }
        self.connections = []
        self.coordinators = []

    def fired(self):
        """The cues some worker acted on."""
        return [cue for cue, marker in self.markers.items() if marker.exists()]

    def assert_torn_down(self):
        """Every connection closed and every forked worker reaped."""
        assert self.coordinators and self.connections
        assert all(conn.fileno() == -1 for conn in self.connections)
        for coordinator in self.coordinators:
            assert all(p.exitcode is not None for p in coordinator.processes)


def _first(marker):
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def install(monkeypatch, tmp_path, *cues, stall_s=6.0):
    """Cue each ``(kind, shard, barrier)`` into the next fleet run."""
    cues = [Cue(*cue) for cue in cues]
    assert all(cue.kind in MISBEHAVIOURS for cue in cues), cues
    fleet = Fleet(tmp_path, cues)
    run_worker = tcpexec._run_worker
    spawn = tcpexec.TcpCoordinator._spawn
    close = tcpexec.TcpCoordinator.close

    def cued_run_worker(channel, *args):
        mine = {c.barrier: c for c in cues if c.shard == channel.shard_id}
        sync = channel.sync

        def cued_sync(*sync_args):
            cue = mine.get(channel._barrier)
            if cue is not None and _first(fleet.markers[cue]):
                MISBEHAVIOURS[cue.kind](channel, stall_s)
            return sync(*sync_args)

        channel.sync = cued_sync
        return run_worker(channel, *args)

    def recorded_spawn(coordinator, shard_id):
        spawn(coordinator, shard_id)
        fleet.connections.append(coordinator.connections[shard_id])

    def recorded_close(coordinator):
        fleet.coordinators.append(coordinator)
        close(coordinator)

    monkeypatch.setattr(tcpexec, "_run_worker", cued_run_worker)
    monkeypatch.setattr(tcpexec.TcpCoordinator, "_spawn", recorded_spawn)
    monkeypatch.setattr(tcpexec.TcpCoordinator, "close", recorded_close)
    return fleet
