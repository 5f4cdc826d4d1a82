"""A bounded exhaustive check of the fleet's supervision machine.

:class:`~repro.sim.tcpexec.Supervisor` takes events and returns actions
on an injected clock, so every schedule of a small fleet can be explored
with no socket and no sleep.  Here: K = 2 shards awaited at one barrier,
and every interleaving of up to four events per shard, each one of

- ``SYNC`` — the shard's protocol frame; on an open slot, the replacement
  dialling in and completing its RECOVER handshake;
- ``PING`` — a heartbeat; on an open slot, a stray that claims it with a
  valid HELLO and then falls silent;
- ``EOF`` — the connection dies; on an open slot, a stray that claims it
  and hangs up;
- ``deadline`` — the clock jumps to the shard's own deadline (its read
  deadline, or its slot's claim deadline) and the machine expires what
  is due.

Invariants, after every event:

- a state that still awaits anything has a pending deadline — the shell
  can always wake;
- the respawn budget is never exceeded;
- a completed round carries exactly one result per shard, and it is that
  shard's SYNC — every death on the way was recovered exactly once.

The checker is shown able to fail: a machine that takes an awaited
shard's PING for its result is caught.
"""

import copy
import json
import pickle

from repro.sim.tcpexec import (
    _K_HELLO,
    _K_PING,
    _K_READY,
    _K_SYNC,
    PROTOCOL_VERSION,
    Supervisor,
)

SHARDS = 2
DEPTH = 4
BUDGET = 1
TIMEOUT = 4.0
EVENTS = ("SYNC", "PING", "EOF", "deadline")
#: what a connection that claims an open slot does after its HELLO, per
#: abstract event
ON_OPEN_SLOT = {"SYNC": "ready", "PING": "silent", "EOF": "eof"}


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Run:
    """One explored schedule: the machine, its clock, and what it did."""

    def __init__(self, machine_class):
        self.clock = _Clock()
        self.machine = machine_class(
            SHARDS, TIMEOUT, BUDGET, lambda stop: [], self.clock,
            fingerprint="fp",
        )
        self.spawns = 0
        self.strays = 0
        self.outcome = None

    def feed(self, actions):
        for action in actions:
            assert self.outcome is None, f"{action} after {self.outcome}"
            if action[0] == "spawn":
                self.spawns += 1
            if action[0] in ("done", "abort"):
                self.outcome = action

    def dial(self, shard, then):
        """A connection claims ``shard``'s open slot with a valid HELLO,
        then READYs, falls silent, or hangs up."""
        self.strays += 1
        conn = f"conn-{self.strays}"
        machine = self.machine
        self.feed(machine.opened(conn))
        hello = {"version": PROTOCOL_VERSION, "shard": shard, "forked": True}
        self.feed(machine.frame(conn, _K_HELLO, json.dumps(hello).encode()))
        if then == "ready":
            ready = {"shard": shard, "fingerprint": "fp"}
            ready = json.dumps(ready).encode()
            self.feed(machine.frame(conn, _K_READY, ready))
        elif then == "eof":
            self.feed(machine.closed(conn, "connection closed"))

    def step(self, shard, event):
        """Apply one abstract event; False when it does not apply."""
        machine = self.machine
        if shard in machine.open:
            if event == "deadline":
                self.clock.now = max(self.clock.now, machine.open[shard])
                self.feed(machine.expire())
            else:
                self.dial(shard, ON_OPEN_SLOT[event])
            return True
        if event == "SYNC":
            self.feed(machine.frame(shard, _K_SYNC, pickle.dumps(f"s{shard}")))
        elif event == "PING":
            self.feed(machine.frame(shard, _K_PING, b""))
        elif event == "EOF":
            self.feed(machine.closed(shard, "connection closed"))
        elif shard in machine.pending:
            due = machine.last_seen[shard] + TIMEOUT
            self.clock.now = max(self.clock.now, due)
            self.feed(machine.expire())
        else:  # a parked shard has no deadline of its own
            return False
        return True

    def state(self):
        """What can still change this schedule's future: the machine with
        times taken relative to the clock, connection names and the
        heartbeat count dropped."""
        machine, now = self.machine, self.clock.now
        return repr((
            sorted(machine.pending), sorted(machine.results.items()),
            sorted((shard, at - now)
                   for shard, at in machine.last_seen.items()),
            sorted((shard, at - now) for shard, at in machine.open.items()),
            sorted((at - now, slot) for at, slot in machine.greeting.values()),
            sorted(machine.replaying.items()), sorted(machine.dead),
            machine.budget, self.spawns,
            sorted(
                item for item in machine.faults.items()
                if item[0] != "heartbeats"
            ),
        ))

    def check(self):
        machine = self.machine
        assert self.spawns <= BUDGET
        assert machine.faults["respawns"] <= BUDGET
        if self.outcome is None:  # it can always wake, and has expired
            assert machine.deadline() > self.clock.now  # all that was due
        elif self.outcome[0] == "done":
            assert self.outcome[1] == [
                (shard, "sync", f"s{shard}") for shard in range(SHARDS)
            ]
            assert machine.faults["respawns"] == self.spawns == (
                machine.faults["worker_deaths"]
            )


def _explore(machine_class):
    """Every schedule, depth-first, each distinct state expanded once;
    returns how many distinct states were reached."""
    root = _Run(machine_class)
    root.feed(root.machine.collect(0))
    stack = [(root, (0,) * SHARDS)]
    seen = set()
    while stack:
        run, used = stack.pop()
        for shard in range(SHARDS):
            if used[shard] == DEPTH or shard in run.machine.dead:
                continue  # a quarantined connection says nothing more
            for event in EVENTS:
                child = copy.deepcopy(run)
                if not child.step(shard, event):
                    continue
                child.check()
                more = used[:shard] + (used[shard] + 1,) + used[shard + 1:]
                if child.outcome is None and (child.state(), more) not in seen:
                    seen.add((child.state(), more))
                    stack.append((child, more))
    return len(seen)


def test_every_schedule_at_one_barrier_keeps_the_invariants():
    assert _explore(Supervisor) > 1_000


class _PingIsAResult(Supervisor):
    """The mutation: an awaited shard's heartbeat counts as its frame."""

    def frame(self, conn, kind, payload):
        awaited = conn in self.pending and conn not in self.greeting
        if kind == _K_PING and awaited:
            self.pending.discard(conn)
            self.results[conn] = ("sync", "heartbeat")
            return self._progress()
        return super().frame(conn, kind, payload)


def test_the_checker_catches_a_heartbeat_taken_for_a_result():
    try:
        _explore(_PingIsAResult)
    except AssertionError:
        return
    raise AssertionError("the mutant machine passed the exhaustive check")
