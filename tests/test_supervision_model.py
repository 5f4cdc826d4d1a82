"""A bounded exhaustive check of the fleet's supervision machine.

:class:`~repro.sim.tcpexec.Supervisor` takes events and returns actions
on an injected clock, so every schedule of a small fleet can be explored
with no socket and no sleep.  Here: K = 2 shards awaited at one barrier,
and every interleaving of up to four events per shard, each one of

- ``SYNC`` — the shard's protocol frame;
- ``PING`` — a heartbeat;
- ``EOF`` — the connection dies;
- ``deadline`` — the clock jumps to the shard's read deadline and the
  machine expires what is due.

A slot is bound to its worker from the fork, so on a respawned slot each
event is the replacement's: its first frame, its EOF, or its deadline.

Invariants, after every event:

- a state that still awaits anything has a pending deadline — the shell
  can always wake;
- the respawn budget is never exceeded;
- a completed round carries exactly one result per shard, and it is that
  shard's SYNC — every death on the way was recovered exactly once.

The checker is shown able to fail: a machine that takes an awaited
shard's PING for its result is caught, and so is one per invariant — a
machine that never expires a deadline, one that never spends its respawn
budget, and one that never counts a replacement live.
"""

import copy
import pickle

import pytest

from repro.sim.tcpexec import _K_PING, _K_SYNC, Supervisor

SHARDS = 2
DEPTH = 4
BUDGET = 1
TIMEOUT = 4.0
EVENTS = ("SYNC", "PING", "EOF", "deadline")


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
            SHARDS, TIMEOUT, BUDGET, lambda stop: [], self.clock
        )
        self.spawns = 0
        self.outcome = None

    def feed(self, actions):
        for action in actions:
            assert self.outcome is None, f"{action} after {self.outcome}"
            if action[0] == "spawn":
                self.spawns += 1
            if action[0] in ("done", "abort"):
                self.outcome = action

    def step(self, shard, event):
        """Apply one abstract event; False when it does not apply."""
        machine = self.machine
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
        times taken relative to the clock and the heartbeat count
        dropped."""
        machine, now = self.machine, self.clock.now
        return repr((
            sorted(machine.pending), sorted(machine.results.items()),
            sorted((shard, at - now)
                   for shard, at in machine.last_seen.items()),
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
    assert _explore(Supervisor) >= 371


class _PingIsAResult(Supervisor):
    """The mutation: an awaited shard's heartbeat counts as its frame."""

    def frame(self, conn, kind, payload):
        if kind == _K_PING and conn in self.pending:
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


class _DeadlinesNeverExpire(Supervisor):
    """The mutation: a silent shard is never declared dead."""

    def expire(self):
        return []


class _BudgetNeverSpent(Supervisor):
    """The mutation: every death may be respawned."""

    def _death(self, shard, reason):
        self.budget = self.max_respawns
        return super()._death(shard, reason)


class _ReplacementNeverCounted(Supervisor):
    """The mutation: a replacement's first frame does not count it live."""

    def frame(self, shard, kind, payload):
        respawns = self.faults["respawns"]
        actions = super().frame(shard, kind, payload)
        self.faults["respawns"] = respawns
        return actions


@pytest.mark.parametrize("mutant", (
    _DeadlinesNeverExpire, _BudgetNeverSpent, _ReplacementNeverCounted,
), ids=lambda mutant: mutant.__name__.lstrip("_"))
def test_the_checker_catches_a_machine_breaking_each_invariant(mutant):
    with pytest.raises(AssertionError):
        _explore(mutant)
