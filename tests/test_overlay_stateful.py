"""Stateful property tests: overlay invariants under arbitrary churn.

Hypothesis drives random join/leave/stabilize sequences against Chord and
Kademlia and checks the invariants the P2P classifiers rely on:

- after stabilization, every origin agrees on each key's owner (Chord);
- routing never raises for live members and never loops forever;
- staleness is 0 right after stabilization;
- membership bookkeeping matches the driven sequence exactly.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.overlay.chord import ChordOverlay
from repro.overlay.idspace import key_id_for
from repro.overlay.kademlia import KademliaOverlay


class ChordMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.overlay = ChordOverlay()
        self.live = set()
        self.next_address = 0
        self.stale = False

    @rule()
    def join(self):
        self.overlay.join(self.next_address)
        self.live.add(self.next_address)
        self.next_address += 1
        self.stale = True

    @precondition(lambda self: len(self.live) > 1)
    @rule(data=st.data())
    def leave(self, data):
        victim = data.draw(st.sampled_from(sorted(self.live)))
        self.overlay.leave(victim)
        self.live.discard(victim)
        self.stale = True

    @precondition(lambda self: self.live)
    @rule()
    def stabilize(self):
        self.overlay.stabilize()
        self.stale = False

    @precondition(lambda self: self.live)
    @rule(key_name=st.text(min_size=1, max_size=8))
    def route_never_crashes(self, key_name):
        origin = min(self.live)
        result = self.overlay.route(origin, key_id_for(key_name))
        # Bounded path; owner (when successful) is a live member.
        assert result.hops <= self.overlay.max_hops
        if result.success:
            assert result.owner in self.live

    @invariant()
    def membership_matches(self):
        assert set(self.overlay.members()) == self.live

    @invariant()
    def stabilized_ring_is_consistent(self):
        if self.stale or len(self.live) < 2:
            return
        key = key_id_for("invariant-probe")
        owners = {
            self.overlay.route(origin, key).owner
            for origin in sorted(self.live)[:5]
        }
        assert len(owners) == 1
        assert self.overlay.staleness() == 0.0


class KademliaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.overlay = KademliaOverlay(seed=3)
        self.live = set()
        self.next_address = 0

    @rule()
    def join(self):
        self.overlay.join(self.next_address)
        self.live.add(self.next_address)
        self.next_address += 1

    @precondition(lambda self: len(self.live) > 1)
    @rule(data=st.data())
    def leave(self, data):
        victim = data.draw(st.sampled_from(sorted(self.live)))
        self.overlay.leave(victim)
        self.live.discard(victim)

    @precondition(lambda self: self.live)
    @rule()
    def refresh(self):
        self.overlay.stabilize()

    @precondition(lambda self: self.live)
    @rule(key_name=st.text(min_size=1, max_size=8))
    def lookup_never_crashes(self, key_name):
        origin = min(self.live)
        result = self.overlay.route(origin, key_id_for(key_name))
        if result.success:
            assert result.owner in self.live

    @invariant()
    def membership_matches(self):
        assert set(self.overlay.members()) == self.live

    @invariant()
    def buckets_hold_no_self(self):
        for address in self.live:
            assert address not in self.overlay.neighbors(address)


TestChordStateful = ChordMachine.TestCase
TestChordStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestKademliaStateful = KademliaMachine.TestCase
TestKademliaStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
