"""``ChordOverlay`` — bisect over a per-node reach index, O(log N) table
rebuilds — against the scalar core it replaced
(``tests/reference/chord_linear_scan.py``).

Four replicas follow one random join / leave / rejoin / ``stabilize``
script over at most 48 addresses, address 0 included: ``fast`` (the
authority, as shipped), ``slow`` (the oracle installed on it), ``view`` (a
directory view: restored once, then advanced *only* by ``diff_state`` →
``apply_state_edits``, which writes tables straight into the dicts) and
``copy`` (one long-lived instance that ``restore_state``\\ s the authority's
snapshot after every step).  After every step everything the rewrite could
move must be *equal*, not close: every ``RouteResult`` field for every live
origin over keys at member ids, id ± 1, the origin's 64 finger targets,
dead nodes' ids and the wrap point; the three table dicts;
``entries_built``; and the pickled ``export_state()`` / ``diff_state()``
bytes (directory control records and the WAL carry exactly those).  The
view and the copy routed before each edit, so a reach index that outlives
the lists it was built from shows up as a wrong path here.

The last test pins a known routing bug instead of an equivalence: a best
finger at peer *address* 0 is falsy and loses to the successor.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import install_linear_scan
from repro.errors import OverlayError
from repro.overlay.chord import ChordOverlay
from repro.overlay.idspace import ID_BITS, ID_SPACE, node_id_for

ADDRESSES = 48
TABLES = ("_fingers", "_successors", "_predecessors")

addresses = st.integers(0, ADDRESSES - 1)
steps = st.one_of(
    st.tuples(st.just("join"), addresses),
    st.tuples(st.just("leave"), addresses),
    st.tuples(st.just("stabilize")),
)
scripts = st.tuples(
    st.sets(addresses, max_size=ADDRESSES), st.lists(steps, max_size=16)
)


def _fields(result):
    return result.key, result.owner, result.path, result.success


def _refusal(overlay, origin):
    with pytest.raises(OverlayError) as refused:
        overlay.route(origin, 0)
    return str(refused.value)


class Replicas:
    def __init__(self):
        self.fast = ChordOverlay()
        self.slow = ChordOverlay()
        install_linear_scan(self.slow)
        self.view = ChordOverlay()
        self.view.restore_state(self.fast.export_state())
        self.copy = ChordOverlay()
        self.ever = set()  # dead nodes' ids stay interesting keys

    def step(self, op, *address):
        self.ever.update(address)
        before = self.fast.export_state(), self.slow.export_state()
        for overlay in (self.fast, self.slow):
            getattr(overlay, op)(*address)
        edits = self.fast.diff_state(before[0])
        assert pickle.dumps(edits) == pickle.dumps(
            self.slow.diff_state(before[1])
        )
        self.view.apply_state_edits(edits)
        self.copy.restore_state(self.fast.export_state())
        self.check()

    def check(self):
        slow = self.slow
        rewritten = (self.fast, self.view, self.copy)
        assert self.fast.entries_built == slow.entries_built
        state = pickle.dumps(slow.export_state())
        for overlay in rewritten:
            for table in TABLES:
                assert getattr(overlay, table) == getattr(slow, table), table
            assert pickle.dumps(overlay.export_state()) == state
            assert len(overlay) == len(slow)
        shared = {0, ID_SPACE - 1}
        for address in self.ever:
            overlay_id = node_id_for(address)
            shared.update((
                overlay_id, (overlay_id + 1) % ID_SPACE,
                (overlay_id - 1) % ID_SPACE,
            ))
        for origin in slow.members():
            own = node_id_for(origin)
            targets = {(own + (1 << i)) % ID_SPACE for i in range(ID_BITS)}
            for key in shared | targets:
                want = _fields(slow.route(origin, key))
                for overlay in rewritten:
                    assert _fields(overlay.route(origin, key)) == want, (
                        origin, key
                    )
        for stranger in (ADDRESSES, *(self.ever - set(slow.members()))):
            want = _refusal(slow, stranger)
            for overlay in rewritten:
                assert stranger not in overlay
                assert _refusal(overlay, stranger) == want


@settings(max_examples=50, deadline=None)
@given(scripts)
def test_every_replica_equals_the_linear_scan_after_every_step(script):
    founders, ops = script
    replicas = Replicas()
    replicas.check()  # the empty ring
    for address in sorted(founders):
        replicas.step("join", address)
    for op in ops:
        replicas.step(*op)


def test_empty_and_single_node_rings():
    replicas = Replicas()
    replicas.check()
    assert _refusal(replicas.fast, 0) == "node 0 is not an overlay member"
    with pytest.raises(OverlayError, match="empty ring"):
        replicas.fast._true_successor_address(1)
    replicas.step("join", 0)
    fast = replicas.fast
    assert (fast._fingers, fast._successors, fast._predecessors) == (
        {0: []}, {0: []}, {0: 0}
    )
    assert _fields(fast.route(0, node_id_for(0) + 7)) == (
        node_id_for(0) + 7, 0, [], True
    )
    replicas.step("leave", 0)
    replicas.step("join", 0)  # rejoin


def test_a_view_that_routed_before_its_edits_follows_them():
    """Deterministic form of what the property test leaves to chance: every
    node of the view has a reach index when the edits land."""
    replicas = Replicas()
    for address in range(24):
        replicas.step("join", address)
    replicas.step("stabilize")
    assert len(replicas.view._reach) == 24  # every node routed
    for address in (0, 5, 11, 17):
        replicas.step("leave", address)
    replicas.step("join", 30)
    replicas.step("stabilize")
    replicas.step("join", 5)  # rejoin into stale tables
    replicas.step("stabilize")


def test_an_entry_indexed_while_dead_is_routed_through_once_it_rejoins():
    """The one order the per-step checks above cannot produce: tables built,
    an entry dies, *then* the first lookup builds the index (``_ids`` has
    forgotten the entry: its place comes from ``node_id_for``), then the
    entry rejoins under the same lists."""
    replicas = Replicas()
    members = range(16)
    for overlay in (replicas.fast, replicas.slow):
        for address in members:
            overlay.join(address)
        overlay.stabilize()
        overlay.leave(7)
    assert not replicas.fast._reach  # nobody has routed yet
    keys = [node_id_for(address) + 1 for address in members]
    for origin in replicas.fast.members():
        for key in keys:
            replicas.fast.route(origin, key)
    indexed = [
        entries for _, _, _, entries in replicas.fast._reach.values()
        if 7 in entries
    ]
    assert indexed  # dead, and in its place all the same
    replicas.ever.update(members)
    replicas.view.restore_state(replicas.fast.export_state())
    replicas.step("join", 7)
    assert any(
        7 in _fields(replicas.fast.route(origin, key))[2]
        for origin in members for key in keys if origin != 7
    )


def test_a_best_finger_at_address_0_loses_to_the_successor():
    """Known bug, pinned.  ``route`` took ``_closest_preceding(...) or
    successor``; peer address 0 is falsy, so a lookup whose best finger is
    peer 0 hops to the successor instead.  The rewrite spells the same
    fallback out.  The fix moves golden digests
    (``tests/test_golden_determinism.py::
    test_sharded_training_digest_matches_golden[chord-nbagg-churn-2]`` is
    the first to fail) and rides the one deliberate re-pin of ROADMAP item
    3(b); when it lands, this test flips to the direct paths below."""
    overlay = ChordOverlay()
    for address in range(13):
        overlay.join(address)
    overlay.stabilize()
    assert overlay._ring_addresses[:4] == [2, 10, 0, 3]
    key = node_id_for(0) + 1  # owned by 3; the node just before it is 0
    assert overlay._true_successor_address(key) == 3
    for origin, detour in ((12, [2, 10, 0, 3]), (2, [10, 0, 3])):
        # peer 0 is a finger of the origin, and no entry is closer to the key
        assert 0 in overlay._fingers[origin]
        assert overlay._closest_preceding(origin, key) == 0
        assert overlay._successors[origin][0] != 0
        result = overlay.route(origin, key)
        assert _fields(result) == (key, 3, detour, True)  # fixed: [0, 3]
    # the same finger at any other address is taken
    assert overlay._closest_preceding(12, node_id_for(3) + 1) == 3
    assert overlay.route(12, node_id_for(3) + 1).path[0] == 3
