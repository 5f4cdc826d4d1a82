"""Tests for Chord, Kademlia, unstructured overlays, and super-peer election."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OverlayError
from repro.overlay import make_overlay, overlay_names
from repro.overlay.base import Overlay, RouteResult
from repro.overlay.chord import ChordOverlay
from repro.overlay.idspace import (
    ID_SPACE,
    in_interval,
    key_id_for,
    node_id_for,
    ring_distance,
    xor_distance,
)
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.superpeer import SuperPeerDirectory, SuperPeerOverlay
from repro.overlay.unstructured import UnstructuredOverlay


class TestIdSpace:
    def test_ids_deterministic(self):
        assert node_id_for(5) == node_id_for(5)
        assert key_id_for("music") == key_id_for("music")

    def test_node_and_key_spaces_disjointish(self):
        assert node_id_for(5) != key_id_for("5")

    def test_ids_in_range(self):
        for i in range(50):
            assert 0 <= node_id_for(i) < ID_SPACE

    def test_ring_distance(self):
        assert ring_distance(5, 10) == 5
        assert ring_distance(10, 5) == ID_SPACE - 5
        assert ring_distance(7, 7) == 0

    def test_xor_distance_metric(self):
        assert xor_distance(5, 5) == 0
        assert xor_distance(1, 2) == xor_distance(2, 1)

    def test_in_interval_simple(self):
        assert in_interval(5, 1, 10)
        assert not in_interval(1, 1, 10)
        assert in_interval(10, 1, 10)
        assert not in_interval(10, 1, 10, inclusive_right=False)

    def test_in_interval_wrapping(self):
        assert in_interval(1, 100, 5)
        assert in_interval(101, 100, 5)
        assert not in_interval(50, 100, 5)

    def test_in_interval_degenerate_full_circle(self):
        assert in_interval(7, 3, 3)


def chord(n, stabilized=True):
    overlay = ChordOverlay()
    for address in range(n):
        overlay.join(address)
    if stabilized:
        overlay.stabilize()
    return overlay


class TestChord:
    def test_route_finds_true_owner(self):
        overlay = chord(32)
        for key_source in ("music", "linux", "travel", "a", "zz"):
            key = key_id_for(key_source)
            expected = overlay._true_successor_address(key)
            for origin in (0, 7, 31):
                result = overlay.route(origin, key)
                assert result.success
                assert result.owner == expected

    def test_routing_hops_logarithmic(self):
        overlay = chord(64)
        hops = [
            overlay.route(0, key_id_for(f"key{i}")).hops for i in range(50)
        ]
        assert max(hops) <= 16  # ~log2(64)=6 expected; generous bound

    def test_single_node_owns_everything(self):
        overlay = chord(1)
        result = overlay.route(0, key_id_for("anything"))
        assert result.owner == 0
        assert result.hops == 0

    def test_rejoin_idempotent(self):
        overlay = chord(4)
        overlay.join(2)
        assert len(overlay) == 4

    def test_route_from_nonmember_raises(self):
        overlay = chord(4)
        with pytest.raises(OverlayError):
            overlay.route(99, 123)

    def test_leave_reassigns_ownership(self):
        overlay = chord(16)
        key = key_id_for("some-tag")
        owner = overlay.route(0, key).owner
        overlay.leave(owner)
        overlay.stabilize()
        origin = 0 if owner != 0 else 1
        new_owner = overlay.route(origin, key).owner
        assert new_owner is not None
        assert new_owner != owner

    def test_staleness_after_crash(self):
        overlay = chord(32)
        assert overlay.staleness() == 0.0
        for address in range(8):
            overlay.leave(address)
        assert overlay.staleness() > 0.0
        overlay.stabilize()
        assert overlay.staleness() == 0.0

    def test_routing_survives_moderate_churn_after_stabilize(self):
        overlay = chord(32)
        for address in (3, 9, 17, 25):
            overlay.leave(address)
        overlay.stabilize()
        result = overlay.route(0, key_id_for("post-churn"))
        assert result.success

    def test_neighbors_live_only(self):
        overlay = chord(16)
        overlay.leave(5)
        for address in overlay.members():
            assert 5 not in overlay.neighbors(address)


class TestKademlia:
    def make(self, n, seed=0):
        overlay = KademliaOverlay(seed=seed)
        for address in range(n):
            overlay.join(address)
        overlay.stabilize()
        return overlay

    def test_lookup_converges_to_owner(self):
        overlay = self.make(32)
        found = 0
        for i in range(20):
            key = key_id_for(f"key{i}")
            result = overlay.route(0, key)
            if result.success and result.owner == overlay.true_owner(key):
                found += 1
        assert found >= 16  # iterative lookup over sampled buckets

    def test_single_node(self):
        overlay = KademliaOverlay()
        overlay.join(0)
        result = overlay.route(0, key_id_for("x"))
        assert result.owner == 0

    def test_leave_and_staleness(self):
        overlay = self.make(32)
        for address in range(8):
            overlay.leave(address)
        assert overlay.staleness() > 0.0
        overlay.stabilize()
        assert overlay.staleness() == 0.0

    def test_dead_contacts_charge_hops(self):
        overlay = self.make(16, seed=3)
        for address in range(4):
            overlay.leave(address)
        # Without refresh, lookups may touch dead contacts; hops still count.
        result = overlay.route(8, key_id_for("churny"))
        assert result.hops >= 1

    def test_nonmember_raises(self):
        overlay = self.make(4)
        with pytest.raises(OverlayError):
            overlay.route(77, 1)

    def test_neighbors_nonempty_after_stabilize(self):
        overlay = self.make(16)
        for address in overlay.members():
            assert overlay.neighbors(address)


class TestUnstructured:
    def make(self, n, degree=4, seed=0):
        overlay = UnstructuredOverlay(degree=degree, seed=seed)
        for address in range(n):
            overlay.join(address)
        return overlay

    def test_join_links_degree_nodes(self):
        overlay = self.make(20)
        degrees = [len(overlay.neighbors(a)) for a in overlay.members()]
        assert min(degrees) >= 1
        assert sum(degrees) >= 2 * 4 * (20 - 5)  # rough lower bound

    def test_flood_reaches_connected_graph(self):
        overlay = self.make(30)
        result = overlay.flood(0, ttl=10)
        assert result.coverage(30) == pytest.approx(1.0)
        assert result.messages > 0

    def test_flood_ttl_limits_reach(self):
        overlay = self.make(50, degree=2, seed=1)
        shallow = overlay.flood(0, ttl=1)
        deep = overlay.flood(0, ttl=10)
        assert len(shallow.reached) <= len(deep.reached)

    def test_gossip_high_coverage(self):
        overlay = self.make(40, degree=6)
        result = overlay.gossip(0, fanout=3, rounds=15)
        assert result.coverage(40) >= 0.9

    def test_leave_removes_edges(self):
        overlay = self.make(10)
        victim_neighbors = overlay.neighbors(3)
        overlay.leave(3)
        for neighbor in victim_neighbors:
            assert 3 not in overlay.neighbors(neighbor)

    def test_repair_restores_degree(self):
        overlay = self.make(20, degree=4)
        for address in range(8):
            overlay.leave(address)
        added = overlay.repair()
        for address in overlay.members():
            assert len(overlay.neighbors(address)) >= min(4, len(overlay) - 1)
        assert added >= 0

    def test_route_greedy_walk(self):
        overlay = self.make(20, degree=6)
        key = node_id_for(13)
        result = overlay.route(0, key)
        # Greedy walks can fail; when they succeed the owner matches.
        if result.success:
            assert result.owner == 13

    def test_invalid_degree(self):
        with pytest.raises(OverlayError):
            UnstructuredOverlay(degree=0)


class TestSuperPeers:
    def test_deterministic_location(self):
        overlay = chord(32)
        directory = SuperPeerDirectory(overlay, num_regions=4)
        owners_a = directory.owners(0, "music")
        owners_b = directory.owners(17, "music")
        assert owners_a == owners_b  # any origin resolves the same super-peers

    def test_regions_cover_all(self):
        overlay = chord(32)
        directory = SuperPeerDirectory(overlay, num_regions=4)
        owners = directory.owners(0, "travel")
        assert set(owners) == {0, 1, 2, 3}
        assert all(owner is not None for owner in owners.values())

    def test_different_tags_usually_different_superpeers(self):
        overlay = chord(64)
        directory = SuperPeerDirectory(overlay, num_regions=1)
        owners = {
            tag: directory.owners(0, tag)[0]
            for tag in ("music", "travel", "linux", "science", "art")
        }
        assert len(set(owners.values())) >= 2

    def test_region_of_balanced(self):
        directory = SuperPeerDirectory(chord(8), num_regions=4)
        regions = [directory.region_of(address) for address in range(100)]
        assert set(regions) == {0, 1, 2, 3}

    def test_churned_superpeer_responsibility_migrates(self):
        overlay = chord(32)
        directory = SuperPeerDirectory(overlay, num_regions=1)
        old = directory.owners(0, "music")[0]
        overlay.leave(old)
        overlay.stabilize()
        origin = 0 if old != 0 else 1
        new = directory.owners(origin, "music")[0]
        assert new is not None and new != old

    def test_invalid_regions(self):
        with pytest.raises(OverlayError):
            SuperPeerDirectory(chord(4), num_regions=0)


def superpeer(n, ratio=4):
    overlay = SuperPeerOverlay(ratio=ratio)
    for address in range(n):
        overlay.join(address)
    return overlay


class TestSuperPeerOverlay:
    def test_registered_in_factory(self):
        from repro.overlay import make_overlay, overlay_names

        assert "superpeer" in overlay_names()
        overlay = make_overlay("superpeer", seed=1, degree=4)
        assert isinstance(overlay, SuperPeerOverlay)

    def test_election_is_deterministic_and_join_order_independent(self):
        a = superpeer(30)
        b = SuperPeerOverlay()
        for address in reversed(range(30)):
            b.join(address)
        assert a.super_peers() == b.super_peers()
        assert sorted(a.members()) == sorted(b.members())

    def test_core_is_a_strict_subset_at_scale(self):
        overlay = superpeer(200)
        supers = set(overlay.super_peers())
        assert 0 < len(supers) < 200
        # roughly 1/ratio of the population is elected
        assert 200 // 16 <= len(supers) <= 200 // 2

    def test_all_origins_agree_on_owner(self):
        overlay = superpeer(40)
        key = key_id_for("sp|music|0")
        owners = {overlay.route(origin, key).owner for origin in range(40)}
        assert len(owners) == 1
        assert owners.pop() in set(overlay.super_peers())

    def test_routes_are_at_most_two_hops(self):
        overlay = superpeer(60)
        for origin in range(60):
            route = overlay.route(origin, key_id_for(f"k{origin}"))
            assert route.success
            assert 0 <= route.hops <= 2
            assert origin not in route.path

    def test_leaf_routes_through_its_attachment(self):
        overlay = superpeer(60)
        supers = set(overlay.super_peers())
        leaves = [a for a in overlay.members() if a not in supers]
        assert leaves, "expected at least one leaf at N=60"
        leaf = leaves[0]
        attach = overlay.attachment(leaf)
        assert attach in supers
        route = overlay.route(leaf, key_id_for("faraway"))
        if route.hops == 2:
            assert route.path[0] == attach

    def test_neighbors_two_tier_shape(self):
        overlay = superpeer(60)
        supers = set(overlay.super_peers())
        for address in overlay.members():
            links = overlay.neighbors(address)
            assert address not in links
            if address not in supers:
                assert len(links) == 1 and links[0] in supers
            else:
                assert set(overlay.super_peers()) - {address} <= set(links)

    def test_empty_core_degrades_to_flat_ring(self):
        overlay = superpeer(20)
        for address in list(overlay.super_peers()):
            overlay.leave(address)
        assert overlay.super_peers() == []
        members = overlay.members()
        key = key_id_for("still-works")
        owners = {overlay.route(origin, key).owner for origin in members}
        assert len(owners) == 1 and owners.pop() in set(members)

    def test_churned_superpeer_responsibility_migrates(self):
        overlay = superpeer(40)
        key = key_id_for("migrate-me")
        old = overlay.route(0, key).owner
        overlay.leave(old)
        origin = 0 if old != 0 else 1
        new = overlay.route(origin, key).owner
        assert new != old and new in set(overlay.members())
        overlay.join(old)
        assert overlay.route(origin, key).owner == old

    def test_non_member_rejected(self):
        overlay = superpeer(8)
        with pytest.raises(OverlayError):
            overlay.route(99, 5)
        with pytest.raises(OverlayError):
            SuperPeerOverlay(ratio=0)


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=40), st.text(min_size=1, max_size=12))
def test_chord_ownership_is_consistent(n, key_name):
    """Property: all origins agree on the owner of any key (stabilized ring)."""
    overlay = chord(n)
    key = key_id_for(key_name)
    owners = {overlay.route(origin, key).owner for origin in range(0, n, max(1, n // 5))}
    assert len(owners) == 1


@pytest.mark.parametrize("name", overlay_names())
def test_membership_is_one_lookup_and_agrees_with_members(name):
    """``address in overlay`` answers from the overlay's own dict on every
    registered overlay (no N-element ``members()`` list per test), tracks
    join / leave / rejoin, and is what ``require_member`` raises from."""
    overlay = make_overlay(name, seed=1, degree=3)
    assert type(overlay).__contains__ is not Overlay.__contains__
    assert 0 not in overlay
    for address in range(6):
        overlay.join(address)
    overlay.leave(0)
    overlay.leave(4)
    overlay.join(4)
    for address in range(8):
        assert (address in overlay) == (address in overlay.members())
    overlay.require_member(4)
    with pytest.raises(OverlayError, match="^node 0 is not an overlay member$"):
        overlay.require_member(0)


def test_the_base_overlay_answers_membership_from_members():
    class Listed(Overlay):
        join = leave = route = neighbors = None

        def members(self):
            return [3, 5]

    listed = Listed()
    assert 5 in listed and 4 not in listed
    with pytest.raises(OverlayError, match="node 4 is not an overlay member"):
        listed.require_member(4)
