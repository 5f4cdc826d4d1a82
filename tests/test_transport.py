"""Tests for the unified transport layer.

Pins the three guarantees the refactor made: cross-overlay determinism
(same seed, same overlay → bit-identical stats), batched/unbatched send
equivalence (same RNG stream, same delivery times, same stats), and
hop-charging parity with the old per-protocol send paths.
"""

import pytest

from repro.errors import SimulationError
from repro.overlay import make_overlay, overlay_names
from repro.sim.churn import ChurnDriver, ExponentialChurn
from repro.sim.codec import make_codec_table, register_traffic_class
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import (
    LatencyModel, PhysicalNetwork, SharedStream, pair_mix64,
)
from repro.sim.stats import StatsCollector
from repro.sim.transport import Transport

from reference import install_per_message_broadcast

ALL_OVERLAYS = (
    "chord", "kademlia", "pastry", "unstructured", "fullmesh", "superpeer"
)

# Traffic classes for the synthetic workload's message types, so the
# "tuned" composite table dispatches on them like real protocol traffic.
register_traffic_class("t.upload", "model")
register_traffic_class("t.bcast", "model")
register_traffic_class("t.query", "vector")


def build_transport(num_nodes=12, overlay_name=None, seed=0, drop=0.0,
                    codec=None):
    simulator = Simulator(seed=seed)
    stats = StatsCollector()
    network = PhysicalNetwork(
        simulator,
        SharedStream(simulator.rng),
        latency=LatencyModel(drop_probability=drop),
        stats=stats,
    )
    for node in range(num_nodes):
        network.register(node, lambda message: None)
    overlay = None
    if overlay_name is not None:
        overlay = make_overlay(overlay_name, seed=seed, degree=4)
        for node in range(num_nodes):
            overlay.join(node)
        overlay.stabilize()
    return Transport(
        network,
        overlay=overlay,
        stats=stats,
        codec=make_codec_table(codec) if codec is not None else None,
    )


def stats_fingerprint(stats):
    return (
        dict(stats.messages_by_type),
        dict(stats.bytes_by_type),
        dict(stats.hops_by_type),
        dict(stats.per_peer_bytes),
        dict(stats.per_peer_received),
        dict(stats.counters),
    )


def drive_workload(transport):
    """A deterministic mixed workload: routed sends, broadcasts, unicast."""
    from repro.overlay.idspace import key_id_for

    for origin in range(6):
        transport.route_and_send(
            origin, key_id_for(f"key{origin}"), "t.upload", {"w": [1.0] * origin}
        )
    transport.broadcast(0, "t.bcast", "payload" * 10)
    for origin in range(1, 6):
        transport.send(origin, 0, "t.query", "q" * origin, hops=2)
    transport.flush()


class TestRegistry:
    def test_all_six_overlays_registered(self):
        assert set(ALL_OVERLAYS) <= set(overlay_names())

    def test_make_overlay_unknown_name(self):
        from repro.errors import OverlayError

        with pytest.raises(OverlayError):
            make_overlay("no-such-overlay")

    @pytest.mark.parametrize("name", ALL_OVERLAYS)
    def test_factory_builds_working_overlay(self, name):
        overlay = make_overlay(name, seed=3, degree=4)
        for node in range(8):
            overlay.join(node)
        assert len(overlay.members()) == 8


class TestCrossOverlayDeterminism:
    @pytest.mark.parametrize("name", ALL_OVERLAYS)
    def test_same_seed_identical_stats(self, name):
        first = build_transport(overlay_name=name, seed=7)
        second = build_transport(overlay_name=name, seed=7)
        drive_workload(first)
        drive_workload(second)
        assert stats_fingerprint(first.stats) == stats_fingerprint(second.stats)
        assert first.simulator.now == second.simulator.now
        assert first.simulator.events_processed == second.simulator.events_processed


class TestBatchedEquivalence:
    @staticmethod
    def _messages():
        return [
            Message(src=i % 5, dst=(i + 1) % 5, msg_type="m", payload="x" * i)
            for i in range(1, 40)
        ]

    def _delivery_log(self, transport, batched):
        log = []
        network = transport.network
        for node in range(5):
            network.register(
                node,
                lambda message, log=log: log.append((
                    transport.simulator.now,
                    (message.src, message.dst, message.payload),
                )),
            )
        messages = self._messages()
        if batched:
            outcomes = transport.send_batch(messages)
        else:
            outcomes = [transport.send_message(m) for m in messages]
        transport.flush()
        times = [t for t, _ in log]
        return [o.delivered for o in outcomes], times, transport.stats

    def test_batch_matches_sequential(self):
        batched = build_transport(num_nodes=5, seed=11)
        sequential = build_transport(num_nodes=5, seed=11)
        b_ok, b_times, b_stats = self._delivery_log(batched, batched=True)
        s_ok, s_times, s_stats = self._delivery_log(sequential, batched=False)
        assert b_ok == s_ok
        assert b_times == s_times  # bit-identical jitter draws
        assert stats_fingerprint(b_stats) == stats_fingerprint(s_stats)

    def test_batch_matches_sequential_with_loss(self):
        # With loss the batch path must fall back to per-message draws to
        # keep the drop/jitter stream interleaving identical.
        batched = build_transport(num_nodes=5, seed=5, drop=0.3)
        sequential = build_transport(num_nodes=5, seed=5, drop=0.3)
        b_ok, b_times, b_stats = self._delivery_log(batched, batched=True)
        s_ok, s_times, s_stats = self._delivery_log(sequential, batched=False)
        assert b_ok == s_ok
        assert b_times == s_times
        assert stats_fingerprint(b_stats) == stats_fingerprint(s_stats)

    def test_batch_down_source_not_charged(self):
        transport = build_transport(num_nodes=4, seed=2)
        transport.network.set_down(1)
        messages = [
            Message(src=0, dst=2, msg_type="m"),
            Message(src=1, dst=2, msg_type="m"),  # down source: never sent
            Message(src=2, dst=3, msg_type="m"),
        ]
        outcomes = transport.send_batch(messages)
        assert [o.sent for o in outcomes] == [True, False, True]
        assert transport.stats.messages_by_type["m"] == 2

    def test_batch_loopback_rejected_before_side_effects(self):
        transport = build_transport(num_nodes=4, seed=2)
        with pytest.raises(SimulationError):
            transport.send_batch(
                [
                    Message(src=0, dst=2, msg_type="m"),
                    Message(src=3, dst=3, msg_type="m"),  # loopback
                ]
            )
        # The whole block is rejected up front: nothing charged or queued.
        assert transport.stats.total_messages == 0
        assert transport.simulator.pending_events == 0

    def test_listeners_see_attempts_from_down_sources(self):
        # Parity with the seed tracer, which recorded before the liveness
        # check: a down source's attempt is traced even though nothing is
        # charged or delivered.
        transport = build_transport(num_nodes=4, seed=2)
        seen = []
        transport.network.add_block_listener(
            lambda block: seen.extend(row[0] for row in block.rows())
        )
        transport.network.set_down(1)
        transport.send_batch(
            [Message(src=1, dst=2, msg_type="m"),
             Message(src=0, dst=2, msg_type="m")]
        )
        transport.send_message(Message(src=1, dst=3, msg_type="m"))
        assert seen == [1, 0, 1]
        assert transport.stats.messages_by_type["m"] == 1


class TestBatchedStormUnderChurn:
    """Conservation while liveness flips under a ``send_batch`` storm (the
    all-up half is ``test_batch_matches_sequential`` plus the storm checks
    of ``benchmarks/perf``): a down source charges nothing, and every
    charged message is either delivered or counted undeliverable."""

    def test_every_charged_message_is_delivered_or_counted_undeliverable(self):
        nodes, rounds, fanout = 100, 5, 10
        transport = build_transport(num_nodes=nodes, seed=3)
        network, simulator = transport.network, transport.simulator
        delivered = []
        for node in range(nodes):
            network.register(node, delivered.append)
        driver = ChurnDriver(
            simulator, network, ExponentialChurn(6.0, 2.0), network.streams
        )
        driver.start(list(range(nodes)))
        for round_index in range(rounds):
            block = []
            for src in range(nodes):
                for k in range(fanout):
                    dst = (src + 1 + (round_index * fanout + k) * 7) % nodes
                    if dst == src:
                        dst = (dst + 1) % nodes
                    block.append(Message(
                        src=src, dst=dst, msg_type="storm", payload="x" * 160
                    ))
            transport.send_batch(block)
            # the queue never drains under churn: advance a bounded window
            simulator.run(until=simulator.now + 2.0)
        # churn keeps cycling; the storm's stragglers land within 5 s
        simulator.run(until=simulator.now + 5.0)

        charged = transport.stats.total_messages
        undeliverable = transport.stats.counters["messages_undeliverable"]
        assert driver.leave_count + driver.join_count > 0
        assert charged < nodes * fanout * rounds
        assert len(delivered) < charged
        assert len(delivered) + undeliverable == charged


class TestHopChargingParity:
    """Transport.route_and_send must charge exactly what the old
    per-protocol code charged: a Message with hops=max(1, route.hops)."""

    @pytest.mark.parametrize(
        "name", ("chord", "kademlia", "pastry", "fullmesh", "superpeer")
    )
    def test_route_and_send_matches_manual_path(self, name):
        from repro.overlay.idspace import key_id_for

        via_transport = build_transport(overlay_name=name, seed=9)
        manual = build_transport(overlay_name=name, seed=9)
        payload = {"weights": [0.5, 0.25]}
        for origin in range(12):
            key = key_id_for(f"sp|tag{origin % 3}|0")
            # New single-call path.
            via_transport.route_and_send(origin, key, "upload", payload)
            # Old per-protocol path, verbatim.
            route = manual.overlay.route(origin, key)
            if not route.success or route.owner is None:
                continue
            if route.owner == origin:
                continue
            manual.network.send(
                Message(
                    src=origin,
                    dst=route.owner,
                    msg_type="upload",
                    payload=payload,
                    hops=max(1, route.hops),
                )
            )
        via_transport.flush()
        manual.flush()
        assert stats_fingerprint(via_transport.stats) == stats_fingerprint(
            manual.stats
        )

    def test_loopback_sends_nothing(self):
        transport = build_transport(overlay_name="fullmesh", seed=0)
        owner_route = transport.route(3, 0)
        outcome = transport.route_and_send(
            owner_route.owner, 0, "upload", "data"
        )
        assert outcome.loopback and outcome.delivered and not outcome.sent
        assert transport.stats.total_messages == 0

    def test_charge_matches_record_message(self):
        charged = build_transport(num_nodes=4)
        messaged = build_transport(num_nodes=4)
        charged.charge(src=1, dst=2, msg_type="probe", size_bytes=48, hops=3)
        messaged.stats.record_message(
            Message(src=1, dst=2, msg_type="probe", size_bytes=48, hops=3)
        )
        assert stats_fingerprint(charged.stats) == stats_fingerprint(
            messaged.stats
        )


class TestBroadcast:
    def test_flood_supplies_recipients_on_unstructured(self):
        transport = build_transport(overlay_name="unstructured", seed=4)
        result = transport.broadcast(0, "b", "payload")
        reached = {dst for dst, _ in result.outcomes}
        assert 0 not in reached
        assert len(reached) == 11  # flood reaches the whole connected graph
        assert result.redundant_messages > 0

    def test_membership_recipients_on_dht(self):
        transport = build_transport(overlay_name="chord", seed=4)
        result = transport.broadcast(0, "b", "payload")
        assert {dst for dst, _ in result.outcomes} == set(range(1, 12))
        assert result.redundant_messages == 0

    def test_payload_sized_once_and_identically(self):
        transport = build_transport(overlay_name="chord", seed=4)
        payload = {"m": [1.0, 2.0, 3.0]}
        transport.broadcast(0, "b", payload)
        reference = Message(src=0, dst=1, msg_type="b", payload=payload)
        per_message = transport.stats.bytes_by_type["b"] / 11
        assert per_message == reference.size_bytes


class TestVectorizedBroadcast:
    """The vectorized recipient bookkeeping must be observationally
    identical to the scalar message-per-recipient path."""

    def _delivery_log(self, transport, scalar, *, down=(), num_nodes=12):
        log = []
        network = transport.network
        for node in range(num_nodes):
            network.register(
                node,
                lambda message, log=log: log.append(
                    (transport.simulator.now, message.src, message.dst,
                     message.msg_type, message.size_bytes)
                ),
            )
        for node in down:
            network.set_down(node)
        if scalar:
            install_per_message_broadcast(transport)
        results = [
            transport.broadcast(
                origin, "b", "payload" * 4, recipients=range(num_nodes)
            )
            for origin in (0, 3)
        ]
        transport.flush()
        return results, log, transport.stats

    @pytest.mark.parametrize(
        "codec", (None, "identity", "gzip-model", "tuned")
    )
    def test_vector_matches_scalar(self, codec):
        v_results, v_log, v_stats = self._delivery_log(
            build_transport(num_nodes=12, seed=21, codec=codec), scalar=False
        )
        s_results, s_log, s_stats = self._delivery_log(
            build_transport(num_nodes=12, seed=21, codec=codec), scalar=True
        )
        assert v_log == s_log  # same delivery times, order, and contents
        assert stats_fingerprint(v_stats) == stats_fingerprint(s_stats)
        # Byte-identical including the wire dimension (present or absent).
        assert v_stats.fingerprint_bytes() == s_stats.fingerprint_bytes()
        for v, s in zip(v_results, s_results):
            assert v.targets == s.targets
            assert list(v.sent) == list(s.sent)
            assert list(v.delivered) == list(s.delivered)

    def test_vector_matches_scalar_with_down_recipients(self):
        v_results, v_log, v_stats = self._delivery_log(
            build_transport(num_nodes=12, seed=8), scalar=False, down=(2, 7)
        )
        s_results, s_log, s_stats = self._delivery_log(
            build_transport(num_nodes=12, seed=8), scalar=True, down=(2, 7)
        )
        assert v_log == s_log
        assert stats_fingerprint(v_stats) == stats_fingerprint(s_stats)
        for v, s in zip(v_results, s_results):
            assert list(v.delivered) == list(s.delivered)
            assert not v.delivered[v.targets.index(2)]

    # Loss, a down origin, duplicate recipients and fewer than two targets
    # are the send core's cases under ``broadcast_block`` (``Transport``
    # chooses no path); the oracle there is a plain loop of
    # ``Transport.send`` over the same recipients.

    def test_loss_falls_back_to_scalar_draw_order(self):
        vector = build_transport(num_nodes=8, seed=13, drop=0.4)
        scalar = build_transport(num_nodes=8, seed=13, drop=0.4)
        v = vector.broadcast(0, "b", "x" * 20, recipients=range(8))
        s = [scalar.send(0, dst, "b", "x" * 20) for dst in range(1, 8)]
        assert list(v.sent) == [outcome.sent for outcome in s]
        assert stats_fingerprint(vector.stats) == stats_fingerprint(scalar.stats)

    def test_down_origin_sends_nothing_either_way(self):
        vector = build_transport(num_nodes=6, seed=3)
        scalar = build_transport(num_nodes=6, seed=3)
        for transport in (vector, scalar):
            transport.network.set_down(0)
        result = vector.broadcast(0, "b", "p", recipients=range(6))
        assert not result.sent.any()
        assert not any(
            scalar.send(0, dst, "b", "p").sent for dst in range(1, 6)
        )
        assert vector.stats.total_messages == 0
        assert scalar.stats.total_messages == 0

    def test_duplicate_recipients_match_scalar_accounting(self):
        # Caller-supplied duplicates must charge per message on both paths
        # (the bulk per-destination update would collapse them, so the
        # vectorized path steps aside).
        vector = build_transport(num_nodes=6, seed=9)
        scalar = build_transport(num_nodes=6, seed=9)
        recipients = [1, 1, 2, 3]
        v = vector.broadcast(0, "b", "p" * 8, recipients=recipients)
        s = [scalar.send(0, dst, "b", "p" * 8) for dst in recipients]
        vector.flush()
        scalar.flush()
        assert list(v.sent) == [outcome.sent for outcome in s]
        assert stats_fingerprint(vector.stats) == stats_fingerprint(scalar.stats)
        assert vector.stats.per_peer_received[1] == 2 * (40 + 8)

    def test_block_listeners_see_every_message_in_one_block(self):
        transport = build_transport(num_nodes=6, seed=3)
        blocks = []
        transport.network.add_block_listener(blocks.append)
        transport.broadcast(0, "b", "p", recipients=range(6))
        # One SoA block for the whole fan-out: observing a broadcast never
        # forces the message-per-recipient path.
        assert [list(block.dst) for block in blocks] == [[1, 2, 3, 4, 5]]

    def test_outcomes_materialize_lazily_and_cache(self):
        transport = build_transport(num_nodes=6, seed=3)
        result = transport.broadcast(0, "b", "p", recipients=range(6))
        assert result._outcomes is None  # nothing allocated yet
        outcomes = result.outcomes
        assert [dst for dst, _ in outcomes] == [1, 2, 3, 4, 5]
        assert all(o.delivered for _, o in outcomes)
        assert result.outcomes is outcomes  # cached
        assert result.delivered_to() == [1, 2, 3, 4, 5]
        assert result.delivered_count() == 5

    def test_record_message_block_matches_per_message_recording(self):
        bulk = StatsCollector()
        scalar = StatsCollector()
        bulk.record_message_block("t", 64, src=3, dsts=[1, 2, 5], hops=2)
        for dst in (1, 2, 5):
            scalar.record_traffic("t", 64, hops=2, src=3, dst=dst)
        assert stats_fingerprint(bulk) == stats_fingerprint(scalar)
        assert bulk.fingerprint_bytes() == scalar.fingerprint_bytes()

    def test_pair_factors_match_scalar_mix(self):
        import numpy as np

        from repro.sim.network import pair_factors

        network = build_transport(num_nodes=1).network
        dsts = np.array([1, 7, 123, 10_000, 2 ** 40], dtype=np.uint64)
        vectorized = pair_factors(5, dsts)
        for dst, factor in zip(dsts.tolist(), vectorized.tolist()):
            assert factor == network._pair_base_latency(5, int(dst))

    def test_are_up_matches_is_up(self):
        network = build_transport(num_nodes=6).network
        network.set_down(2)
        flags = network.are_up([0, 2, 9, 5])  # 9 never registered
        assert list(flags) == [network.is_up(n) for n in (0, 2, 9, 5)]
        assert list(flags) == [True, False, False, True]


class TestCodecAccounting:
    """The codec table changes accounting only: identity is byte-identical
    to the pre-codec stack, and non-identity codecs add a wire dimension
    without touching the event stream."""

    @pytest.mark.parametrize("name", ALL_OVERLAYS)
    def test_identity_table_matches_default_stack(self, name):
        explicit = build_transport(overlay_name=name, seed=7, codec="identity")
        default = build_transport(overlay_name=name, seed=7)
        drive_workload(explicit)
        drive_workload(default)
        assert (
            explicit.stats.fingerprint_bytes()
            == default.stats.fingerprint_bytes()
        )
        assert explicit.simulator.now == default.simulator.now

    @pytest.mark.parametrize("codec", ("gzip-model", "delta-sparse", "tuned"))
    def test_codec_changes_accounting_not_timing(self, codec):
        coded = build_transport(overlay_name="chord", seed=7, codec=codec)
        plain = build_transport(overlay_name="chord", seed=7)
        drive_workload(coded)
        drive_workload(plain)
        # The raw dimension and the event stream are untouched...
        assert coded.simulator.now == plain.simulator.now
        assert coded.simulator.events_processed == plain.simulator.events_processed
        assert dict(coded.stats.bytes_by_type) == dict(plain.stats.bytes_by_type)
        assert dict(coded.stats.per_peer_received) == dict(
            plain.stats.per_peer_received
        )
        # ...while the wire dimension shrinks below raw somewhere.
        assert coded.stats.total_wire_bytes < coded.stats.total_bytes

    def test_broadcast_wire_bytes_match_codec_model(self):
        transport = build_transport(overlay_name="chord", seed=4,
                                    codec="gzip-model")
        payload = "payload" * 40
        transport.broadcast(0, "b", payload)
        reference = Message(src=0, dst=1, msg_type="b", payload=payload)
        expected = transport.codec.wire_size("b", reference.size_bytes)
        assert transport.stats.wire_bytes_by_type["b"] == 11 * expected
        assert transport.stats.bytes_by_type["b"] == 11 * reference.size_bytes

    def test_charge_flows_through_codec(self):
        transport = build_transport(num_nodes=4, codec="gzip-model")
        transport.charge(src=1, dst=2, msg_type="probe", size_bytes=4000, hops=2)
        expected = transport.codec.wire_size("probe", 4000)
        assert transport.stats.wire_bytes_by_type["probe"] == 2 * expected
        assert transport.stats.bytes_by_type["probe"] == 2 * 4000

    def test_route_and_send_stamps_wire_size(self):
        from repro.overlay.idspace import key_id_for

        transport = build_transport(overlay_name="fullmesh", seed=2,
                                    codec="gzip-model")
        payload = {"weights": [0.5] * 100}
        outcome = transport.route_and_send(0, key_id_for("k"), "upload", payload)
        assert outcome.sent
        assert (
            transport.stats.wire_bytes_by_type["upload"]
            < transport.stats.bytes_by_type["upload"]
        )

    def test_swapping_codec_table_updates_identity_fast_path(self):
        transport = build_transport(num_nodes=4)
        assert transport._codec_is_identity
        transport.codec = make_codec_table("gzip-model")
        assert not transport._codec_is_identity
        transport.send(0, 1, "m", "x" * 500)
        assert transport.stats.has_compressed_traffic


class TestTransportErrors:
    def test_self_send_rejected(self):
        transport = build_transport(num_nodes=3)
        with pytest.raises(SimulationError):
            transport.send(1, 1, "m")

    def test_route_without_overlay_rejected(self):
        transport = build_transport(num_nodes=3)
        with pytest.raises(SimulationError):
            transport.route(0, 123)


class TestPairSeedStability:
    def test_explicit_values_pinned(self):
        # Pinned constants: if these move, latencies (and thus event order)
        # change between releases — bump deliberately, never accidentally.
        # (The low 31 bits are the pair seeds earlier releases pinned.)
        assert pair_mix64(0, 1) == pair_mix64(1, 0)
        assert pair_mix64(0, 1) == 2262681382910758755
        assert pair_mix64(3, 17) == 10382932752330449923
        assert pair_mix64(0, 1) & 0x7FFFFFFF == 1145638755
        assert pair_mix64(3, 17) & 0x7FFFFFFF == 1030546435

    def test_distinct_pairs_distinct_seeds(self):
        seeds = {pair_mix64(a, b) for a in range(30) for b in range(a + 1, 30)}
        assert len(seeds) == 30 * 29 // 2
