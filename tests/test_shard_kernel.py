"""Unit tests for the sharded kernel's window machinery.

Covers the pieces the differential fuzz suite exercises only end-to-end:
lookahead computation from the latency model's bounds, exchange-frame
routing and the ``(time, src_shard, seq)`` tie-break, ``pending_events``
accounting across window barriers (in-flight cross-shard records count at
the source until exchanged), churn knocking out an in-flight cross-shard
delivery, window skipping over empty stretches, and the configuration
guard rails.
"""

import math

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.distribution import ShardSpec
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, PeerStreams, stream_seed
from repro.sim.barrier import SyncStatus, reduce_window, verdict_for
from repro.sim.exchange import ExchangeFrame, merge_frames
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.shard import (
    ShardedScenario,
    compute_lookahead,
    _ShardRuntime,
    scenario_digest,
)
from determinism_fixtures import frame_records

INF = float("inf")


def _config(num_peers=4, shards=2, **overrides):
    options = dict(
        num_peers=num_peers,
        overlay="fullmesh",
        churn="none",
        rng_mode="perpeer",
        jitter_floor=0.5,
        shards=shards,
        shard=ShardSpec(num_peers=num_peers),
        seed=3,
    )
    options.update(overrides)
    return ScenarioConfig(**options)


def _run_both(workload, num_peers=4, shards=2):
    """Run one SPMD workload on the unsharded kernel and the K-shard serial
    executor; returns ((stats, now), ShardedRun)."""
    reference = Scenario(_config(num_peers=num_peers, shards=0))
    workload(reference)
    run = ShardedScenario(_config(num_peers=num_peers, shards=shards)).run(
        workload
    )
    return (reference.stats, reference.simulator.now), run


# ---------------------------------------------------------------------------
# Lookahead.
# ---------------------------------------------------------------------------


def test_lookahead_from_jitter_floor():
    model = LatencyModel(
        base_latency=0.05, jitter_fraction=0.2, jitter_floor=0.5
    )
    # min pair factor (0.5) x base latency x jitter floor
    assert compute_lookahead(model) == pytest.approx(0.5 * 0.05 * 0.5)


def test_lookahead_without_jitter_uses_unit_factor():
    model = LatencyModel(base_latency=0.08, jitter_fraction=0.0)
    assert compute_lookahead(model) == pytest.approx(0.5 * 0.08)


@pytest.mark.parametrize(
    "model",
    [
        LatencyModel(base_latency=0.05, jitter_fraction=0.2, jitter_floor=0.0),
        LatencyModel(base_latency=0.0, jitter_fraction=0.0),
    ],
)
def test_lookahead_rejects_unbounded_delays(model):
    with pytest.raises(ConfigurationError):
        compute_lookahead(model)


def test_jitter_floor_clamps_delay_distribution():
    import numpy as np

    model = LatencyModel(
        base_latency=0.05, jitter_fraction=0.9, jitter_floor=0.5,
        bandwidth=1e12,
    )
    rng = np.random.default_rng(0)
    sizes = np.full(4000, 40.0)
    delays = model.delays_for(sizes, rng)
    assert delays.min() >= 0.05 * 0.5 - 1e-12
    # The clamp actually engaged for this sigma (some draws fell below).
    assert (delays <= 0.05 * 0.5 + 1e-9).any()


# ---------------------------------------------------------------------------
# Partition rule and per-peer streams.
# ---------------------------------------------------------------------------


def test_shard_of_partitions_every_address():
    for num_shards in (1, 2, 3, 5):
        runtimes = [
            _ShardRuntime(shard, num_shards, channel=None, lookahead=1.0)
            for shard in range(num_shards)
        ]
        owners = []
        for address in range(40):
            (owner,) = [r.shard_id for r in runtimes if r.owns(address)]
            owners.append(owner)
        assert set(owners) == set(range(num_shards))
        # Round-robin: ownership is periodic, so load differs by at most 1.
        counts = [owners.count(shard) for shard in range(num_shards)]
        assert max(counts) - min(counts) <= 1


def test_stream_seed_distinct_per_peer_and_lane():
    seeds = {
        stream_seed(0, peer, lane) for peer in range(50) for lane in range(4)
    }
    assert len(seeds) == 200
    assert stream_seed(0, 3, 1) == stream_seed(0, 3, 1)
    assert stream_seed(0, 3, 1) != stream_seed(1, 3, 1)


def test_peer_streams_are_cached_and_independent():
    streams = PeerStreams(seed=7)
    assert streams.net_rng(2) is streams.net_rng(2)
    assert streams.net_rng(2) is not streams.loss_rng(2)
    draw_a = streams.net_rng(2).random()
    # A fresh instance replays the same stream from the start.
    assert PeerStreams(seed=7).net_rng(2).random() == draw_a


# ---------------------------------------------------------------------------
# Exchange routing and ordering.
# ---------------------------------------------------------------------------


def _record(deliver_at, src_shard, seq, dst=1):
    # The sender address encodes (src_shard, seq) so merged columns can be
    # read back as the sort key.
    return (deliver_at, src_shard, seq, src_shard * 100 + seq, dst, "m",
            None, 40, 40, 1)


def _status(outbound, next_time, last_time, executed):
    """A worker's sync with its outboxes columnarized; the routing under
    test moves items untouched, so the frames ride unencoded."""
    frames = [
        (dst_shard, ExchangeFrame.from_records(box))
        for dst_shard, box in enumerate(outbound) if box
    ]
    min_outbound = min((frame.min_time for _, frame in frames), default=INF)
    return SyncStatus(
        next_time, last_time, executed, min_outbound, [], None, frames
    )


def test_decide_routes_and_orders_by_time_shard_seq():
    # Shard 0 sends two records to shard 1 (out of order); shard 1 sends one
    # to shard 0; shard 2's record to shard 1 ties shard 0's on time.
    statuses = [
        _status([[], [_record(5.0, 0, 2), _record(3.0, 0, 1)], []], 7.0, 2.0, 3),
        _status([[_record(4.0, 1, 1, dst=0)], [], []], INF, 2.5, 4),
        _status([[], [_record(3.0, 2, 9)], []], 6.0, -INF, 0),
    ]
    window_start, global_last, total_executed, routed = reduce_window(statuses)
    # Window opens at the earliest of next-event times and in-flight
    # frames' min_time.
    assert window_start == 3.0
    assert global_last == 2.5
    assert total_executed == 7
    inboxes = [
        verdict_for(shard, 3, window_start, global_last, total_executed,
                    routed, [])[3]
        for shard in range(3)
    ]
    assert [(src, frame_records(frame)[0][:3]) for src, frame in inboxes[0]] == [
        (1, (4.0, 1, 1))
    ]
    # Frames reach the receiver in src-shard order; the tie at t=3.0 then
    # breaks on src_shard, then seq, in the receiver's merge.
    assert [src for src, _ in inboxes[1]] == [0, 2]
    times, columns = merge_frames([frame for _, frame in inboxes[1]])
    assert list(zip(times, columns[0])) == [(3.0, 1), (3.0, 209), (5.0, 2)]
    assert inboxes[2] == []


def test_decide_idle_when_no_events_or_records():
    statuses = [
        _status([[], []], INF, 1.5, 2), _status([[], []], INF, 4.5, 2),
    ]
    window_start, global_last, total_executed, routed = reduce_window(statuses)
    assert window_start == INF
    assert global_last == 4.5
    assert total_executed == 4
    assert routed == {}


def test_conservative_injection_guard():
    """The kernel refuses events behind its clock — a violated lookahead
    contract surfaces as a loud SimulationError, never silent reordering."""
    simulator = Simulator(seed=0)
    simulator.schedule(1.0, lambda: None)
    simulator.run()
    with pytest.raises(SimulationError):
        simulator.schedule_batch_at([0.5], lambda: None)


# ---------------------------------------------------------------------------
# pending_events accounting across window barriers.
# ---------------------------------------------------------------------------


def test_pending_accounting_and_cross_shard_delivery():
    lookahead = compute_lookahead(
        LatencyModel(base_latency=0.05, jitter_fraction=0.2, jitter_floor=0.5)
    )

    def workload(scenario):
        observations = {}
        delivered = []
        simulator = scenario.simulator
        for peer in range(4):
            scenario.network.register(
                peer,
                lambda message, _peer=peer: delivered.append(
                    (_peer, message.src, simulator.now)
                ),
            )

        if scenario.owns(0):
            def fire():
                scenario.transport.send(0, 1, "probe", payload=b"x" * 24)
                # The record sits in the exchange outbox until the next
                # barrier — still a pending event of this shard.
                observations["pending_after_send"] = simulator.pending_events
            simulator.schedule_at(1.0, fire)
        simulator.run_until_idle()
        observations["delivered"] = delivered
        observations["now"] = simulator.now
        return observations

    (ref_stats, ref_now), run = _run_both(workload)

    source = next(r for r in run.results if "pending_after_send" in r)
    sink = next(r for r in run.results if r["delivered"])
    assert source is not sink
    # Outbox record counted as pending at the source before the barrier.
    assert source["pending_after_send"] == 1
    assert source["delivered"] == []
    # Exactly one delivery, at the sender-computed time, after >= lookahead.
    ((peer, src, at),) = sink["delivered"]
    assert (peer, src) == (1, 0)
    assert at >= 1.0 + lookahead
    # Merged observables match the unsharded kernel byte-for-byte,
    # including the delivery's effect on the final clock.
    assert run.digest() == scenario_digest(ref_stats, ref_now)
    assert run.stats.messages_by_type["probe"] == 1
    assert run.now == ref_now


def test_churn_knocks_out_in_flight_cross_shard_delivery():
    """A cross-shard message already in flight when its destination churns
    out lands undeliverable — identically to the single-heap kernel."""

    def workload(scenario):
        simulator = scenario.simulator
        for peer in range(4):
            scenario.network.register(peer, lambda message: None)

        if scenario.owns(0):
            simulator.schedule_at(
                1.0, lambda: scenario.transport.send(0, 1, "doomed")
            )
        # Replicated liveness event (like churn): every shard replica takes
        # peer 1 down just after the send, before any delivery is possible
        # (the earliest delivery is lookahead = 12.5ms after the send).
        simulator.schedule_at(
            1.001, lambda: scenario.network.set_down(1, True)
        )
        simulator.run_until_idle()
        return None

    (ref_stats, ref_now), run = _run_both(workload)
    assert run.stats.counters["messages_undeliverable"] == 1
    assert ref_stats.counters["messages_undeliverable"] == 1
    assert run.digest() == scenario_digest(ref_stats, ref_now)


def test_batched_sends_partition_across_shards():
    """A same-tick send_batch from one peer splits into local deliveries
    and exchange records, with observables identical to the single heap."""
    from repro.sim.messages import Message

    def workload(scenario):
        delivered = []
        simulator = scenario.simulator
        for peer in range(6):
            scenario.network.register(
                peer, lambda message: delivered.append(message.dst)
            )
        if scenario.owns(0):
            def fire():
                block = [
                    Message(src=0, dst=dst, msg_type="blk", size_bytes=100)
                    for dst in (1, 2, 3, 4, 5)
                ]
                scenario.transport.send_batch(block)
            simulator.schedule_at(0.5, fire)
        simulator.run_until_idle()
        return sorted(delivered)

    (ref_stats, ref_now), run = _run_both(workload, num_peers=6, shards=3)
    assert run.digest() == scenario_digest(ref_stats, ref_now)
    assert run.stats.messages_by_type["blk"] == 5
    received = sorted(dst for result in run.results for dst in result)
    assert received == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# Window skipping.
# ---------------------------------------------------------------------------


def test_windows_skip_empty_virtual_time():
    """Barriers track event clusters, not virtual duration / lookahead: two
    events 100 virtual seconds apart must not cost thousands of windows."""

    def workload(scenario):
        simulator = scenario.simulator
        for peer in range(4):
            scenario.network.register(peer, lambda message: None)
        if scenario.owns(0):
            simulator.schedule_at(
                0.5, lambda: scenario.transport.send(0, 1, "early")
            )
            simulator.schedule_at(
                100.5, lambda: scenario.transport.send(0, 3, "late")
            )
        simulator.run_until_idle()
        return None

    (ref_stats, ref_now), run = _run_both(workload)
    assert run.digest() == scenario_digest(ref_stats, ref_now)
    assert run.windows < 20
    assert run.now == ref_now
    assert not math.isinf(run.now)


# ---------------------------------------------------------------------------
# Guard rails.
# ---------------------------------------------------------------------------


def test_plain_scenario_refuses_sharded_config():
    with pytest.raises(ConfigurationError):
        Scenario(_config(shards=2))


def test_sharded_config_requires_perpeer_randomness():
    with pytest.raises(ConfigurationError):
        _config(shards=2, rng_mode="stream").validate()


def test_sharded_config_requires_positive_jitter_floor():
    with pytest.raises(ConfigurationError):
        _config(shards=2, jitter_floor=0.0).validate()


def test_sharded_scenario_requires_at_least_one_shard():
    with pytest.raises(ConfigurationError):
        ShardedScenario(_config(shards=0))


def test_worker_failure_propagates():
    def workload(scenario):
        raise RuntimeError("boom in worker")

    with pytest.raises(SimulationError, match="boom in worker"):
        ShardedScenario(_config(shards=2)).run(workload)


def test_runaway_window_raises_instead_of_hanging():
    """A zero-delay schedule loop inside one window must surface as the
    quiesce guard (as on the unsharded kernel), not a barrier deadlock."""

    def workload(scenario):
        simulator = scenario.simulator
        if scenario.owns(0):
            def rebound():
                simulator.schedule(0.0, rebound)
            simulator.schedule_at(1.0, rebound)
        simulator.run_until_idle(max_events=5_000)
        return None

    with pytest.raises(SimulationError, match="did not quiesce"):
        ShardedScenario(_config(shards=2)).run(workload)


# ---------------------------------------------------------------------------
# The user-facing plumbing: SystemConfig.shards / CLI --shards.
# ---------------------------------------------------------------------------


def _tiny_corpus():
    from repro.data.delicious import DeliciousGenerator

    return DeliciousGenerator(
        num_users=5, seed=11, num_tags=4, docs_per_user_range=(6, 7),
        vocabulary_size=150, topic_words_per_tag=20,
        doc_length_range=(10, 16),
    ).generate()


@pytest.mark.parametrize("churn", ["none", "exponential"])
def test_system_trains_and_verifies_under_sharding(churn):
    """SystemConfig.shards >= 1: training replays through the K-shard
    kernel and the digest cross-check against the local kernel passes —
    the product-level form of the equivalence theorem."""
    from repro.core.tagger import P2PDocTaggerSystem, SystemConfig

    system = P2PDocTaggerSystem(
        _tiny_corpus(),
        SystemConfig(
            algorithm="nbagg", churn=churn, mean_session=60.0,
            mean_downtime=20.0, shards=2, seed=3,
        ),
    )
    assert system.sharded_run is None
    system.train()
    run = system.sharded_run
    assert run is not None and run.shards == 2 and run.executor == "serial"
    # Predictions serve from the verified local replica.
    report = system.evaluate(max_documents=5)
    assert 0.0 <= report.metrics.micro_f1 <= 1.0


def test_cli_exposes_shards_and_executor():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["run", "--algorithm", "pace", "--shards", "3", "--executor", "mp"]
    )
    assert args.shards == 3 and args.executor == "mp"
    defaults = build_parser().parse_args(["run"])
    assert defaults.shards == 0 and defaults.executor == "serial"
