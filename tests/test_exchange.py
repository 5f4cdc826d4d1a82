"""Unit and property tests for the columnar shard exchange.

Covers the pieces the differential fuzz only exercises end-to-end: the
``ExchangeFrame`` encode→decode round trip under randomized
payload/msg_type mixes, ``merge_frames`` against the tuple-sort reference,
ring-buffer wraparound at frame boundaries, oversized frames (refused,
never blocked on), zero-record windows, K > N shard grids with empty
frames, and the mp worker-crash regression (a dead worker must surface as
a loud error, not a hang).
"""

import os
import pickle
import random

import pytest

from repro.errors import SimulationError
from repro.sim.distribution import ShardSpec
from repro.sim.exchange import (
    ExchangeFrame,
    RingExchange,
    ShardRing,
    merge_frames,
)
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.shard import ShardedScenario, scenario_digest
from determinism_fixtures import frame_records

MSG_TYPES = ("model", "gossip", "route", "ack", "x" * 40)


def _record(rng, src_shard, seq, payload_mode):
    """One ExchangeRecord tuple with a randomized payload/msg_type mix."""
    if payload_mode == "none":
        payload = None
    elif payload_mode == "mixed":
        payload = (
            None
            if rng.random() < 0.5
            else {"weights": [rng.random() for _ in range(3)], "seq": seq}
        )
    else:
        payload = ("blob", rng.randrange(1 << 30))
    return (
        round(rng.uniform(0.0, 50.0), 6),
        src_shard,
        seq,
        rng.randrange(0, 64),
        rng.randrange(0, 64),
        rng.choice(MSG_TYPES),
        payload,
        rng.randrange(1, 4096),
        rng.randrange(1, 8192),
        rng.randrange(1, 4),
    )


def _frame_of(rng, src_shard, count, payload_mode="none", barrier=0):
    records = [
        _record(rng, src_shard, seq, payload_mode) for seq in range(1, count + 1)
    ]
    return records, ExchangeFrame.from_records(records)


# ---------------------------------------------------------------------------
# Frame codec: encode → decode round trip.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("payload_mode", ["none", "mixed", "all"])
@pytest.mark.parametrize("seed", range(8))
def test_encode_decode_round_trip_property(seed, payload_mode):
    rng = random.Random(0xE0 + seed)
    records, frame = _frame_of(
        rng, src_shard=seed % 5, count=rng.randrange(1, 200),
        payload_mode=payload_mode,
    )
    blob = frame.encode(barrier=seed * 7)
    decoded, barrier = ExchangeFrame.decode(blob)
    assert barrier == seed * 7
    assert decoded.count == frame.count
    assert decoded.src_shard == frame.src_shard
    assert frame_records(decoded) == records
    # payload sidecar only exists when a record carries a real object
    if payload_mode == "none":
        assert decoded.payloads is None and decoded.payload_count == 0
    else:
        assert decoded.payload_count == sum(
            1 for r in records if r[6] is not None
        )


def test_decode_rejects_foreign_bytes():
    with pytest.raises(SimulationError, match="magic"):
        ExchangeFrame.decode(pickle.dumps(("not", "a", "frame")))
    # Short input: a valid payload-carrying frame cut at every offset —
    # inside the header, a column, the type table, the payload sidecar —
    # is a named SimulationError, never struct.error / ValueError.
    _, frame = _frame_of(
        random.Random(7), src_shard=1, count=5, payload_mode="all"
    )
    blob = frame.encode(3)
    assert ExchangeFrame.decode(blob)[1] == 3
    for cut in range(len(blob)):
        with pytest.raises(SimulationError, match="exchange frame"):
            ExchangeFrame.decode(blob[:cut])
    # Lying input: a header count far beyond what the blob can hold is
    # rejected before any view or allocation is sized by it.
    lying = bytearray(blob)
    lying[8:12] = (2**31 - 1).to_bytes(4, "little")
    with pytest.raises(SimulationError, match="count 2147483647"):
        ExchangeFrame.decode(bytes(lying))


def test_columns_are_plain_python_after_merge():
    """Nothing numpy-typed may leak into stats/Counter/json paths."""
    rng = random.Random(1)
    _, frame = _frame_of(rng, src_shard=0, count=10, payload_mode="mixed")
    times, columns = merge_frames([frame])
    assert all(type(t) is float for t in times)
    src, dst, msg_types, payloads, sizes, wires, hops = columns
    for column in (src, dst, sizes, wires, hops):
        assert all(type(v) is int for v in column)
    assert all(type(t) is str for t in msg_types)


@pytest.mark.parametrize("seed", range(6))
def test_merge_frames_matches_tuple_sort_reference(seed):
    """The lexsort merge must reproduce the reference
    (deliver_time, src_shard, seq) tuple sort exactly."""
    rng = random.Random(0x3E + seed)
    all_records = []
    frames = []
    for src_shard in range(rng.randrange(1, 5)):
        records, frame = _frame_of(
            rng, src_shard, count=rng.randrange(1, 60), payload_mode="mixed"
        )
        all_records.extend(records)
        frames.append(frame)
    reference = sorted(all_records, key=lambda r: (r[0], r[1], r[2]))
    times, columns = merge_frames(frames)
    assert times == [r[0] for r in reference]
    for got, want_index in zip(columns, (3, 4, 5, 6, 7, 8, 9)):
        assert list(got) == [r[want_index] for r in reference]


# ---------------------------------------------------------------------------
# SPSC ring buffer.
# ---------------------------------------------------------------------------


def _ring(capacity):
    return ShardRing(memoryview(bytearray(capacity + 16)))


def test_ring_wraparound_at_frame_boundaries():
    """Frames must survive byte-wise wraparound across the region end —
    push/pop far more total bytes than the capacity, at varied sizes."""
    ring = _ring(64)
    rng = random.Random(7)
    for i in range(500):
        payload = bytes([i % 256]) * rng.randrange(1, 40)
        assert ring.try_push(payload)
        assert ring.try_pop() == payload
    assert ring.try_pop() is None


def test_ring_interleaved_two_in_flight():
    ring = _ring(128)
    backlog = []
    rng = random.Random(11)
    for i in range(300):
        payload = os.urandom(rng.randrange(1, 40))
        assert ring.try_push(payload)
        backlog.append(payload)
        if len(backlog) == 2:  # the barrier protocol's occupancy bound
            assert ring.try_pop() == backlog.pop(0)
    while backlog:
        assert ring.try_pop() == backlog.pop(0)


def test_ring_refuses_oversized_frame_without_blocking():
    ring = _ring(32)
    assert not ring.try_push(b"y" * 64)  # larger than the ring itself
    assert ring.try_push(b"z" * 8)  # and the ring still works
    assert ring.try_pop() == b"z" * 8
    # exactly-fitting frame: capacity minus the 4-byte length prefix
    assert ring.try_push(b"f" * 28)
    assert not ring.try_push(b"")  # full: even an empty frame needs 4 bytes
    assert ring.try_pop() == b"f" * 28


def test_ring_refuses_when_full_until_reader_drains():
    ring = _ring(40)
    assert ring.try_push(b"a" * 16)
    assert not ring.try_push(b"b" * 24)  # no space while unread
    assert ring.try_pop() == b"a" * 16
    assert ring.try_push(b"b" * 24)
    assert ring.try_pop() == b"b" * 24


def test_ring_exchange_grid_is_pairwise_independent():
    rings = RingExchange(3, capacity=64)
    try:
        for src in range(3):
            for dst in range(3):
                if src != dst:
                    assert rings.ring(src, dst).try_push(
                        bytes([src, dst]) * 4
                    )
        for src in range(3):
            for dst in range(3):
                if src != dst:
                    assert rings.ring(src, dst).try_pop() == (
                        bytes([src, dst]) * 4
                    )
    finally:
        rings.destroy()


# ---------------------------------------------------------------------------
# End-to-end edge cases through the sharded kernel.
# ---------------------------------------------------------------------------


def _config(num_peers, shards, **overrides):
    options = dict(
        num_peers=num_peers,
        overlay="fullmesh",
        churn="none",
        rng_mode="perpeer",
        jitter_floor=0.5,
        shards=shards,
        shard=ShardSpec(num_peers=num_peers),
        seed=5,
    )
    options.update(overrides)
    return ScenarioConfig(**options)


def _register_peers(scenario):
    # a broadcast from a never-registered source is refused (all False)
    for address in scenario.peer_addresses:
        scenario.register_peer(address, lambda message: None)


def _ping_workload(scenario):
    """A couple of cross-shard sends with long quiet stretches between
    them — exercises zero-record windows on both sides of real traffic."""
    network = scenario.network
    _register_peers(scenario)
    if scenario.owns(0):
        network.broadcast_block(0, [1, 2, 3], "ping", None, 64)
    scenario.simulator.run_until_idle()
    if scenario.owns(1):
        network.broadcast_block(1, [0], "pong", {"echo": 1}, 32)
    scenario.simulator.run_until_idle()
    return None


@pytest.mark.parametrize("executor", ["serial", "mp"])
def test_zero_record_windows_and_quiet_runs(executor):
    reference = Scenario(_config(4, shards=0))
    _ping_workload(reference)
    run = ShardedScenario(_config(4, shards=2), executor=executor).run(
        _ping_workload
    )
    assert run.digest() == scenario_digest(
        reference.stats, reference.simulator.now
    )
    assert run.stats.exchange["records"] > 0


@pytest.mark.parametrize("executor", ["serial", "mp"])
def test_more_shards_than_peers_with_empty_frames(executor):
    """K > N: some shards own zero peers and every window ships empty
    outboxes from them; digests must still match the unsharded kernel."""
    reference = Scenario(_config(3, shards=0))
    _ping_workload(reference)
    run = ShardedScenario(_config(3, shards=6), executor=executor).run(
        _ping_workload
    )
    assert run.digest() == scenario_digest(
        reference.stats, reference.simulator.now
    )
    # empty outboxes never become frames
    windows_with_traffic = run.stats.exchange["frames"]
    assert 0 < windows_with_traffic <= run.windows * run.shards


def test_mp_worker_hard_crash_propagates():
    """A worker dying mid-window (no exception report — the process just
    exits) must abort the fleet with a loud error, never hang the
    barrier."""

    def workload(scenario):
        network = scenario.network
        _register_peers(scenario)
        if scenario.owns(0):
            network.broadcast_block(0, [1, 2, 3], "ping", None, 64)
        if scenario.owns(1):
            scenario.simulator.schedule_at(
                0.5, lambda: os._exit(3), label="die"
            )
        scenario.simulator.run_until_idle()
        return None

    with pytest.raises(SimulationError, match="died mid-window"):
        ShardedScenario(_config(4, shards=2), executor="mp").run(workload)
