"""``PhysicalNetwork.send_batch`` — the columnar block core the flat and the
sharded network share — against the per-message loop it replaced
(``tests/reference/per_message_send.py``).

Two identically seeded stacks run the same script of same-tick blocks, one
with the oracle installed on its network; everything a block send can move
must then be *equal*, not close: the stats fingerprint, the first-touch
order of every counter family's keys (the WAL pickles ``delta_since`` and
verifies those bytes), the kernel and RNG cursors, every heap entry's
``(time, seq, dst)``, the delivery sequence, and the ``SendBlock`` columns
a listener sees.  The last section holds the WAL to it: a log written by
the per-message loop is byte-identical to one written by the block core,
and resumes under it.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import install_per_message_send
from repro.errors import SimulationError
from repro.sim.distribution import ShardSpec
from repro.sim.messages import Message
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.shard import ShardedScenario

PEERS = 8
TYPES = ("alpha", "beta", "gamma")


@st.composite
def messages(draw, src=None):
    source = draw(st.integers(0, PEERS - 1)) if src is None else src
    # duplicates among the destinations are wanted; loopbacks are not
    dst = (source + draw(st.integers(1, PEERS - 1))) % PEERS
    size = draw(st.integers(0, 400))
    compressed = draw(st.booleans())
    return (
        source, dst, draw(st.sampled_from(TYPES)), size,
        draw(st.integers(0, size)) if compressed else size,
        draw(st.integers(0, 3)),
    )


@st.composite
def blocks(draw):
    """One same-tick block — one source or mixed — plus the peers whose
    liveness flips just before it is sent."""
    if draw(st.booleans()):
        rows = draw(st.lists(messages(src=draw(st.integers(0, PEERS - 1))),
                             min_size=0, max_size=8))
    else:
        rows = draw(st.lists(messages(), min_size=0, max_size=8))
    flips = draw(st.lists(st.integers(0, PEERS - 1), max_size=2))
    return rows, flips


scripts = st.lists(blocks(), min_size=1, max_size=4)


def _materialize(rows):
    return [
        Message(src=src, dst=dst, msg_type=msg_type, payload=None,
                size_bytes=size, wire_bytes=wire, hops=hops)
        for src, dst, msg_type, size, wire, hops in rows
    ]


class Script:
    """SPMD workload: every replica flips the same peers and sends the same
    blocks at ticks 0, 1, 2, … and reports everything observable."""

    def __init__(self, script, oracle):
        self.script = script
        self.oracle = oracle

    def __call__(self, scenario):
        network = scenario.network
        simulator = scenario.simulator
        if self.oracle:
            install_per_message_send(network)
        seen = {"results": [], "heap": [], "delivered": [], "blocks": []}

        def handler(message):
            seen["delivered"].append(
                (simulator.now, message.dst, message.src, message.msg_type,
                 message.size_bytes, message.wire_bytes, message.hops)
            )

        for peer in range(PEERS):
            scenario.register_peer(peer, handler)
        network.add_block_listener(
            lambda block: seen["blocks"].append(
                (block.time, block.count, list(block.rows()))
            )
        )

        def fire(rows, flips):
            for peer in flips:
                network.set_down(peer, not network.is_down(peer))
            seen["results"].append(network.send_batch(_materialize(rows)))
            seen["heap"].append(sorted(
                (entry[0], entry[1], entry[3][0].dst)
                for entry in simulator._queue
                if entry[2] == network._deliver
            ))

        for tick, block in enumerate(self.script):
            simulator.schedule_at(float(tick), fire, args=block)
        simulator.run_until_idle()
        stats = scenario.stats
        seen["fingerprint"] = stats.fingerprint_bytes()
        seen["key_order"] = pickle.dumps(stats.delta_since({}))
        seen["kernel"] = simulator.export_cursors()
        seen["rng"] = (
            scenario.streams.export_cursors() if scenario.streams
            else simulator.rng.bit_generator.state
        )
        return seen


def _config(rng_mode, seed, shards=0):
    return ScenarioConfig(
        num_peers=PEERS, overlay="fullmesh", rng_mode=rng_mode,
        jitter_floor=0.5, shards=shards, shard=ShardSpec(num_peers=PEERS),
        seed=seed,
    )


@pytest.mark.parametrize("rng_mode", ["stream", "perpeer"])
@settings(max_examples=60, deadline=None)
@given(script=scripts, seed=st.integers(0, 3))
def test_flat_block_core_equals_the_per_message_loop(rng_mode, script, seed):
    core, oracle = (
        Script(script, oracle)(Scenario(_config(rng_mode, seed)))
        for oracle in (False, True)
    )
    assert core == oracle


@settings(max_examples=25, deadline=None)
@given(script=scripts, seed=st.integers(0, 3))
def test_sharded_block_core_equals_the_per_message_loop(script, seed):
    config = _config("perpeer", seed, shards=2)
    core, oracle = (
        ShardedScenario(config, executor="serial").run(Script(script, oracle))
        for oracle in (False, True)
    )
    assert core.results == oracle.results  # per shard, in shard order
    assert core.digest() == oracle.digest()
    # and the two replicas together are the single heap: same digest, every
    # attempt observed and every delivery made exactly once
    flat = Script(script, False)(Scenario(_config("perpeer", seed)))
    assert core.stats.fingerprint_bytes() == flat["fingerprint"]

    def pooled(key):
        return sum((result[key] for result in core.results), [])

    def observed_rows(blocks):  # a replica sees only its own sources' rows
        return sorted(
            (time, row) for time, _, rows in blocks for row in rows
        )

    assert sorted(pooled("delivered")) == sorted(flat["delivered"])
    assert observed_rows(pooled("blocks")) == observed_rows(flat["blocks"])


@pytest.mark.parametrize("shards", [0, 2])
@settings(max_examples=25, deadline=None)
@given(rows=st.lists(messages(), min_size=1, max_size=6),
       where=st.integers(0, 6), peer=st.integers(0, PEERS - 1))
def test_a_loopback_anywhere_rejects_the_whole_block(shards, rows, where, peer):
    rows = list(rows)
    rows.insert(min(where, len(rows)), (peer, peer, "alpha", 10, 10, 1))

    def workload(scenario):
        network = scenario.network
        for address in range(PEERS):
            scenario.register_peer(address, lambda message: None)
        blocks = []
        network.add_block_listener(blocks.append)
        before = (scenario.streams.export_cursors(),
                  scenario.simulator.export_cursors())
        with pytest.raises(SimulationError, match="loopback"):
            network.send_batch(_materialize(rows))
        assert scenario.stats.total_messages == 0
        assert scenario.stats.delta_since({}) == {}
        assert scenario.simulator.pending_events == 0
        assert blocks == []
        assert before == (scenario.streams.export_cursors(),
                          scenario.simulator.export_cursors())

    if shards:
        ShardedScenario(
            _config("perpeer", 0, shards=shards), executor="serial"
        ).run(workload)
    else:
        workload(Scenario(_config("perpeer", 0)))


def test_the_oracle_is_a_different_implementation():
    """Mutation check on the harness itself: the oracle must reach
    ``record_message`` and never ``record_messages``; the core the
    reverse."""
    calls = {}
    for oracle in (False, True):
        scenario = Scenario(_config("perpeer", 0))
        stats = scenario.stats
        counted = calls[oracle] = {"record_message": 0, "record_messages": 0}
        for name in counted:
            def wrapper(*args, _name=name, _inner=getattr(stats, name),
                        _counted=counted):
                _counted[_name] += 1
                return _inner(*args)
            setattr(stats, name, wrapper)
        script = [([(0, 1, "alpha", 10, 10, 1), (0, 2, "alpha", 10, 10, 1),
                    (3, 2, "beta", 20, 5, 2)], [])]
        Script(script, oracle)(scenario)
    assert calls[False] == {"record_message": 0, "record_messages": 1}
    assert calls[True] == {"record_message": 3, "record_messages": 0}


# -- the WAL cannot tell the two apart ---------------------------------------


class Storm:
    """A small SPMD storm through ``Transport.send_batch``: one-source
    blocks from every owner plus one mixed-source block per round."""

    def __init__(self, oracle):
        self.oracle = oracle

    def __call__(self, scenario):
        if self.oracle:
            install_per_message_send(scenario.network)
        for peer in range(PEERS):
            scenario.register_peer(peer, lambda message: None)
        transport = scenario.transport

        def fire(src, round_index):
            transport.send_batch([
                Message(src=src,
                        dst=(src + 1 + (round_index + k) % (PEERS - 1)) % PEERS,
                        msg_type=TYPES[k % 2], payload=None,
                        size_bytes=100 + k, hops=1 + k % 2)
                for k in range(4)
            ])

        def mixed(round_index):
            transport.send_batch([
                Message(src=src, dst=(src + 3) % PEERS, msg_type="gamma",
                        payload=None, size_bytes=50 + round_index)
                for src in (5, 2, 5, 7, 2)
            ])

        for round_index in range(3):
            at = float(round_index)
            for src in range(PEERS):
                if scenario.owns(src):
                    scenario.simulator.schedule_at(
                        at, fire, args=(src, round_index)
                    )
            scenario.simulator.schedule_at(at + 0.5, mixed, args=(round_index,))
        scenario.simulator.run_until_idle()


@pytest.mark.parametrize("control_plane", ["replicated", "directory"])
def test_wal_bytes_and_resume_across_the_two_implementations(
    tmp_path, control_plane
):
    config = dataclasses.replace(
        _config("perpeer", 11, shards=2), control_plane=control_plane
    )
    logs = {}
    for oracle in (True, False):
        log = tmp_path / f"oracle-{oracle}.wal"
        run = ShardedScenario(
            dataclasses.replace(config, wal=str(log)), executor="serial"
        ).run(Storm(oracle))
        logs[oracle] = (log, run.digest(), run.windows)
    assert logs[True][1:] == logs[False][1:]
    assert logs[True][0].read_bytes() == logs[False][0].read_bytes()
    # resume verifies every window's extras (stats delta, kernel and RNG
    # cursors) against the log: the per-message loop's log must replay
    # under the block core, in threads and in forked workers
    for executor in ("serial", "mp"):
        resumed = ShardedScenario(
            dataclasses.replace(config, resume=str(logs[True][0])),
            executor=executor,
        ).run(Storm(False))
        assert (resumed.digest(), resumed.windows) == logs[True][1:]
