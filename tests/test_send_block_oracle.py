"""``PhysicalNetwork``'s one send core — under all three entry points,
``send``, ``send_batch`` and ``broadcast_block`` — against the per-message
loops it replaced (``tests/reference/per_message_send.py`` for a block of
messages, ``tests/reference/broadcast.py`` for a fan-out).

Two identically seeded stacks run the same script of same-tick steps, one
with both oracles installed on its network; everything a send can move
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import install_per_message_broadcast, install_per_message_send
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
def steps(draw):
    """One same-tick step — a ``send_batch`` block (one source or mixed),
    the same rows as scalar ``send`` calls, or a ``broadcast_block`` fan-out
    (its rows share everything but the destination, which may repeat) —
    plus the peers whose liveness flips just before it."""
    kind = draw(st.sampled_from(("batch", "send", "fanout")))
    flips = draw(st.lists(st.integers(0, PEERS - 1), max_size=2))
    if kind == "fanout":
        src, _, msg_type, size, wire, _ = draw(messages())
        rows = [
            (src, (src + offset) % PEERS, msg_type, size, wire, 1)
            for offset in draw(st.lists(st.integers(1, PEERS - 1), max_size=6))
        ]
        if draw(st.booleans()):
            flips.append(src)  # as often as not from a down origin
    elif draw(st.booleans()):
        rows = draw(st.lists(messages(src=draw(st.integers(0, PEERS - 1))),
                             min_size=0, max_size=8))
    else:
        rows = draw(st.lists(messages(), min_size=0, max_size=8))
    return kind, rows, flips


scripts = st.lists(steps(), min_size=1, max_size=4)


def _fanout(src, offsets, size=120, wire=120):
    return [(src, (src + k) % PEERS, "beta", size, wire, 1) for k in offsets]


#: the cases the issue names, run on every invocation: a fan-out to repeated
#: recipients, to one, to none, from a down origin (then scalar sends and a
#: block from the same down peer), and a compressed fan-out after recovery
NAMED_CASES = [
    ("fanout", _fanout(0, (1, 2, 2, 5, 1)), []),
    ("fanout", _fanout(3, (4,)), []),
    ("fanout", [], []),
    ("fanout", _fanout(6, (1, 2, 3)), [6]),
    ("send", _fanout(6, (1,)) + _fanout(2, (3, 3)), []),
    ("batch", _fanout(6, (1, 2)) + _fanout(1, (2,)), []),
    ("fanout", _fanout(6, (1, 2, 3, 4, 5, 6, 7), size=300, wire=40), [6]),
]


def _materialize(rows):
    return [
        Message(src=src, dst=dst, msg_type=msg_type, payload=None,
                size_bytes=size, wire_bytes=wire, hops=hops)
        for src, dst, msg_type, size, wire, hops in rows
    ]


class Script:
    """SPMD workload: every replica flips the same peers and takes the same
    steps at ticks 0, 1, 2, … and reports everything observable."""

    def __init__(self, script, oracle):
        self.script = script
        self.oracle = oracle

    def __call__(self, scenario):
        network = scenario.network
        simulator = scenario.simulator
        if self.oracle:
            install_per_message_send(network)
            install_per_message_broadcast(scenario.transport)
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

        def send(kind, rows):
            if kind == "batch":
                return network.send_batch(_materialize(rows))
            if kind == "send":
                return [network.send(m) for m in _materialize(rows)]
            if not rows:
                return network.broadcast_block(0, [], "beta", None, 120).tolist()
            src, _, msg_type, size, wire, _ = rows[0]
            first = len(seen["blocks"])
            results = network.broadcast_block(
                src, [row[1] for row in rows], msg_type, None, size, wire
            ).tolist()
            # the core shows a fan-out as one block, its oracle row by row:
            # the rows and their order are what the two must agree on
            seen["blocks"][first:] = [
                (time, 1, [row])
                for time, _, observed in seen["blocks"][first:]
                for row in observed
            ]
            return results

        def heap_row(entry):
            time, seq, callback, args = entry[:4]
            if callback == network._deliver:
                return time, seq, args[0].dst
            if callback == network._deliver_lazy:
                return time, seq, args[1]

        def fire(kind, rows, flips):
            for peer in flips:
                network.set_down(peer, not network.is_down(peer))
            seen["results"].append(send(kind, rows))
            seen["heap"].append(sorted(filter(None, map(heap_row, simulator._queue))))

        for tick, step in enumerate(self.script):
            simulator.schedule_at(float(tick), fire, args=step)
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


def _config(rng_mode, seed, shards=0, loss=0.0):
    return ScenarioConfig(
        num_peers=PEERS, overlay="fullmesh", rng_mode=rng_mode,
        jitter_floor=0.5, shards=shards, shard=ShardSpec(num_peers=PEERS),
        drop_probability=loss, seed=seed,
    )


losses = st.sampled_from((0.0, 0.4))


@pytest.mark.parametrize("rng_mode", ["stream", "perpeer"])
@settings(max_examples=60, deadline=None)
@given(script=scripts, seed=st.integers(0, 3), loss=losses)
@example(script=NAMED_CASES, seed=0, loss=0.0)
@example(script=NAMED_CASES, seed=0, loss=0.4)
def test_flat_block_core_equals_the_per_message_loop(
    rng_mode, script, seed, loss
):
    core, oracle = (
        Script(script, oracle)(Scenario(_config(rng_mode, seed, loss=loss)))
        for oracle in (False, True)
    )
    assert core == oracle


@settings(max_examples=25, deadline=None)
@given(script=scripts, seed=st.integers(0, 3), loss=losses)
@example(script=NAMED_CASES, seed=0, loss=0.0)
@example(script=NAMED_CASES, seed=0, loss=0.4)
def test_sharded_block_core_equals_the_per_message_loop(script, seed, loss):
    config = _config("perpeer", seed, shards=2, loss=loss)
    core, oracle = (
        ShardedScenario(config, executor="serial").run(Script(script, oracle))
        for oracle in (False, True)
    )
    assert core.results == oracle.results  # per shard, in shard order
    assert core.digest() == oracle.digest()
    # and the two replicas together are the single heap: same digest, every
    # attempt observed and every delivery made exactly once
    flat = Script(script, False)(Scenario(_config("perpeer", seed, loss=loss)))
    assert core.stats.fingerprint_bytes() == flat["fingerprint"]
    for result in core.results:  # every replica reports the same outcomes
        assert result["results"] == flat["results"]

    def pooled(key):
        return sum((result[key] for result in core.results), [])

    def observed_rows(blocks):  # a replica sees only its own sources' rows
        return sorted(
            (time, row) for time, _, rows in blocks for row in rows
        )

    assert sorted(pooled("delivered")) == sorted(flat["delivered"])
    assert observed_rows(pooled("blocks")) == observed_rows(flat["blocks"])


def _run_everywhere(workload, shards):
    if shards:
        ShardedScenario(
            _config("perpeer", 0, shards=shards), executor="serial"
        ).run(workload)
    else:
        workload(Scenario(_config("perpeer", 0)))


class _Untouched:
    """Everything a refused send must leave alone, read before and after."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.before = self._cursors()

    def _cursors(self):
        return (self.scenario.streams.export_cursors(),
                self.scenario.simulator.export_cursors())

    def check(self):
        scenario = self.scenario
        assert scenario.stats.total_messages == 0
        assert scenario.stats.delta_since({}) == {}
        assert scenario.simulator.pending_events == 0
        assert self.before == self._cursors()


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
        untouched = _Untouched(scenario)
        with pytest.raises(SimulationError, match="loopback"):
            network.send_batch(_materialize(rows))
        untouched.check()
        assert blocks == []

    _run_everywhere(workload, shards)


@pytest.mark.parametrize("shards", [0, 2])
@pytest.mark.parametrize("dsts", [[3], [1, 3, 5], [4, 4, 3]])
def test_a_fan_out_to_its_own_source_is_rejected_whole(shards, dsts):
    def workload(scenario):
        network = scenario.network
        for address in range(PEERS):
            scenario.register_peer(address, lambda message: None)
        blocks = []
        network.add_block_listener(blocks.append)
        untouched = _Untouched(scenario)
        with pytest.raises(SimulationError, match="loopback"):
            network.broadcast_block(3, dsts, "alpha", None, 64)
        untouched.check()
        assert blocks == []

    _run_everywhere(workload, shards)


@pytest.mark.parametrize("shards", [0, 2])
@pytest.mark.parametrize("source", ["down", "never registered"])
def test_a_fan_out_from_a_dead_source_is_observed_and_charges_nothing(
    shards, source
):
    def workload(scenario):
        network = scenario.network
        for address in range(1, PEERS):
            scenario.register_peer(address, lambda message: None)
        if source == "down":
            scenario.register_peer(0, lambda message: None)
            network.set_down(0)
        blocks = []
        network.add_block_listener(blocks.append)
        untouched = _Untouched(scenario)
        sent = network.broadcast_block(0, [1, 2, 3], "alpha", None, 64, 16)
        assert sent.dtype == bool and sent.tolist() == [False] * 3
        untouched.check()
        # the attempt is one block with scalar columns, on the owner only
        assert [(b.count, b.src, b.dst, b.msg_type, b.size_bytes,
                 b.wire_bytes, b.hops) for b in blocks] == (
            [(3, 0, [1, 2, 3], "alpha", 64, 16, 1)]
            if scenario.owns(0) else []
        )

    _run_everywhere(workload, shards)


def test_the_oracle_is_a_different_implementation():
    """Mutation check on the harness itself: the oracles must reach
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
        script = [
            ("batch", [(0, 1, "alpha", 10, 10, 1), (0, 2, "alpha", 10, 10, 1),
                       (3, 2, "beta", 20, 5, 2)], []),
            ("fanout", _fanout(4, (1, 2)), []),
        ]
        Script(script, oracle)(scenario)
    assert calls[False] == {"record_message": 0, "record_messages": 2}
    assert calls[True] == {"record_message": 5, "record_messages": 0}


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
