"""Tests for the physical network model and churn machinery."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.churn import (
    ChurnDriver,
    ExponentialChurn,
    NoChurn,
    ParetoChurn,
    WeibullChurn,
)
from repro.core.tagger import P2PDocTaggerSystem
from repro.data.delicious import DeliciousGenerator
from repro.sim.distribution import ShardSpec
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import LatencyModel, PhysicalNetwork, SharedStream
from repro.sim.node import SimNode
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.shard import ShardedScenario, scenario_digest


def make_network(seed=0, **latency_kwargs):
    sim = Simulator(seed=seed)
    network = PhysicalNetwork(
        sim, SharedStream(sim.rng), latency=LatencyModel(**latency_kwargs)
    )
    return sim, network


class TestPhysicalNetwork:
    def test_delivery(self):
        sim, network = make_network()
        received = []
        network.register(1, lambda m: None)
        network.register(2, received.append)
        assert network.send(Message(src=1, dst=2, msg_type="ping", payload="x"))
        sim.run()
        assert len(received) == 1
        assert received[0].payload == "x"

    def test_latency_positive(self):
        sim, network = make_network()
        network.register(1, lambda m: None)
        arrival = []
        network.register(2, lambda m: arrival.append(sim.now))
        network.send(Message(src=1, dst=2, msg_type="ping"))
        sim.run()
        assert arrival[0] > 0

    def test_transmission_delay_scales_with_size(self):
        sim, network = make_network(jitter_fraction=0.0, bandwidth=1000.0)
        network.register(1, lambda m: None)
        arrivals = {}
        network.register(2, lambda m: arrivals.setdefault(m.msg_type, sim.now))
        network.send(Message(src=1, dst=2, msg_type="small", size_bytes=10))
        sim.run()
        sim2, network2 = make_network(jitter_fraction=0.0, bandwidth=1000.0)
        network2.register(1, lambda m: None)
        arrivals2 = {}
        network2.register(2, lambda m: arrivals2.setdefault(m.msg_type, sim2.now))
        network2.send(Message(src=1, dst=2, msg_type="big", size_bytes=100_000))
        sim2.run()
        assert arrivals2["big"] > arrivals["small"]

    def test_loopback_rejected(self):
        _, network = make_network()
        network.register(1, lambda m: None)
        with pytest.raises(SimulationError):
            network.send(Message(src=1, dst=1, msg_type="self"))

    def test_down_source_drops(self):
        sim, network = make_network()
        network.register(1, lambda m: None)
        network.register(2, lambda m: None)
        network.set_down(1)
        assert not network.send(Message(src=1, dst=2, msg_type="ping"))
        assert network.stats.total_messages == 0

    def test_down_destination_counted_but_lost(self):
        sim, network = make_network()
        received = []
        network.register(1, lambda m: None)
        network.register(2, received.append)
        network.set_down(2)
        assert network.send(Message(src=1, dst=2, msg_type="ping"))
        sim.run()
        assert received == []
        assert network.stats.total_messages == 1
        assert network.stats.counters["messages_undeliverable"] == 1

    def test_recovery_after_down(self):
        sim, network = make_network()
        received = []
        network.register(1, lambda m: None)
        network.register(2, received.append)
        network.set_down(2)
        network.set_down(2, False)
        network.send(Message(src=1, dst=2, msg_type="ping"))
        sim.run()
        assert len(received) == 1

    def test_drop_probability_one_drops_everything(self):
        sim, network = make_network(drop_probability=1.0)
        received = []
        network.register(1, lambda m: None)
        network.register(2, received.append)
        for _ in range(10):
            network.send(Message(src=1, dst=2, msg_type="ping"))
        sim.run()
        assert received == []
        assert network.stats.counters["messages_dropped"] == 10

    def test_pair_latency_deterministic(self):
        _, n1 = make_network()
        _, n2 = make_network()
        assert n1._pair_base_latency(3, 9) == n2._pair_base_latency(9, 3)

    def test_live_nodes(self):
        _, network = make_network()
        network.register(1, lambda m: None)
        network.register(2, lambda m: None)
        network.set_down(2)
        assert network.live_nodes() == {1}


class TestSimNode:
    def test_send_and_dispatch(self):
        sim, network = make_network()
        SimNode(1, network)
        b = SimNode(2, network)
        got = []
        b.on("hello", lambda m: got.append(m.payload))
        network.send(Message(src=1, dst=2, msg_type="hello", payload="world"))
        sim.run()
        assert got == ["world"]

    def test_unhandled_type_counted(self):
        sim, network = make_network()
        SimNode(1, network)
        SimNode(2, network)
        network.send(Message(src=1, dst=2, msg_type="mystery"))
        sim.run()
        assert network.stats.counters["unhandled:mystery"] == 1


class TestChurnModels:
    def test_no_churn_never_leaves(self):
        model = NoChurn()
        rng = np.random.default_rng(0)
        assert model.session_time(rng) == float("inf")
        assert not model.churns

    def test_exponential_means(self):
        model = ExponentialChurn(mean_session=100.0, mean_downtime=10.0)
        rng = np.random.default_rng(0)
        sessions = [model.session_time(rng) for _ in range(2000)]
        assert np.mean(sessions) == pytest.approx(100.0, rel=0.1)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ExponentialChurn(mean_session=0, mean_downtime=1)
        with pytest.raises(ConfigurationError):
            WeibullChurn(scale_session=-1)
        with pytest.raises(ConfigurationError):
            ParetoChurn(minimum_session=0)

    @pytest.mark.parametrize("build, name", [
        (lambda v: ExponentialChurn(v, 10.0), "mean_session"),
        (lambda v: ExponentialChurn(10.0, v), "mean_downtime"),
        (lambda v: WeibullChurn(v), "scale_session"),
        (lambda v: WeibullChurn(10.0, shape=v), "shape"),
        (lambda v: WeibullChurn(10.0, mean_downtime=v), "mean_downtime"),
        (lambda v: ParetoChurn(minimum_session=v), "minimum_session"),
        (lambda v: ParetoChurn(alpha=v), "alpha"),
        (lambda v: ParetoChurn(mean_downtime=v), "mean_downtime"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameters_refused_by_name(self, build, name, value):
        with pytest.raises(ConfigurationError, match=rf"^{name} must be finite"):
            build(value)

    def test_zero_downtime_stays_valid(self):
        rng = np.random.default_rng(0)
        for model in (ExponentialChurn(10.0, 0.0), WeibullChurn(10.0, 0.6, 0.0),
                      ParetoChurn(10.0, 1.5, 0.0)):
            assert model.downtime(rng) == 0.0

    def test_all_models_positive_draws(self):
        rng = np.random.default_rng(1)
        for model in (
            ExponentialChurn(50, 5),
            WeibullChurn(50, 0.6, 5),
            ParetoChurn(10, 1.5, 5),
        ):
            for _ in range(100):
                assert model.session_time(rng) >= 0
                assert model.downtime(rng) >= 0

    def test_zero_downtime_supported(self):
        rng = np.random.default_rng(1)
        model = ExponentialChurn(50, 0)
        assert model.downtime(rng) == 0.0


class TestChurnDriver:
    def test_peers_cycle_down_and_up(self):
        sim, network = make_network()
        for address in range(8):
            network.register(address, lambda m: None)
        left, joined = [], []
        driver = ChurnDriver(
            sim,
            network,
            ExponentialChurn(mean_session=10.0, mean_downtime=5.0),
            network.streams,
            on_leave=left.append,
            on_join=joined.append,
        )
        driver.start(list(range(8)))
        sim.run(until=200.0)
        assert driver.leave_count > 0
        assert driver.join_count > 0
        assert left and joined

    def test_no_churn_schedules_nothing(self):
        sim, network = make_network()
        network.register(0, lambda m: None)
        driver = ChurnDriver(sim, network, NoChurn(), network.streams)
        driver.start([0])
        assert sim.pending_events == 0


# -- Scenario.start_churn() is idempotent while churn runs --------------------


class _Churned:
    """SPMD workload: ``calls`` start_churn() calls at t = 0 and ``later``
    more at t = 100, then 300 s of virtual time in all."""

    def __init__(self, calls, later=0):
        self.calls = calls
        self.later = later

    def __call__(self, scenario):
        for _ in range(self.calls):
            scenario.start_churn()
        scenario.run(100.0)
        for _ in range(self.later):
            scenario.start_churn()
        scenario.run(200.0)
        driver = scenario.churn_driver
        return driver.leave_count, driver.join_count


def _churn_config(**overrides):
    return ScenarioConfig(
        num_peers=32, overlay="chord", churn="exponential",
        mean_session=60.0, mean_downtime=10.0, rng_mode="perpeer",
        jitter_floor=0.5, shard=ShardSpec(num_peers=32), seed=3, **overrides,
    )


def _run_churned(workload, **overrides):
    config = _churn_config(**overrides)
    if config.shards:
        run = ShardedScenario(config, executor="serial").run(workload)
        return run.results, run.digest()
    scenario = Scenario(config)
    counts = workload(scenario)
    return counts, scenario_digest(scenario.stats, scenario.simulator.now)


@pytest.mark.parametrize("shape", [
    {}, {"shards": 2},
], ids=["flat", "directory-k2"])
def test_starting_churn_twice_is_starting_it_once(shape):
    once = _run_churned(_Churned(1), **shape)
    leaves = once[0][0][0] if shape else once[0][0]
    assert leaves > 50  # the scenario really churns
    assert _run_churned(_Churned(2), **shape) == once
    assert _run_churned(_Churned(3, later=2), **shape) == once


def test_retraining_a_churned_system_schedules_no_second_cycle():
    corpus = DeliciousGenerator(
        num_users=5, seed=0, num_tags=6, docs_per_user_range=(12, 16),
        vocabulary_size=400, topic_words_per_tag=30,
        doc_length_range=(30, 60),
    ).generate()
    system = P2PDocTaggerSystem.from_corpus(
        corpus, algorithm="pace", churn="exponential", seed=1,
    )

    driver = system.scenario.churn_driver
    cycle_steps = (driver._leave, driver._rejoin)

    def queued_cycles():
        return sorted(
            args[0]
            for _, _, callback, args in system.scenario.simulator._queue
            if callback in cycle_steps
        )

    system.train()
    peers = sorted(system.scenario.peer_addresses)
    assert queued_cycles() == peers  # one pending leave or rejoin per peer
    system.train()
    assert queued_cycles() == peers
