"""P2PDMT — the P2P data-mining simulation toolkit (paper Fig. 2).

The original system extends OverSim; this package is a self-contained
discrete-event replacement providing the same observables:

- a deterministic event kernel with a virtual clock (:mod:`repro.sim.engine`),
- a physical-network model with latency, bandwidth and loss
  (:mod:`repro.sim.network`),
- churn processes driving joins and failures (:mod:`repro.sim.churn`),
- size-accounted messages (:mod:`repro.sim.messages`),
- wire-format codec size models (:mod:`repro.sim.codec`),
- traffic and counter statistics (:mod:`repro.sim.stats`),
- training-data distribution across peers (:mod:`repro.sim.distribution`),
- scenario configuration and running (:mod:`repro.sim.scenario`),
- the sharded event kernel with conservative virtual-time windows
  (:mod:`repro.sim.shard`) and the one window-barrier coordinator loop
  every shard executor runs (:mod:`repro.sim.barrier`),
- the columnar cross-shard exchange frames and rings
  (:mod:`repro.sim.exchange`),
- the per-window write-ahead log and prefix replay
  (:mod:`repro.sim.wal`),
- the socket executor placing shard workers across machines
  (:mod:`repro.sim.tcpexec`), and
- network visualization helpers (:mod:`repro.sim.visualize`).
"""

from repro.sim.engine import Simulator, Event
from repro.sim.messages import Message, payload_size
from repro.sim.network import (
    PhysicalNetwork,
    LatencyModel,
    PeerStreams,
    pair_mix64,
    pair_seed,
    stream_seed,
)
from repro.sim.transport import Transport, Outcome, BroadcastOutcome
from repro.sim.codec import (
    Codec,
    CodecTable,
    codec_names,
    make_codec_table,
    register_traffic_class,
)
from repro.sim.churn import (
    ChurnModel,
    NoChurn,
    ExponentialChurn,
    WeibullChurn,
    ParetoChurn,
    ChurnDriver,
)
from repro.sim.node import SimNode
from repro.sim.stats import StatsCollector
from repro.sim.workload import QueryWorkload, WorkloadConfig, QueryEvent
from repro.sim.distribution import DataDistributor, ShardSpec
from repro.sim.scenario import ScenarioConfig, Scenario
from repro.sim.shard import (
    ShardedRun,
    ShardedScenario,
    compute_lookahead,
    run_sharded,
    scenario_digest,
    shard_of,
)

__all__ = [
    "Simulator",
    "Event",
    "Message",
    "payload_size",
    "PhysicalNetwork",
    "LatencyModel",
    "pair_mix64",
    "pair_seed",
    "Transport",
    "Outcome",
    "BroadcastOutcome",
    "Codec",
    "CodecTable",
    "codec_names",
    "make_codec_table",
    "register_traffic_class",
    "ChurnModel",
    "NoChurn",
    "ExponentialChurn",
    "WeibullChurn",
    "ParetoChurn",
    "ChurnDriver",
    "SimNode",
    "StatsCollector",
    "QueryWorkload",
    "WorkloadConfig",
    "QueryEvent",
    "DataDistributor",
    "ShardSpec",
    "ScenarioConfig",
    "Scenario",
    "PeerStreams",
    "stream_seed",
    "ShardedRun",
    "ShardedScenario",
    "compute_lookahead",
    "run_sharded",
    "scenario_digest",
    "shard_of",
]
