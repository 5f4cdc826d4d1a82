"""Scenario configuration and assembly (P2PDMT's "Set parameters" box).

A :class:`ScenarioConfig` captures every knob the demo varies: network size,
overlay type, churn model, physical-network parameters, and the data
size/class distribution.  :class:`Scenario` assembles the simulator, network,
overlay, churn driver, and stats into one ready-to-run environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.constraints import (
    at_least, check, finite, in_range, integer, one_of, positive, setting,
)
from repro.errors import ConfigurationError
from repro.overlay import make_overlay, overlay_names
from repro.overlay.base import Overlay
from repro.sim.codec import codec_names, make_codec_table, register_traffic_class
from repro.sim.churn import (
    ChurnDriver,
    ChurnModel,
    ExponentialChurn,
    NoChurn,
    ParetoChurn,
    WeibullChurn,
)
from repro.sim.distribution import MAX_PEERS, ShardSpec
from repro.sim.engine import Simulator
from repro.sim.network import (
    LatencyModel, PeerStreams, PhysicalNetwork, SharedStream,
)
from repro.sim.node import SimNode
from repro.sim.stats import StatsCollector
from repro.sim.transport import Transport


#: the sharded executors (repro.sim.shard.ShardedScenario): "serial"
#: (lockstep in one process, the deterministic reference) and "mp" (one
#: forked worker process per shard on a socketpair — repro.sim.tcpexec).
#: "tcp" is a second name for the same fleet, kept while the repo
#: benchmark's storm-sharded workload runs a leg under it.
EXECUTORS = ("serial", "mp", "tcp")


#: the churn models ScenarioConfig.churn names (repro.sim.churn)
CHURN_MODELS = ("none", "exponential", "weibull", "pareto")


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one simulated P2P environment."""

    num_peers: int = setting(32, integer, in_range(1, MAX_PEERS))
    overlay: str = setting("chord", one_of(overlay_names()))
    churn: str = setting("none", one_of(CHURN_MODELS))
    mean_session: float = setting(600.0, finite, positive)
    mean_downtime: float = setting(60.0, finite, at_least(0))
    base_latency: float = setting(0.05, finite, at_least(0))
    bandwidth: float = setting(1_000_000.0, positive)
    drop_probability: float = setting(0.0, in_range(0, 1))
    unstructured_degree: int = setting(4, integer, at_least(1))
    #: 0 would reschedule stabilization at the same instant forever
    stabilize_interval: float = setting(30.0, finite, positive)
    shard: ShardSpec = field(default_factory=lambda: ShardSpec(num_peers=32))
    codec: str = setting("identity", one_of(codec_names()))
    #: randomness layout, read once into Scenario.streams: "stream" draws
    #: everything from the simulator's single seeded generator in event
    #: order (repro.sim.network.SharedStream: the legacy mode, required for
    #: the pre-shard golden digests); "perpeer" decomposes jitter/loss/churn
    #: into per-peer streams (repro.sim.network.PeerStreams), making draw
    #: values independent of cross-peer event interleaving — the invariant
    #: sharded execution needs.
    rng_mode: str = setting("stream", one_of(("stream", "perpeer")))
    #: lower clamp on the jitter draw; must be positive for sharded runs
    #: (it bounds the minimum cross-shard latency, i.e. the lookahead).
    jitter_floor: float = setting(0.0, in_range(0, 1))
    #: event-kernel shards: 0 = single-heap kernel; >= 1 runs through
    #: repro.sim.shard.ShardedScenario (peers partitioned across heaps,
    #: advanced in conservative virtual-time windows).
    shards: int = setting(0, integer, at_least(0))
    #: not a setting: a sharded run always has one control plane (the
    #: directory, repro.sim.shard) and a flat run the kernel's own.  Kept
    #: only as a spelling older callers pass; ``None``, or exactly the
    #: plane ``shards`` implies ("directory" / "replicated").
    control_plane: Optional[str] = None
    #: simulation WAL (repro.sim.wal): checkpoint the run's window stream
    #: to this path ...
    wal: Optional[str] = None
    #: ... and/or resume (verified prefix replay) from this log.  Both are
    #: log plumbing, not physics — they never change the event stream and
    #: are excluded from the WAL's own config fingerprint.
    resume: Optional[str] = None
    seed: int = setting(0, integer, at_least(0))

    def validate(self) -> None:
        check(self)
        # The rules on rng_mode and control_plane stay in this method, the
        # one place outside Scenario.__init__ that reads either.
        if self.shards and self.rng_mode != "perpeer":
            raise ConfigurationError(
                f"shards={self.shards} requires rng_mode='perpeer' (a single "
                "RNG stream cannot be split across shard heaps)"
            )
        if self.shards and not self.jitter_floor:
            raise ConfigurationError(
                f"shards={self.shards} requires jitter_floor > 0 (it bounds "
                "the cross-shard lookahead window)"
            )
        implied = "directory" if self.shards else "replicated"
        if self.control_plane not in (None, implied):
            raise ConfigurationError(
                f"control_plane={self.control_plane!r} is not a choice: "
                f"shards={self.shards} runs the {implied!r} plane (leave "
                "control_plane unset)"
            )
        _logs_need_shards(self)
        _shard_spec_covers_the_peers(self)

    def build_churn_model(self) -> ChurnModel:
        if self.churn == "none":
            return NoChurn()
        if self.churn == "exponential":
            return ExponentialChurn(self.mean_session, self.mean_downtime)
        if self.churn == "weibull":
            return WeibullChurn(
                scale_session=self.mean_session, mean_downtime=self.mean_downtime
            )
        return ParetoChurn(
            minimum_session=self.mean_session / 3.0,
            mean_downtime=self.mean_downtime,
        )

    def build_latency(self) -> LatencyModel:
        """The one mapping from config to delay model: the sharded lookahead
        is derived from exactly the model every kernel's network runs."""
        return LatencyModel(
            base_latency=self.base_latency,
            bandwidth=self.bandwidth,
            drop_probability=self.drop_probability,
            jitter_floor=self.jitter_floor,
        )

    def build_overlay(self) -> Overlay:
        return make_overlay(
            self.overlay, seed=self.seed, degree=self.unstructured_degree
        )


def _logs_need_shards(config: ScenarioConfig) -> None:
    if (config.wal or config.resume) and config.shards < 1:
        raise ConfigurationError(
            "the simulation WAL hooks the sharded kernel's window "
            "barriers (set shards >= 1 to use wal/resume)"
        )


def _shard_spec_covers_the_peers(config: ScenarioConfig) -> None:
    if config.shard.num_peers != config.num_peers:
        raise ConfigurationError(
            "shard.num_peers must equal num_peers "
            f"({config.shard.num_peers} != {config.num_peers})"
        )


class Scenario:
    """An assembled simulation environment.

    Peers get physical addresses 0..num_peers-1, join the overlay, and are
    registered on the physical network.  Churn (if any) keeps overlay
    membership in sync and schedules periodic stabilization.
    """

    #: True on shard-worker subclasses (repro.sim.shard): a plain Scenario
    #: refuses configs demanding sharded execution.
    sharded = False

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        if config.shards >= 1 and not self.sharded:
            raise ConfigurationError(
                "config requests sharded execution (shards="
                f"{config.shards}); build it through "
                "repro.sim.shard.ShardedScenario"
            )
        self.config = config
        self.simulator = self._make_simulator()
        #: the run's one randomness object, and the one place that knows
        #: which layout it is: every network, churn and activation draw
        #: asks it for a peer's stream.
        self.streams = (
            PeerStreams(config.seed) if config.rng_mode == "perpeer"
            else SharedStream(self.simulator.rng)
        )
        self.stats = StatsCollector()
        self.network = self._make_network()
        self.peer_addresses: List[int] = list(range(config.num_peers))
        #: per-peer states (SimNodes / handler registrations) built by THIS
        #: kernel — ≈ N/K on a shard worker, N on the flat kernel (see
        #: construction_cost)
        self.peers_materialized = 0
        self.overlay = self._build_overlay()
        self.codec_table = make_codec_table(config.codec)
        self.transport = Transport(
            self.network,
            overlay=self.overlay,
            stats=self.stats,
            codec=self.codec_table,
        )

        self.churn_model = config.build_churn_model()
        self.churn_driver = self._make_churn_driver()
        self._stabilize_scheduled = False

    # -- construction hooks (overridden by shard workers) ---------------

    def _make_simulator(self) -> Simulator:
        return Simulator(seed=self.config.seed)

    def _build_overlay(self) -> Overlay:
        """Construct the overlay with every peer joined and tables built.

        Shard workers override this: they restore the directory's startup
        snapshot instead of recomputing N joins worth of routing state.
        """
        overlay = self.config.build_overlay()
        for address in self.peer_addresses:
            overlay.join(address)
        overlay.stabilize()
        return overlay

    def _make_churn_driver(self):
        """The churn process driver (shard workers use a served client)."""
        return ChurnDriver(
            self.simulator,
            self.network,
            self.churn_model,
            self.streams,
            on_leave=self._on_peer_leave,
            on_join=self._on_peer_join,
        )

    def _make_network(self) -> PhysicalNetwork:
        return PhysicalNetwork(
            self.simulator,
            self.streams,
            latency=self.config.build_latency(),
            stats=self.stats,
        )

    # -- ownership hooks -------------------------------------------------
    #
    # In a sharded run one writer (the directory control plane) runs the
    # global control processes — churn timelines, overlay maintenance —
    # and every shard worker reads them, applying each served record to
    # its own overlay view, so each such observable happens K times across
    # the fleet but must be accounted once.  These hooks gate per-peer
    # accounting and state to the peer's owning shard and run-global
    # accounting to shard 0; on the single-heap kernel they are constant
    # True, and the gated code paths are byte-identical to the ungated
    # originals.

    @property
    def shard_id(self) -> int:
        """This kernel's shard index (0 on the single-heap kernel).

        Lets accounting-only observers (the trace store) name per-shard
        artifacts without probing for the worker subclass.
        """
        return 0

    @property
    def num_shards(self) -> int:
        """Total shard count this run was configured for (>= 1)."""
        return max(1, self.config.shards)

    def add_barrier_hook(self, hook) -> bool:
        """Register an accounting-only window-barrier observer.

        Returns False on the single-heap kernel — there are no window
        barriers, so callers (the trace store) fall back to record-count
        flushing plus an end-of-run flush.  The sharded worker scenario
        overrides this to append to the runtime's barrier hooks and
        returns True.
        """
        return False

    def owns(self, address: int) -> bool:
        """True when this kernel accounts for ``address``'s activity."""
        return True

    def owns_control(self) -> bool:
        """True when this kernel accounts run-global observables."""
        return True

    def materialize_peer(self, address: int) -> Optional[SimNode]:
        """Ownership-gated :class:`SimNode` construction.

        Returns the node when this kernel owns ``address``; remote peers
        (their liveness synced by served records, their handlers on the
        owning shard) are registered as directory-served endpoints and
        ``None`` is returned.  The one sanctioned way for protocols to
        build their peer fleets — it feeds the ``peers_materialized``
        construction counter.
        """
        if self.owns(address):
            self.peers_materialized += 1
            return SimNode(address, self.network)
        self.network.register_remote(address)
        return None

    def register_peer(self, address: int, handler) -> bool:
        """Ownership-gated raw handler registration (workloads that do not
        need typed :class:`SimNode` dispatch).  Returns True when the peer
        materialized locally."""
        if self.owns(address):
            self.network.register(address, handler)
            self.peers_materialized += 1
            return True
        self.network.register_remote(address)
        return False

    def construction_cost(self) -> dict:
        """Numeric construction-cost counters (the O(N/K) witness).

        ``peers_materialized`` counts per-peer states this kernel built;
        ``overlay_entries_built`` counts routing-table entries its overlay
        instance computed (a directory-served view applies edits instead,
        so the counter stays near zero).
        """
        return {
            "peers_materialized": self.peers_materialized,
            "overlay_entries_built": self.overlay.entries_built,
        }

    # ------------------------------------------------------------------

    def _on_peer_leave(self, address: int) -> None:
        self.overlay.leave(address)
        if self.owns(address):
            self.stats.increment("churn_leaves")

    def _on_peer_join(self, address: int) -> None:
        self.overlay.join(address)
        if self.owns(address):
            self.stats.increment("churn_joins")

    #: maintenance probes are tiny control frames — no codec helps them
    MAINTENANCE_MSG_TYPE = "overlay.maintenance"

    #: bytes of one maintenance probe (ping/pong + a few table entries)
    MAINTENANCE_PROBE_BYTES = 48
    #: probes each node sends per stabilization round
    MAINTENANCE_PROBES_PER_NODE = 4

    def _periodic_stabilize(self) -> None:
        self.overlay.stabilize()
        self.overlay.repair()
        if self.owns_control():
            self.stats.increment("stabilize_rounds")
        self._charge_maintenance()
        self.simulator.schedule(
            self.config.stabilize_interval, self._periodic_stabilize
        )

    def _charge_maintenance(self) -> None:
        """Charge the probe traffic a stabilization round costs.

        Every live node probes a handful of neighbours (successor pings,
        bucket refreshes).  The table repair itself is computed synchronously
        by ``overlay.stabilize()``; this keeps its *cost* visible in every
        experiment that runs under churn.  Probes are modelled-only traffic, charged
        through the transport so the accounting matches real messages.
        """
        for address in self.overlay.members():
            if not self.owns(address):
                continue
            neighbors = self.overlay.neighbors(address)
            for neighbor in neighbors[: self.MAINTENANCE_PROBES_PER_NODE]:
                self.transport.charge(
                    src=address,
                    dst=neighbor,
                    msg_type=self.MAINTENANCE_MSG_TYPE,
                    size_bytes=self.MAINTENANCE_PROBE_BYTES,
                )

    # ------------------------------------------------------------------

    def start_churn(self) -> None:
        """Begin churn cycles and periodic overlay maintenance.

        Both run for the rest of the run: there is no stop.  A second call
        schedules nothing new.
        """
        self.churn_driver.start(self.peer_addresses)
        if self.churn_model.churns and not self._stabilize_scheduled:
            self._stabilize_scheduled = True
            self.simulator.schedule(
                self.config.stabilize_interval, self._periodic_stabilize
            )

    def live_peers(self) -> List[int]:
        """Peers currently in the overlay (i.e. not churned out)."""
        overlay = self.overlay
        return [a for a in self.peer_addresses if a in overlay]

    def run(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.simulator.run(until=self.simulator.now + duration)


register_traffic_class(Scenario.MAINTENANCE_MSG_TYPE, "control")
