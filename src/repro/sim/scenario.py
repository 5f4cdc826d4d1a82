"""Scenario configuration and assembly (P2PDMT's "Set parameters" box).

A :class:`ScenarioConfig` captures every knob the demo varies: network size,
overlay type, churn model, physical-network parameters, and the data
size/class distribution.  :class:`Scenario` assembles the simulator, network,
overlay, churn driver, and stats into one ready-to-run environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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
from repro.sim.distribution import ShardSpec
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, PeerStreams, PhysicalNetwork
from repro.sim.node import SimNode
from repro.sim.stats import StatsCollector
from repro.sim.transport import Transport


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one simulated P2P environment."""

    num_peers: int = 32
    overlay: str = "chord"  # any name in repro.overlay.overlay_names()
    churn: str = "none"  # "none" | "exponential" | "weibull" | "pareto"
    mean_session: float = 600.0
    mean_downtime: float = 60.0
    base_latency: float = 0.05
    bandwidth: float = 1_000_000.0
    drop_probability: float = 0.0
    unstructured_degree: int = 4
    stabilize_interval: float = 30.0
    shard: ShardSpec = field(default_factory=lambda: ShardSpec(num_peers=32))
    codec: str = "identity"  # any name in repro.sim.codec.codec_names()
    #: randomness layout: "stream" draws everything from the simulator's
    #: single seeded generator in event order (the legacy mode, required for
    #: the pre-shard golden digests); "perpeer" decomposes jitter/loss/churn
    #: into per-peer streams (repro.sim.network.PeerStreams), making draw
    #: values independent of cross-peer event interleaving — the invariant
    #: sharded execution needs.
    rng_mode: str = "stream"
    #: lower clamp on the jitter draw; must be positive for sharded runs
    #: (it bounds the minimum cross-shard latency, i.e. the lookahead).
    jitter_floor: float = 0.0
    #: event-kernel shards: 0 = single-heap kernel; >= 1 runs through
    #: repro.sim.shard.ShardedScenario (peers partitioned across heaps,
    #: advanced in conservative virtual-time windows).
    shards: int = 0
    #: sharded executor: "serial" (lockstep in one process, the
    #: deterministic reference), "mp" (one worker process per shard), or
    #: "tcp" (a coordinator plus socket-connected workers, possibly on
    #: other machines — repro.sim.tcpexec).
    executor: str = "serial"
    #: tcp executor: the coordinator's bind address (port 0 = ephemeral,
    #: the default for localhost test fleets) ...
    tcp_host: str = "127.0.0.1"
    tcp_port: int = 0
    #: ... and worker placement: a comma-separated spec with one entry per
    #: shard (or one entry for all) — "local" spawns `repro worker`
    #: subprocesses here, "wait" expects externally launched workers to
    #: connect in, "ssh:HOST" spawns them over ssh.  Like wal/resume this
    #: is plumbing, not physics: excluded from the WAL config fingerprint.
    tcp_hosts: Optional[str] = None
    #: sharded control plane: "replicated" (SPMD: every worker replays
    #: churn timelines and overlay maintenance for all N peers) or
    #: "directory" (one authoritative control plane owns them,
    #: publishes an overlay snapshot at startup plus per-window delta
    #: records, and workers apply deltas at barriers — per-worker control
    #: and construction cost drops to O(N/K)).
    control_plane: str = "replicated"
    #: simulation WAL (repro.sim.wal): checkpoint the run's window stream
    #: to this path ...
    wal: Optional[str] = None
    #: ... and/or resume (verified prefix replay) from this log.  Both are
    #: log plumbing, not physics — they never change the event stream and
    #: are excluded from the WAL's own config fingerprint.
    resume: Optional[str] = None
    #: seeded fault-injection schedule (repro.sim.faults.FaultPlan spec,
    #: e.g. "seed=7,crash@2") for the tcp executor's self-healing fleet.
    #: Like the tcp placement fields this is execution shape, not physics
    #: — the schedule draws from its own splitmix64 stream, recovery
    #: replays the WAL prefix, and golden digests cannot move — so it is
    #: excluded from the WAL config fingerprint.
    faults: Optional[str] = None
    seed: int = 0

    def validate(self) -> None:
        if self.num_peers <= 0:
            raise ConfigurationError("num_peers must be positive")
        if self.overlay not in overlay_names():
            raise ConfigurationError(f"unknown overlay {self.overlay!r}")
        if self.churn not in ("none", "exponential", "weibull", "pareto"):
            raise ConfigurationError(f"unknown churn model {self.churn!r}")
        if self.codec not in codec_names():
            raise ConfigurationError(f"unknown codec {self.codec!r}")
        if self.rng_mode not in ("stream", "perpeer"):
            raise ConfigurationError(f"unknown rng_mode {self.rng_mode!r}")
        if self.executor not in ("serial", "mp", "tcp"):
            raise ConfigurationError(f"unknown executor {self.executor!r}")
        if not 0 <= self.tcp_port <= 65535:
            raise ConfigurationError(
                f"tcp_port must be in [0, 65535], got {self.tcp_port}"
            )
        if self.control_plane not in ("replicated", "directory"):
            raise ConfigurationError(
                f"unknown control plane {self.control_plane!r}"
            )
        if self.control_plane == "directory" and self.shards < 1:
            raise ConfigurationError(
                "the directory control plane only applies to sharded "
                "execution (set shards >= 1)"
            )
        if self.shards < 0:
            raise ConfigurationError("shards must be >= 0")
        if self.tcp_hosts is not None:
            from repro.sim.tcpexec import parse_hosts

            parse_hosts(self.tcp_hosts, self.shards)  # grammar errors
        if not 0.0 <= self.jitter_floor <= 1.0:
            raise ConfigurationError("jitter_floor must be in [0, 1]")
        if self.shards >= 1:
            if self.rng_mode != "perpeer":
                raise ConfigurationError(
                    "sharded execution requires rng_mode='perpeer' (a single "
                    "RNG stream cannot be split across shard heaps)"
                )
            if self.jitter_floor <= 0.0:
                raise ConfigurationError(
                    "sharded execution requires jitter_floor > 0 (it bounds "
                    "the cross-shard lookahead window)"
                )
        if (self.wal or self.resume) and self.shards < 1:
            raise ConfigurationError(
                "the simulation WAL hooks the sharded kernel's window "
                "barriers (set shards >= 1 to use wal/resume)"
            )
        if self.faults:
            if self.shards < 1:
                raise ConfigurationError(
                    "fault injection targets the sharded tcp fleet "
                    "(set shards >= 1 to use faults)"
                )
            from repro.sim.faults import FaultPlan

            FaultPlan.parse(self.faults)  # grammar errors surface here
        if self.shard.num_peers != self.num_peers:
            raise ConfigurationError(
                "shard.num_peers must equal num_peers "
                f"({self.shard.num_peers} != {self.num_peers})"
            )

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


class Scenario:
    """An assembled simulation environment.

    Peers get physical addresses 0..num_peers-1, join the overlay, and are
    registered on the physical network.  Churn (if any) keeps overlay
    membership in sync and schedules periodic stabilization.
    """

    #: True on shard-worker subclasses (repro.sim.shard): a plain Scenario
    #: refuses configs demanding sharded execution.
    sharded = False

    #: True on directory-mode shard workers: overlay state is served by the
    #: directory control plane (snapshot + per-window deltas) and per-peer
    #: state materializes only for owned peers.
    directory_mode = False

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        if config.shards >= 1 and not self.sharded:
            raise ConfigurationError(
                "config requests sharded execution (shards="
                f"{config.shards}); build it through "
                "repro.sim.shard.ShardedScenario"
            )
        self.config = config
        self.streams: Optional[PeerStreams] = (
            PeerStreams(config.seed) if config.rng_mode == "perpeer" else None
        )
        self.simulator = self._make_simulator()
        self.stats = StatsCollector()
        self.network = self._make_network()
        self.peer_addresses: List[int] = list(range(config.num_peers))
        #: per-peer states (SimNodes / handler registrations) built by THIS
        #: kernel — ≈ N/K on a directory-mode shard worker, N otherwise
        #: (see construction_cost)
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

        Directory-mode shard workers override this: they restore the
        directory's startup snapshot instead of recomputing N joins worth
        of routing state.
        """
        overlay = self.config.build_overlay()
        for address in self.peer_addresses:
            overlay.join(address)
        overlay.stabilize()
        return overlay

    def _make_churn_driver(self):
        """The churn process driver (directory workers use a served client)."""
        return ChurnDriver(
            self.simulator,
            self.network,
            self.churn_model,
            on_leave=self._on_peer_leave,
            on_join=self._on_peer_join,
            rng_for=self.streams.churn_rng if self.streams else None,
        )

    def _make_network(self) -> PhysicalNetwork:
        return PhysicalNetwork(
            self.simulator,
            latency=self.config.build_latency(),
            stats=self.stats,
            rng_for_src=self.streams.net_rng if self.streams else None,
            loss_rng_for_src=self.streams.loss_rng if self.streams else None,
        )

    # -- ownership hooks -------------------------------------------------
    #
    # In a sharded run every shard worker replicates the *global* control
    # processes (churn timelines, overlay maintenance) to keep its replicas
    # in sync, but each observable must be accounted exactly once across
    # the fleet.  These hooks gate per-peer accounting to the peer's owning
    # shard and run-global accounting to shard 0; on the single-heap
    # kernel they are constant True, and the gated code paths are
    # byte-identical to the ungated originals.

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

    def materializes(self, address: int) -> bool:
        """True when this kernel must build per-peer state for ``address``.

        Constant True except on directory-mode shard workers, where only
        owned peers materialize (remote peers are directory-served: their
        liveness is synced by delta records, their handlers live on the
        owning shard).
        """
        return True

    def materialize_peer(self, address: int) -> Optional[SimNode]:
        """Ownership-gated :class:`SimNode` construction.

        Returns the node when this kernel materializes ``address``; remote
        peers are registered as directory-served endpoints and ``None`` is
        returned.  The one sanctioned way for protocols to build their peer
        fleets — it feeds the ``peers_materialized`` construction counter.
        """
        if self.materializes(address):
            self.peers_materialized += 1
            return SimNode(address, self.network)
        self.network.register_remote(address)
        return None

    def register_peer(self, address: int, handler) -> bool:
        """Ownership-gated raw handler registration (workloads that do not
        need typed :class:`SimNode` dispatch).  Returns True when the peer
        materialized locally."""
        if self.materializes(address):
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
            self.config.stabilize_interval, self._periodic_stabilize, "stabilize"
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
        """Begin churn cycles and periodic overlay maintenance."""
        self.churn_driver.start(self.peer_addresses)
        if self.directory_mode:
            # Maintenance is directory-scheduled: the control plane emits
            # per-window delta records for stabilize rounds too.
            return
        if self.churn_model.churns and not self._stabilize_scheduled:
            self._stabilize_scheduled = True
            self.simulator.schedule(
                self.config.stabilize_interval, self._periodic_stabilize, "stabilize"
            )

    # -- directory control-plane application (shard workers) -------------
    #
    # Under control_plane="directory" the worker's churn/maintenance state
    # is *served*: the directory publishes (time, kind, payload) records one
    # window ahead, the shard kernel schedules them at their exact virtual
    # times, and this method applies them — mirroring, observable for
    # observable, what ChurnDriver._leave/_rejoin and _periodic_stabilize
    # do on the replicated path above.

    def _apply_control_record(self, record) -> None:
        time, kind, payload = record
        if kind == "leave":
            if self.churn_driver.suppresses(time):
                return
            self.network.set_down(payload, True)
            self.churn_driver.leave_count += 1
            self._on_peer_leave(payload)
        elif kind == "join":
            if self.churn_driver.suppresses(time):
                return
            self.network.set_down(payload, False)
            self.churn_driver.join_count += 1
            self._on_peer_join(payload)
        elif kind == "maintenance":
            self.overlay.apply_state_edits(payload)
            if self.owns_control():
                self.stats.increment("stabilize_rounds")
            self._charge_maintenance()
        else:  # pragma: no cover - wire-format drift guard
            raise ConfigurationError(f"unknown control record kind {kind!r}")

    def live_peers(self) -> List[int]:
        """Peers currently in the overlay (i.e. not churned out)."""
        overlay = self.overlay
        return [a for a in self.peer_addresses if a in overlay]

    def run(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        self.simulator.run(until=self.simulator.now + duration)


register_traffic_class(Scenario.MAINTENANCE_MSG_TYPE, "control")
