"""Churn models: peer session and downtime processes.

P2PDMT "Simulate node failures / churn model(s)".  A churn model draws
session (online) and inter-session (offline) durations; the
:class:`ChurnDriver` turns those draws into scheduled leave/join events
against a :class:`~repro.sim.network.PhysicalNetwork`.

The distributions follow the P2P measurement literature: exponential is the
classic analytical choice, Weibull (shape < 1) matches observed heavy-tailed
session lengths, and Pareto models extremely skewed lifetimes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Set

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.network import PhysicalNetwork


class ChurnModel(ABC):
    """Draws session (online) and downtime (offline) durations."""

    @abstractmethod
    def session_time(self, rng: np.random.Generator) -> float:
        """How long a peer stays online."""

    @abstractmethod
    def downtime(self, rng: np.random.Generator) -> float:
        """How long a peer stays offline before rejoining."""

    @property
    def churns(self) -> bool:
        """Whether this model ever takes peers down."""
        return True


class NoChurn(ChurnModel):
    """Peers never leave — the static-network control condition."""

    def session_time(self, rng: np.random.Generator) -> float:
        return float("inf")

    def downtime(self, rng: np.random.Generator) -> float:
        return 0.0

    @property
    def churns(self) -> bool:
        return False


class ExponentialChurn(ChurnModel):
    """Memoryless sessions/downtimes with given means (seconds)."""

    def __init__(self, mean_session: float, mean_downtime: float) -> None:
        if mean_session <= 0 or mean_downtime < 0:
            raise ConfigurationError("churn means must be positive")
        self.mean_session = mean_session
        self.mean_downtime = mean_downtime

    def session_time(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_session))

    def downtime(self, rng: np.random.Generator) -> float:
        if self.mean_downtime == 0:
            return 0.0
        return float(rng.exponential(self.mean_downtime))


class WeibullChurn(ChurnModel):
    """Heavy-tailed sessions (shape < 1 reproduces measured P2P traces)."""

    def __init__(
        self, scale_session: float, shape: float = 0.6, mean_downtime: float = 60.0
    ) -> None:
        if scale_session <= 0 or shape <= 0 or mean_downtime < 0:
            raise ConfigurationError("Weibull parameters must be positive")
        self.scale_session = scale_session
        self.shape = shape
        self.mean_downtime = mean_downtime

    def session_time(self, rng: np.random.Generator) -> float:
        return float(self.scale_session * rng.weibull(self.shape))

    def downtime(self, rng: np.random.Generator) -> float:
        if self.mean_downtime == 0:
            return 0.0
        return float(rng.exponential(self.mean_downtime))


class ParetoChurn(ChurnModel):
    """Pareto session lengths: a few peers are nearly always on."""

    def __init__(
        self,
        minimum_session: float = 30.0,
        alpha: float = 1.5,
        mean_downtime: float = 60.0,
    ) -> None:
        if minimum_session <= 0 or alpha <= 0 or mean_downtime < 0:
            raise ConfigurationError("Pareto parameters must be positive")
        self.minimum_session = minimum_session
        self.alpha = alpha
        self.mean_downtime = mean_downtime

    def session_time(self, rng: np.random.Generator) -> float:
        return float(self.minimum_session * (1.0 + rng.pareto(self.alpha)))

    def downtime(self, rng: np.random.Generator) -> float:
        if self.mean_downtime == 0:
            return 0.0
        return float(rng.exponential(self.mean_downtime))


class DirectoryChurnClient:
    """Worker-side stand-in for :class:`ChurnDriver` under the directory
    control plane (:mod:`repro.sim.shard`).

    Directory-mode shard workers do not replay churn timelines: the
    directory generates every leave/rejoin once and serves them as
    per-window delta records, which the worker applies at their exact
    virtual times.  This client keeps the driver's *interface* alive for
    SPMD workload code — ``start`` forwards a control request through the
    next window barrier, and the leave/join counters advance as served
    records are applied.
    """

    def __init__(
        self,
        simulator: Simulator,
        model: ChurnModel,
        request: Callable[[str, float], None],
    ) -> None:
        self.simulator = simulator
        self.model = model
        self._request = request
        self.leave_count = 0
        self.join_count = 0

    def start(self, node_ids: List[int]) -> None:
        """Ask the directory to begin churn cycles (no-op without churn)."""
        if not self.model.churns:
            return
        self._request("start_churn", self.simulator.now)


class ChurnDriver:
    """Schedules leave/rejoin cycles for a set of peers.

    Once started, a peer cycles for the rest of the run: churn has no off
    switch, as in the paper's session/downtime process.  Callbacks
    (``on_leave`` / ``on_join``) let the overlay repair its routing state;
    the driver itself only toggles liveness on the physical network.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: PhysicalNetwork,
        model: ChurnModel,
        on_leave: Optional[Callable[[int], None]] = None,
        on_join: Optional[Callable[[int], None]] = None,
        rng_for: Optional[Callable[[int], "np.random.Generator"]] = None,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.model = model
        self.on_leave = on_leave
        self.on_join = on_join
        #: per-peer stream provider (decomposed-randomness mode): node ``n``'s
        #: session/downtime draws come from ``rng_for(n)`` instead of the
        #: simulator's single stream.  Makes each peer's churn timeline an
        #: autonomous deterministic process — replicable in every shard of a
        #: sharded run, keeping liveness/overlay replicas in sync without
        #: any cross-shard traffic.
        self.rng_for = rng_for
        self.leave_count = 0
        self.join_count = 0
        #: peers already cycling — a second start must not chain again
        self._active: Set[int] = set()

    def _rng(self, node_id: int) -> "np.random.Generator":
        if self.rng_for is not None:
            return self.rng_for(node_id)
        return self.simulator.rng

    def start(self, node_ids: List[int]) -> None:
        """Begin churn cycles for each node (no-op under :class:`NoChurn`,
        and for a node already cycling: a second start must not schedule a
        second leave/rejoin chain on top of the first)."""
        if not self.model.churns:
            return
        for node_id in node_ids:
            if node_id in self._active:
                continue
            self._active.add(node_id)
            self._schedule_leave(node_id)

    def _schedule_leave(self, node_id: int) -> None:
        session = self.model.session_time(self._rng(node_id))
        if session == float("inf"):
            return
        self.simulator.schedule(session, self._leave, args=(node_id,))

    def _leave(self, node_id: int) -> None:
        if self.network.is_down(node_id):
            return
        self.network.set_down(node_id, True)
        self.leave_count += 1
        if self.on_leave is not None:
            self.on_leave(node_id)
        down = self.model.downtime(self._rng(node_id))
        self.simulator.schedule(down, self._rejoin, args=(node_id,))

    def _rejoin(self, node_id: int) -> None:
        self.network.set_down(node_id, False)
        self.join_count += 1
        if self.on_join is not None:
            self.on_join(node_id)
        self._schedule_leave(node_id)
