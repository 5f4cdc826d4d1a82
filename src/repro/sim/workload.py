"""Query workload generation (P2PDMT "frequency and timings of evaluations").

The demo configures "testing data, frequency and timings of evaluations";
this module generates realistic *tagging request* workloads: each peer
issues AutoTag/Suggest queries as a Poisson process, optionally with diurnal
modulation, producing a deterministic time-ordered request schedule that
experiments can replay against a trained classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QueryEvent:
    """One scheduled tagging request."""

    time: float
    peer: int
    doc_index: int  # index into the peer's (or global) untagged pool


@dataclass
class WorkloadConfig:
    """Parameters of the request process."""

    peers: Sequence[int]
    rate_per_peer: float = 0.05  # requests / second / peer
    duration: float = 600.0
    diurnal: bool = False  # sinusoidal day/night modulation
    diurnal_period: float = 86_400.0
    seed: int = 0

    def validate(self) -> None:
        if not self.peers:
            raise ConfigurationError("workload needs at least one peer")
        if self.rate_per_peer <= 0:
            raise ConfigurationError("rate_per_peer must be positive")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.diurnal_period <= 0:
            raise ConfigurationError("diurnal_period must be positive")


class QueryWorkload:
    """Generates a deterministic, time-ordered request schedule."""

    def __init__(self, config: WorkloadConfig) -> None:
        config.validate()
        self.config = config

    def _intensity(self, time: float) -> float:
        """Instantaneous rate multiplier in (0, 1]."""
        if not self.config.diurnal:
            return 1.0
        phase = 2.0 * math.pi * time / self.config.diurnal_period
        return 0.55 + 0.45 * math.sin(phase)  # never fully silent

    def generate(self) -> List[QueryEvent]:
        """All events over ``duration``, sorted by time.

        Uses thinning for the diurnal case so the schedule stays an exact
        (inhomogeneous) Poisson process.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        events: List[QueryEvent] = []
        doc_counters = {peer: 0 for peer in cfg.peers}
        for peer in cfg.peers:
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / cfg.rate_per_peer))
                if t >= cfg.duration:
                    break
                if cfg.diurnal and rng.random() > self._intensity(t):
                    continue  # thinned out
                events.append(
                    QueryEvent(time=t, peer=peer, doc_index=doc_counters[peer])
                )
                doc_counters[peer] += 1
        events.sort(key=lambda e: (e.time, e.peer))
        return events

    def replay(
        self,
        events: Sequence[QueryEvent],
        handler: Callable[[QueryEvent], None],
        simulator=None,
    ) -> int:
        """Run ``handler`` for each event (via the simulator clock if given).

        Returns the number of events replayed.
        """
        if simulator is None:
            for event in events:
                handler(event)
            return len(events)
        for event in events:
            simulator.schedule_at(
                max(simulator.now, event.time), handler, args=(event,)
            )
        simulator.run()
        return len(events)

    def expected_total(self) -> float:
        """Mean number of events the process produces."""
        base = len(self.config.peers) * self.config.rate_per_peer
        if not self.config.diurnal:
            return base * self.config.duration
        # Average intensity of 0.55 + 0.45 sin over whole periods ~ 0.55.
        return base * self.config.duration * 0.55
