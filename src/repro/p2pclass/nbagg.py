"""NB-Agg: exact P2P Naive Bayes via sufficient-statistic aggregation.

A third pluggable P2P classification approach (the paper stresses the
classifier is "a pluggable component").  Each peer computes per-tag NB
sufficient statistics over its local documents and uploads them **once** to
a DHT-located aggregator peer per tag (the same deterministic super-peer
mechanism CEMPaR uses, with one region).  Because NB statistics are
additive, the aggregated model is *bit-identical to centralized training* —
collaboration without approximation — while shipping only word-id count
sums, never documents.

Queries route the document vector to each tag's aggregator, like CEMPaR.
This gives the experiments a third point on the accuracy/communication
plane: exact global model, cheap statistics upload, per-query routing cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.naive_bayes import MultinomialNB, NBSufficientStats
from repro.ml.sparse import SparseVector
from repro.overlay.superpeer import SuperPeerDirectory
from repro.p2pclass.base import P2PTagClassifier, PeerData
from repro.sim.codec import register_traffic_class
from repro.sim.scenario import Scenario

MSG_STATS_UPLOAD = "nbagg.stats_upload"
MSG_QUERY = "nbagg.query"
MSG_PREDICTION = "nbagg.prediction"

# Wire-format hints: sufficient-statistics uploads compress like model
# bundles; queries carry sparse vectors; predictions are control frames.
register_traffic_class(MSG_STATS_UPLOAD, "model")
register_traffic_class(MSG_QUERY, "vector")
register_traffic_class(MSG_PREDICTION, "control")


@dataclass
class NBAggConfig:
    """NB-Agg hyperparameters."""

    alpha: float = 0.2
    vocabulary_size: int = 2 ** 18
    upload_window: float = 60.0
    seed: int = 0

    def validate(self) -> None:
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.vocabulary_size <= 0:
            raise ConfigurationError("vocabulary_size must be positive")


class NBAggClassifier(P2PTagClassifier):
    """Exact distributed Naive Bayes over the scenario's DHT."""

    traffic_prefix = "nbagg"
    supports_incremental = True

    def __init__(
        self,
        scenario: Scenario,
        peer_data: PeerData,
        tags=None,
        config: Optional[NBAggConfig] = None,
    ) -> None:
        super().__init__(scenario, peer_data, tags)
        self.config = config or NBAggConfig()
        self.config.validate()
        self.directory = SuperPeerDirectory(scenario.overlay, num_regions=1)
        self._aggregated: Dict[str, NBSufficientStats] = {}
        self._models: Dict[str, MultinomialNB] = {}
        self._holder: Dict[str, int] = {}
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self) -> None:
        self._aggregated.clear()
        self._models.clear()
        self._holder.clear()
        self._upload_statistics()
        self._flush_network()
        self._build_models()
        self._trained = True

    def _local_statistics(self, items) -> Dict[str, NBSufficientStats]:
        """Per-tag sufficient statistics over one peer's documents.

        Every local document contributes to every tag's binary problem
        (positive if tagged, negative otherwise) — NB has no class-balance
        pathology that would require negative subsampling.
        """
        per_tag: Dict[str, NBSufficientStats] = {}
        for tag in self.tags:
            stats = NBSufficientStats()
            saw_positive = False
            for item in items:
                label = 1 if tag in item.tags else -1
                saw_positive |= label == 1
                stats.add_document(item.vector, label)
            if saw_positive:
                per_tag[tag] = stats
        return per_tag

    def _upload_statistics(self) -> None:
        """One scheduled round: upload slots are pre-computed and
        bulk-scheduled so peers' uploads interleave with churn."""
        self._run_staggered_round(
            [address for address, items in sorted(self.peer_data.items()) if items],
            self.config.upload_window / max(1, len(self.peer_data)),
            self._rng,
            self._upload_one,
        )

    def _upload_one(self, address: int) -> None:
        if address not in self.scenario.overlay:
            self.scenario.stats.increment("nbagg_upload_skipped")
            return
        statistics = self._local_statistics(self.peer_data[address])
        for tag, stats in sorted(statistics.items()):
            self._send_stats(address, tag, stats)

    def _send_stats(self, address: int, tag: str, stats: NBSufficientStats) -> None:
        outcome = self.transport.route_and_send(
            address, self.directory.key_for(tag, 0), MSG_STATS_UPLOAD, stats
        )
        if outcome.lookup_failed:
            self.scenario.stats.increment("nbagg_upload_lookup_failed")
            return
        if not outcome.delivered:
            self.scenario.stats.increment("nbagg_upload_lost")
            return
        aggregate = self._aggregated.get(tag)
        if aggregate is None:
            self._aggregated[tag] = stats
        else:
            aggregate.merge(stats)
        self._holder[tag] = outcome.route.owner

    def _build_models(self) -> None:
        for tag, stats in sorted(self._aggregated.items()):
            if stats.num_documents == 0:
                continue
            self._models[tag] = MultinomialNB.from_stats(
                stats,
                alpha=self.config.alpha,
                vocabulary_size=self.config.vocabulary_size,
            )

    # ------------------------------------------------------------------
    # Incremental updates (refinement path)
    # ------------------------------------------------------------------

    def incremental_update(self, owner: int, items) -> None:
        """Fold new labeled examples in by uploading *delta* statistics.

        Because NB statistics are additive, merging a delta is exactly
        equivalent to retraining on the enlarged corpus — at the cost of one
        small upload per touched tag instead of a full training round.  This
        is how tag refinements reach the global model cheaply.

        Boundary case: if a delta contains a peer's *first* positive for a
        tag, a full retrain would also contribute the peer's older documents
        as negatives for that tag; the delta path adds only the new items.
        The approximation vanishes at the next full training round.
        """
        self._require_trained()
        if not items:
            return
        if owner not in self.scenario.overlay:
            self.scenario.stats.increment("nbagg_update_deferred")
            return
        for tag, stats in sorted(self._local_statistics(items).items()):
            self._send_stats(owner, tag, stats)
        self._flush_network()
        self._build_models()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict_scores(self, origin: int, vector: SparseVector) -> Dict[str, float]:
        self._require_trained()
        if origin not in self.scenario.overlay:
            self.scenario.stats.increment("nbagg_query_deferred")
            members = self.scenario.overlay.members()
            if not members:
                return {tag: 0.0 for tag in self.tags}
            origin = min(members)
        scores: Dict[str, float] = {}
        contacted: Dict[int, bool] = {}
        for tag in self.tags:
            model = self._models.get(tag)
            if model is None:
                scores[tag] = 0.0
                continue
            route = self.directory.locate(origin, tag, 0)
            holder = self._holder.get(tag)
            if not route.success or route.owner != holder:
                self.scenario.stats.increment("nbagg_query_lookup_failed")
                scores[tag] = 0.0
                continue
            owner = route.owner
            if owner != origin and owner not in contacted:
                query = self.transport.send(
                    origin, owner, MSG_QUERY, vector, hops=max(1, route.hops)
                )
                contacted[owner] = query.delivered
                if query.delivered:
                    self.transport.send(
                        owner, origin, MSG_PREDICTION, {tag: 0.0}
                    )
            if owner != origin and not contacted.get(owner, False):
                self.scenario.stats.increment("nbagg_query_lost")
                scores[tag] = 0.0
                continue
            scores[tag] = model.probability(vector)
        self._flush_network()
        return scores
