"""CEMPaR: communication-efficient P2P classification via cascade SVM + DHT.

Training protocol (paper §2, "P2P classification"):

1. every peer trains a non-linear SVM per tag on its local tagged documents;
2. each peer's support vectors are propagated **once** to the super-peer for
   (tag, its region) — located deterministically through the DHT;
3. super-peers cascade the collected local models into regional models;
4. untagged document vectors are sent to the regional super-peers, whose
   predictions are combined by weighted majority voting.

Communication accounting: every upload and query travels the DHT route, so
its bytes are charged once per hop; lookups that fail under churn lose the
contribution — exactly the degradation experiment E4 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.kernel_svm import KernelSVM, KernelSVMModel, PackedSupport
from repro.ml.sparse import SparseVector
from repro.overlay.superpeer import SuperPeerDirectory
from repro.p2pclass.base import P2PTagClassifier, PeerData, binary_problems
from repro.p2pclass.cascade import CascadeModel, cascade_merge
from repro.p2pclass.voting import weighted_score
from repro.sim.codec import register_traffic_class
from repro.sim.scenario import Scenario

MSG_MODEL_UPLOAD = "cempar.model_upload"
MSG_QUERY = "cempar.query"
MSG_PREDICTION = "cempar.prediction"

# Wire-format hints: uploads carry model bundles, queries carry sparse
# document vectors, predictions are small score maps (control traffic).
register_traffic_class(MSG_MODEL_UPLOAD, "model")
register_traffic_class(MSG_QUERY, "vector")
register_traffic_class(MSG_PREDICTION, "control")


@dataclass
class CemparConfig:
    """CEMPaR hyperparameters."""

    num_regions: int = 2
    C: float = 1.0
    gamma: float = 0.5
    kernel_name: str = "rbf"
    max_negative_ratio: float = 3.0
    max_cascade_training_size: int = 400
    upload_window: float = 60.0  # peers upload at staggered virtual times
    seed: int = 0

    def validate(self) -> None:
        if self.num_regions < 1:
            raise ConfigurationError("num_regions must be >= 1")
        if self.C <= 0 or self.gamma <= 0:
            raise ConfigurationError("C and gamma must be positive")


class _PredictionBlock:
    """Every regional model's support vectors in one
    :class:`~repro.ml.kernel_svm.PackedSupport`, so a query is scored once
    for all (tag, region) pairs — bit-identical to one
    ``CascadeModel.probability`` per model."""

    def __init__(self, regional_models: Dict[Tuple[str, int], CascadeModel]) -> None:
        self.keys = sorted(regional_models)
        self.models = [regional_models[key] for key in self.keys]
        self.support = (
            PackedSupport([model.svm for model in self.models]) if self.models else None
        )

    def probabilities(self, vector: SparseVector) -> Dict[Tuple[str, int], float]:
        """(tag, region) -> calibrated P(tag | vector) of that region's model."""
        if self.support is None:
            return {}
        return {
            key: model.calibrator.probability(decision)
            for key, model, decision in zip(
                self.keys, self.models, self.support.decisions(vector)
            )
        }


class CemparClassifier(P2PTagClassifier):
    """CEMPaR over the scenario's DHT overlay."""

    traffic_prefix = "cempar"

    def __init__(
        self,
        scenario: Scenario,
        peer_data: PeerData,
        tags=None,
        config: Optional[CemparConfig] = None,
    ) -> None:
        super().__init__(scenario, peer_data, tags)
        self.config = config or CemparConfig()
        self.config.validate()
        self.directory = SuperPeerDirectory(
            scenario.overlay, num_regions=self.config.num_regions
        )
        # (tag, region) -> accumulated child models at the super-peer.
        self._inbox: Dict[Tuple[str, int], List[KernelSVMModel]] = {}
        # (tag, region) -> cascaded regional model, held by its super-peer.
        self.regional_models: Dict[Tuple[str, int], CascadeModel] = {}
        # (tag, region) -> super-peer address that built the model.
        self._model_holder: Dict[Tuple[str, int], int] = {}
        # Every regional model's support vectors, packed for prediction on
        # the first query after train().
        self._block: Optional[_PredictionBlock] = None
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self) -> None:
        # Retraining (e.g. after refinements) rebuilds the cascades from a
        # fresh upload round rather than stacking onto stale inboxes.
        self._inbox.clear()
        self.regional_models.clear()
        self._model_holder.clear()
        self._block = None
        self._upload_local_models()
        self._flush_network()
        self._cascade_regions()
        self._trained = True

    def _upload_local_models(self) -> None:
        """One scheduled round: every peer's upload slot is pre-computed and
        bulk-scheduled, so uploads from different peers interleave with
        churn (a peer churned out at its slot misses the cascade round).
        Local SVM training happens at the activation instant — the stagger
        gaps are drawn as one block *before* any training draws, so the
        protocol RNG stream no longer depends on per-peer training order.
        """
        self._run_staggered_round(
            [address for address, items in sorted(self.peer_data.items()) if items],
            self.config.upload_window / max(1, len(self.peer_data)),
            self._rng,
            self._upload_one,
        )

    def _upload_one(self, address: int) -> None:
        cfg = self.config
        if address not in self.scenario.overlay:
            # Churned out at its upload slot: this contribution misses
            # the initial cascade round.
            self.scenario.stats.increment("cempar_upload_skipped")
            return
        region = self.directory.region_of(address)
        # Negative subsampling happens at the activation instant; under
        # per-peer randomness it draws from the peer's own stream so the
        # draw is identical no matter which shard executes the activation.
        rng = self._activation_rng(cfg.seed, address) or self._rng
        problems = binary_problems(
            self.peer_data[address], self.tags, cfg.max_negative_ratio, rng
        )
        for tag, (vectors, labels) in sorted(problems.items()):
            svm = KernelSVM(
                C=cfg.C,
                gamma=cfg.gamma,
                kernel_name=cfg.kernel_name,
                seed=cfg.seed,
            )
            svm.fit(vectors, labels)
            self._send_model(address, tag, region, svm.model)

    def _send_model(
        self, address: int, tag: str, region: int, model: KernelSVMModel
    ) -> None:
        outcome = self.transport.route_and_send(
            address,
            self.directory.key_for(tag, region),
            MSG_MODEL_UPLOAD,
            model,
        )
        if outcome.lookup_failed:
            self.scenario.stats.increment("cempar_upload_lookup_failed")
            return
        if outcome.delivered:
            # Loopback when the peer *is* the super-peer: direct handoff.
            self._inbox.setdefault((tag, region), []).append(model)
        else:
            self.scenario.stats.increment("cempar_upload_lost")

    def _cascade_regions(self) -> None:
        cfg = self.config
        for (tag, region), children in sorted(self._inbox.items()):
            cascaded = cascade_merge(
                children,
                C=cfg.C,
                gamma=cfg.gamma,
                kernel_name=cfg.kernel_name,
                max_training_size=cfg.max_cascade_training_size,
                seed=cfg.seed,
            )
            if cascaded is None:
                continue
            self.regional_models[(tag, region)] = cascaded
            owner = self.directory.owners(
                self._any_live_peer(), tag
            ).get(region)
            if owner is not None:
                self._model_holder[(tag, region)] = owner

    def _any_live_peer(self) -> int:
        members = self.scenario.overlay.members()
        if not members:
            raise ConfigurationError("no live peers remain in the overlay")
        return min(members)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict_scores(self, origin: int, vector: SparseVector) -> Dict[str, float]:
        """Query all regional super-peers and combine by weighted voting.

        One query message per distinct super-peer address (the document
        vector), one response per contacted super-peer (per-tag scores).
        """
        self._require_trained()
        if origin not in self.scenario.overlay:
            # The peer is churned out right now; the query happens when it is
            # next online (deferred), routed from its rejoined position.
            self.scenario.stats.increment("cempar_query_deferred")
            origin = self._any_live_peer()
        by_owner = self._group_roles_by_owner(origin)
        block = self._block
        if block is None:
            block = self._block = _PredictionBlock(self.regional_models)
        probabilities = block.probabilities(vector)
        votes: Dict[str, List[Tuple[float, float]]] = {t: [] for t in self.tags}
        for owner, roles in sorted(by_owner.items()):
            regional_scores = self._scores_held_by(owner, roles, probabilities)
            if not regional_scores:
                continue
            if owner != origin:
                query = self.transport.send(
                    origin,
                    owner,
                    MSG_QUERY,
                    vector,
                    hops=max(1, roles[0][2]),
                )
                if not query.delivered:
                    self.scenario.stats.increment("cempar_query_lost")
                    continue
                self.transport.send(
                    owner,
                    origin,
                    MSG_PREDICTION,
                    {t: 0.0 for t in regional_scores},
                    hops=1,
                )
            for tag, (probability, weight) in regional_scores.items():
                votes[tag].append((probability, weight))
        self._flush_network()
        return {tag: weighted_score(votes[tag]) for tag in self.tags}

    def _group_roles_by_owner(
        self, origin: int
    ) -> Dict[int, List[Tuple[str, int, int]]]:
        """owner address -> [(tag, region, route hops)] for live lookups."""
        by_owner: Dict[int, List[Tuple[str, int, int]]] = {}
        for tag in self.tags:
            for region, route in self.directory.locate_all(origin, tag):
                if not route.success or route.owner is None:
                    self.scenario.stats.increment("cempar_query_lookup_failed")
                    continue
                by_owner.setdefault(route.owner, []).append(
                    (tag, region, max(1, route.hops))
                )
        return by_owner

    def _scores_held_by(
        self,
        owner: int,
        roles: List[Tuple[str, int, int]],
        probabilities: Dict[Tuple[str, int], float],
    ) -> Dict[str, Tuple[float, float]]:
        """The answers of the regional models the contacted super-peer
        holds, read from the block's ``probabilities`` for the query.

        Returns tag -> (calibrated probability, vote weight).  Under churn
        the DHT may resolve to a peer that never received the cascaded model
        (responsibility migrated after training); such owners answer nothing,
        which the vote combiner treats as abstention.
        """
        scores: Dict[str, Tuple[float, float]] = {}
        for tag, region, _ in roles:
            model = self.regional_models.get((tag, region))
            holder = self._model_holder.get((tag, region))
            if model is None or holder != owner:
                continue
            weight = model.training_accuracy * model.training_size
            scores[tag] = (probabilities[tag, region], weight)
        return scores
