"""PACE: adaptive ensemble of linear SVMs over P2P networks.

Protocol (paper §2): each peer trains a **linear** SVM per tag and clusters
its training data; models + cluster centroids are propagated to all other
peers ("since no document vectors are propagated ... the system preserves
some level of privacy"); receivers index the models by centroid with LSH.
To tag a document, a peer retrieves the top-k models nearest to the test
vector and combines their predictions "weighted according to their accuracy
and distance from the test data".

Communication trade-off vs CEMPaR: PACE pays an up-front broadcast of
compact linear models, after which every prediction is **local** (zero query
traffic).  The broadcast uses the overlay's flood primitive when available
(unstructured overlays) and per-member unicast otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.calibration import PlattCalibrator
from repro.ml.kmeans import KMeans
from repro.ml.linear_svm import LinearSVM, LinearSVMModel
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import P2PTagClassifier, PeerData, binary_problems
from repro.p2pclass.voting import weighted_score
from repro.sim.codec import register_traffic_class
from repro.sim.scenario import Scenario

MSG_MODEL_BROADCAST = "pace.model_broadcast"

# Wire-format hint: PACE propagates serialized model bundles, the traffic
# that general-purpose compression helps most (shared by private-pace).
register_traffic_class(MSG_MODEL_BROADCAST, "model")


@dataclass
class PaceModelBundle:
    """What one peer propagates: per-tag linear models (with Platt
    calibration parameters), centroids, and validation accuracies.

    Privacy note (tested): the bundle contains weight vectors, two sigmoid
    parameters per tag, and centroids only — no document vectors, no text.
    """

    origin: int
    models: Dict[str, LinearSVMModel]
    accuracies: Dict[str, float]
    calibration: Dict[str, Tuple[float, float]]  # tag -> Platt (A, B)
    centroids: List[SparseVector]

    def wire_size(self) -> int:
        model_bytes = sum(m.wire_size() for m in self.models.values())
        tag_bytes = sum(len(t) + 8 for t in self.accuracies)
        platt_bytes = 16 * len(self.calibration)
        centroid_bytes = sum(c.wire_size() for c in self.centroids)
        return model_bytes + tag_bytes + platt_bytes + centroid_bytes + 8

    def probability(self, tag: str, decision: float) -> float:
        """Calibrated P(tag | decision) using the shipped Platt parameters."""
        a, b = self.calibration.get(tag, (-2.0, 0.0))
        z = a * decision + b
        if z >= 0:
            ez = np.exp(-min(z, 500.0))
            return float(ez / (1.0 + ez))
        return float(1.0 / (1.0 + np.exp(max(z, -500.0))))


@dataclass
class PaceConfig:
    """PACE hyperparameters."""

    top_k: int = 6
    num_clusters: int = 2
    lsh_bits: int = 8
    lsh_seed: int = 17  # shared by all peers, like the hashed feature space
    max_model_features: int = 400
    lambda_reg: float = 1e-4
    epochs: int = 12
    max_negative_ratio: float = 3.0
    distance_smoothing: float = 1.0
    propagation_window: float = 60.0  # peers broadcast at staggered times
    seed: int = 0

    def validate(self) -> None:
        if self.top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        if self.num_clusters < 1:
            raise ConfigurationError("num_clusters must be >= 1")
        if self.max_model_features < 1:
            raise ConfigurationError("max_model_features must be >= 1")
        if self.distance_smoothing <= 0:
            raise ConfigurationError("distance_smoothing must be positive")


class PaceClassifier(P2PTagClassifier):
    """PACE over the scenario's overlay."""

    traffic_prefix = "pace"

    def __init__(
        self,
        scenario: Scenario,
        peer_data: PeerData,
        tags=None,
        config: Optional[PaceConfig] = None,
    ) -> None:
        super().__init__(scenario, peer_data, tags)
        self.config = config or PaceConfig()
        self.config.validate()
        self._rng = np.random.default_rng(self.config.seed)
        # Per-receiving-peer state: LSH index over centroids + bundle store.
        self._indexes: Dict[int, RandomHyperplaneLSH] = {}
        self._received: Dict[int, Dict[int, PaceModelBundle]] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self) -> None:
        # Retraining (e.g. after refinements) re-propagates fresh bundles,
        # which replace each origin's previous models in every index.
        self._indexes.clear()
        self._received.clear()
        bundles = self._train_local_bundles()
        self._propagate(bundles)
        self._flush_network()
        self._trained = True

    def _train_local_bundles(self) -> Dict[int, PaceModelBundle]:
        cfg = self.config
        bundles: Dict[int, PaceModelBundle] = {}
        for address, items in sorted(self.peer_data.items()):
            if not items:
                continue
            problems = binary_problems(
                items, self.tags, cfg.max_negative_ratio, self._rng
            )
            if not problems:
                continue
            models: Dict[str, LinearSVMModel] = {}
            accuracies: Dict[str, float] = {}
            calibration: Dict[str, Tuple[float, float]] = {}
            for tag, (vectors, labels) in sorted(problems.items()):
                svm = LinearSVM(
                    lambda_reg=cfg.lambda_reg, epochs=cfg.epochs, seed=cfg.seed
                )
                svm.fit(vectors, labels)
                truncated = svm.model.truncated(cfg.max_model_features)
                models[tag] = truncated
                accuracies[tag] = svm.accuracy(vectors, labels)
                decisions = [truncated.decision(v) for v in vectors]
                calibrator = PlattCalibrator().fit(decisions, labels)
                calibration[tag] = calibrator.parameters()
            clusters = KMeans(
                k=cfg.num_clusters, seed=cfg.seed
            ).fit([item.vector for item in items])
            bundles[address] = PaceModelBundle(
                origin=address,
                models=models,
                accuracies=accuracies,
                calibration=calibration,
                centroids=clusters.centroids,
            )
        return bundles

    def _propagate(self, bundles: Dict[int, PaceModelBundle]) -> None:
        """Each bundle travels to every other live peer.

        One scheduled round (:meth:`_run_staggered_round`): every peer's
        broadcast instant is pre-computed and bulk-scheduled, so bundles
        from different peers interleave with churn and with each other in
        one kernel run.  One :meth:`Transport.broadcast` per bundle: the
        flood primitive supplies the recipient set on unstructured overlays
        (its edge crossings exceed the member count — flooding is redundant
        by design, and the excess is charged), unicast to every member
        otherwise.  The whole block is batch-delivered with the bundle
        sized once.
        """
        self._run_staggered_round(
            sorted(bundles),
            self.config.propagation_window / max(1, len(bundles)),
            self._rng,
            lambda address: self._broadcast_bundle(address, bundles[address]),
        )

    def _broadcast_bundle(self, address: int, bundle: PaceModelBundle) -> None:
        """One peer's activation: broadcast its bundle to the live overlay."""
        if address not in self.scenario.overlay:
            self.scenario.stats.increment("pace_broadcast_skipped")
            return
        result = self.transport.broadcast(address, MSG_MODEL_BROADCAST, bundle)
        if result.redundant_messages:
            self.scenario.stats.increment(
                "pace_flood_redundant", result.redundant_messages
            )
        # Hashed once here, not once per receiver: every peer's hyperplanes
        # come from the one shared seed.
        signature = self._index_of(address).signature
        keys = [signature(centroid) for centroid in bundle.centroids]
        for recipient in result.delivered_to():
            self._store_bundle(recipient, bundle, keys)
        # A peer also indexes its own models (no message).
        self._store_bundle(address, bundle, keys)

    def _index_of(self, receiver: int) -> RandomHyperplaneLSH:
        """``receiver``'s LSH index, created with its bundle store on first use."""
        index = self._indexes.get(receiver)
        if index is None:
            index = RandomHyperplaneLSH(
                num_bits=self.config.lsh_bits, seed=self.config.lsh_seed
            )
            self._indexes[receiver] = index
            self._received[receiver] = {}
        return index

    def _store_bundle(
        self, receiver: int, bundle: PaceModelBundle, keys: List[int]
    ) -> None:
        """Index ``bundle`` at ``receiver`` under its centroids' bucket ``keys``."""
        index = self._index_of(receiver)
        store = self._received[receiver]
        if bundle.origin in store:
            return  # duplicate delivery (flood redundancy)
        store[bundle.origin] = bundle
        for centroid, key in zip(bundle.centroids, keys):
            index.insert(centroid, bundle.origin, key)

    # ------------------------------------------------------------------
    # Prediction (fully local — the PACE advantage)
    # ------------------------------------------------------------------

    def predict_scores(self, origin: int, vector: SparseVector) -> Dict[str, float]:
        self._require_trained()
        index = self._indexes.get(origin)
        store = self._received.get(origin, {})
        if index is None or len(index) == 0:
            return {tag: 0.0 for tag in self.tags}
        nearest = index.query(vector, top_k=self.config.top_k)
        votes: Dict[str, List[Tuple[float, float]]] = {t: [] for t in self.tags}
        seen_origins = set()
        for distance, bundle_origin in nearest:
            if bundle_origin in seen_origins:
                continue  # a bundle may match via several centroids
            seen_origins.add(bundle_origin)
            bundle = store.get(bundle_origin)
            if bundle is None:
                continue
            proximity = 1.0 / (self.config.distance_smoothing + distance)
            for tag, model in bundle.models.items():
                probability = bundle.probability(tag, model.decision(vector))
                weight = bundle.accuracies.get(tag, 0.5) * proximity
                votes[tag].append((probability, weight))
        return {tag: weighted_score(votes[tag]) for tag in self.tags}

    # -- diagnostics --------------------------------------------------------

    def models_indexed_at(self, address: int) -> int:
        """How many peers' bundles this peer has indexed (tests/diagnostics)."""
        return len(self._received.get(address, {}))
