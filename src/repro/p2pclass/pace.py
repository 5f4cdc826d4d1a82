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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.calibration import PlattCalibrator
from repro.ml.kmeans import KMeans
from repro.ml.linear_svm import LinearSVM, LinearSVMModel
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.sparse import RowTable, SparseVector
from repro.p2pclass.base import P2PTagClassifier, PeerData, binary_problems
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


class _PredictionBlock:
    """Every distinct bundle the receivers hold — one object serves each
    store it sits in — with its centroids and weight vectors in one
    :class:`RowTable` and its models' parameters in arrays beside it, so an
    AutoTag is two kernel calls: rank the probe's centroids, score the
    surviving bundles' models.

    Bit-identical to one ``distance`` per candidate and one ``decision``
    per model: a row :meth:`SparseVector.dot` would walk in the *row's*
    order (the operand with fewer entries is iterated, ``self`` on a tie —
    the query in a distance, the weights in a decision) still takes the
    scalar ``dot``.
    """

    def __init__(self, stores: Iterable[Dict[int, PaceModelBundle]],
                 tags: Sequence[str]) -> None:
        slot_of = {tag: slot for slot, tag in enumerate(tags)}
        self.num_tags = len(tags)
        #: row -> its vector; kept alive, so the ids below stay theirs
        self.vectors: List[SparseVector] = []
        self.centroid_row: Dict[int, int] = {}  # id(centroid) -> row
        self.model_rows: Dict[int, np.ndarray] = {}  # id(bundle) -> rows
        parameters: List[Tuple[int, float, float, float, float]] = []
        no_model = (0, 0.0, 0.0, 0.0, 0.0)
        for store in stores:
            for bundle in store.values():
                if id(bundle) in self.model_rows:
                    continue
                for centroid in bundle.centroids:
                    self.centroid_row[id(centroid)] = len(self.vectors)
                    self.vectors.append(centroid)
                    parameters.append(no_model)
                first = len(self.vectors)
                for tag, model in bundle.models.items():
                    self.vectors.append(model.weights)
                    parameters.append((
                        slot_of[tag], model.bias,
                        *bundle.calibration.get(tag, (-2.0, 0.0)),
                        bundle.accuracies.get(tag, 0.5),
                    ))
                self.model_rows[id(bundle)] = np.arange(first, len(self.vectors))
        self.table = RowTable(self.vectors)
        columns = np.array(parameters, dtype=np.float64).reshape(-1, 5)
        self.tag = columns[:, 0].astype(np.intp)
        #: row -> bias, Platt A, Platt B, accuracy of the model it holds
        self.parameters = np.ascontiguousarray(columns[:, 1:])
        #: row -> squared norm of the centroid it holds
        self.squared_norm = np.zeros(len(self.vectors), dtype=np.float64)
        centroid_rows = list(self.centroid_row.values())
        self.squared_norm[centroid_rows] = [
            self.vectors[row].squared_norm() for row in centroid_rows
        ]

    def _dots(self, rows, vector, query, query_is_self):
        """``vector.dot(row)`` (``query_is_self``) or ``row.dot(vector)``
        for each of ``rows``, summed in the order the scalar takes."""
        dots = self.table.dots(rows, *query)
        # ties go to ``self``: the query walks an equally long centroid,
        # equally long weights walk themselves
        in_row_order = self.table.lengths.take(rows) <= len(vector) - query_is_self
        for position in np.flatnonzero(in_row_order).tolist():
            dots[position] = self.vectors[rows[position]].dot(vector)
        return dots

    def distances(self, vector: SparseVector, query, centroids) -> List[float]:
        """``vector.distance(centroid)`` for each of ``centroids``."""
        known = [self.centroid_row.get(id(centroid)) for centroid in centroids]
        if None in known:  # indexed, but in no receiver's store
            return [vector.distance(centroid) for centroid in centroids]
        rows = np.array(known, dtype=np.intp)
        squared = (
            vector.squared_norm()
            - 2.0 * self._dots(rows, vector, query, True)
            + self.squared_norm.take(rows)
        )
        return np.sqrt(np.where(squared > 0.0, squared, 0.0)).tolist()

    def vote(self, vector: SparseVector, query, bundles, proximities) -> List[float]:
        """Per tag slot, the accuracy x proximity weighted mean of the
        calibrated probabilities of every model of ``bundles``, taken in
        that order (0.0 where nothing votes)."""
        if not bundles:
            return [0.0] * self.num_tags
        per_bundle = [self.model_rows[id(bundle)] for bundle in bundles]
        rows = np.concatenate(per_bundle)
        bias, platt_a, platt_b, accuracy = self.parameters.take(rows, axis=0).T
        z = platt_a * (self._dots(rows, vector, query, False) + bias) + platt_b
        # the sigmoid from the side that cannot overflow, |z| capped at 500
        ez = np.exp(-np.minimum(np.abs(z), 500.0))
        probability = np.where(z >= 0, ez, 1.0) / (1.0 + ez)
        weight = accuracy * np.repeat(proximities, [len(r) for r in per_bundle])
        weight = np.where(weight > 0.0, weight, 0.0)
        tag = self.tag.take(rows)
        numerator = np.bincount(tag, probability * weight, self.num_tags)
        denominator = np.bincount(tag, weight, self.num_tags)
        return [
            0.0 if total == 0.0 else score / total
            for score, total in zip(numerator.tolist(), denominator.tolist())
        ]


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
        # Every bundle some receiver holds, packed for prediction on the
        # first query after train().
        self._block: Optional[_PredictionBlock] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self) -> None:
        # Retraining (e.g. after refinements) re-propagates fresh bundles,
        # which replace each origin's previous models in every index.
        self._indexes.clear()
        self._received.clear()
        self._block = None
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
        if index is None or len(index) == 0:
            return {tag: 0.0 for tag in self.tags}
        store = self._received.get(origin, {})
        block = self._block
        if block is None:
            block = self._block = _PredictionBlock(self._received.values(), self.tags)
        query = block.table.localize(vector)
        candidates = index.candidates(vector, self.config.top_k)
        distances = block.distances(vector, query, [stored for stored, _ in candidates])
        # Ranked before the repeated-origin skip, ties in probe order.
        nearest = sorted(range(len(candidates)), key=distances.__getitem__)
        bundles: List[PaceModelBundle] = []
        proximities: List[float] = []
        seen_origins = set()
        for position in nearest[: self.config.top_k]:
            bundle_origin = candidates[position][1]
            if bundle_origin in seen_origins:
                continue  # a bundle may match via several centroids
            seen_origins.add(bundle_origin)
            bundle = store.get(bundle_origin)
            if bundle is None:
                continue
            bundles.append(bundle)
            proximities.append(
                1.0 / (self.config.distance_smoothing + distances[position])
            )
        scores = block.vote(vector, query, bundles, proximities)
        return dict(zip(self.tags, scores))

    # -- diagnostics --------------------------------------------------------

    def models_indexed_at(self, address: int) -> int:
        """How many peers' bundles this peer has indexed (tests/diagnostics)."""
        return len(self._received.get(address, {}))
