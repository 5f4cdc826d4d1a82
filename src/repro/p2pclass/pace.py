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

from repro.constraints import (
    at_least, check, finite, in_range, integer, positive, setting,
)
from repro.ml.calibration import PlattCalibrator
from repro.ml.kmeans import KMeans
from repro.ml.linear_svm import MAX_EPOCHS, LinearSVM, LinearSVMModel
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

    top_k: int = setting(6, integer, at_least(1))
    num_clusters: int = setting(2, integer, at_least(1))
    lsh_bits: int = setting(8, integer, in_range(1, 64))
    #: shared by all peers, like the hashed feature space
    lsh_seed: int = setting(17, integer, at_least(0))
    max_model_features: int = setting(400, integer, at_least(1))
    lambda_reg: float = setting(1e-4, finite, positive)
    epochs: int = setting(12, integer, in_range(1, MAX_EPOCHS))
    max_negative_ratio: float = setting(3.0, finite, positive)
    distance_smoothing: float = setting(1.0, finite, positive)
    #: peers broadcast at staggered times
    propagation_window: float = setting(60.0, finite, at_least(0))
    seed: int = setting(0, integer, at_least(0))

    def validate(self) -> None:
        check(self)


class _PredictionBlock:
    """Every bundle broadcast this round — one object serves each receiver
    that holds it — with its centroids and weight vectors in one
    :class:`RowTable` and its models' parameters in arrays beside it, so an
    AutoTag is two kernel calls: rank the probe's centroids, score the
    surviving bundles' models.

    Bit-identical to one ``distance`` per candidate and one ``decision``
    per model: a row :meth:`SparseVector.dot` would walk in the *row's*
    order (the operand with fewer entries is iterated, ``self`` on a tie —
    the query in a distance, the weights in a decision) still takes the
    scalar ``dot``.
    """

    def __init__(self, bundles: Sequence[PaceModelBundle], tags: Sequence[str]) -> None:
        slot_of = {tag: slot for slot, tag in enumerate(tags)}
        self.num_tags = len(tags)
        #: row -> its vector; kept alive, so the ids below stay theirs
        self.vectors: List[SparseVector] = []
        self.centroid_row: Dict[int, int] = {}  # id(centroid) -> row
        self.model_rows: Dict[int, np.ndarray] = {}  # id(bundle) -> rows
        parameters: List[Tuple[int, float, float, float, float]] = []
        no_model = (0, 0.0, 0.0, 0.0, 0.0)
        for bundle in bundles:
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
        row = self.centroid_row
        rows = np.array([row[id(centroid)] for centroid in centroids], dtype=np.intp)
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


class _ReceiverIndex:
    """What every receiver holds, kept once: one LSH index over the
    centroids of every bundle broadcast, in broadcast order, and a
    receivers x bundles membership table.

    A receiver's own index would hold exactly its bundles' entries,
    inserted in broadcast order (every peer hashes with the one shared
    seed), so each of its buckets is the shared bucket filtered to its row
    of the table; :meth:`candidates` reads that index off the shared one.
    """

    def __init__(self, addresses: Sequence[int], num_bits: int, seed: int) -> None:
        #: entries ``(centroid, (column of its bundle, its place in the
        #: bundle))``: the payloads sort in insertion order
        self.lsh: RandomHyperplaneLSH = RandomHyperplaneLSH(num_bits=num_bits, seed=seed)
        self.row_of = {address: row for row, address in enumerate(addresses)}
        #: column -> bundle, in broadcast order
        self.bundles: List[PaceModelBundle] = []
        self.column_of: Dict[int, int] = {}  # origin -> column
        #: ``held[row, column]``: that receiver holds that bundle (a column
        #: per origin, and every origin is a peer)
        self.held = np.zeros((len(addresses), len(addresses)), dtype=bool)
        self._held_rows: Dict[int, List[bool]] = {}  # row -> held[row], as read

    def store(self, bundle: PaceModelBundle, keys: Sequence[int],
              receivers: Iterable[int]) -> bool:
        """``receivers`` hold ``bundle``, whose centroids hash to ``keys``;
        whether this is its first store (an origin broadcasts once a round,
        so a repeat only adds holders)."""
        column = self.column_of.get(bundle.origin)
        first = column is None
        if first:
            column = self.column_of[bundle.origin] = len(self.bundles)
            self.bundles.append(bundle)
            for place, (centroid, key) in enumerate(zip(bundle.centroids, keys)):
                self.lsh.insert(centroid, (column, place), key)
        self.held[[self.row_of[receiver] for receiver in receivers], column] = True
        self._held_rows.clear()
        return first

    def held_by(self, receiver: int) -> List[int]:
        """The columns of the bundles ``receiver`` holds, in broadcast order."""
        row = self.row_of.get(receiver)
        if row is None:
            return []
        return np.flatnonzero(self.held[row, :len(self.bundles)]).tolist()

    def candidates(self, receiver: int, vector: SparseVector,
                   top_k: int) -> List[Tuple[SparseVector, Tuple[int, int]]]:
        """``(centroid, (column, place))`` of every entry ``receiver`` holds
        in the buckets visited, in probe order: what its own index's
        :meth:`RandomHyperplaneLSH.candidates` returns.  The probe stops at
        the first Hamming distance with ``top_k`` *held* entries; beyond 2
        flips the shared index scans buckets in the order they were first
        filled, and a receiver's own index in the order its first entry came
        in, so those buckets are re-sorted by their first held entry."""
        row = self.row_of.get(receiver)
        if row is None:
            return []
        held = self._held_rows.get(row)
        if held is None:
            held = self._held_rows[row] = self.held[row].tolist()
        found: List[Tuple[SparseVector, Tuple[int, int]]] = []
        for distance, buckets in enumerate(self.lsh.probe(vector)):
            if distance <= 2:
                found += [entry for bucket in buckets for entry in bucket if held[entry[1][0]]]
            else:
                kept = [[entry for entry in bucket if held[entry[1][0]]] for bucket in buckets]
                for entries in sorted(filter(None, kept), key=lambda kept: kept[0][1]):
                    found += entries
            if len(found) >= top_k:
                break
        return found


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
        # What every receiver holds: one index and a membership table.
        self._receivers = self._new_receivers()
        # Every bundle broadcast, packed for prediction on the first query
        # after train().
        self._block: Optional[_PredictionBlock] = None

    def _new_receivers(self) -> _ReceiverIndex:
        return _ReceiverIndex(
            self.scenario.peer_addresses, self.config.lsh_bits, self.config.lsh_seed
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self) -> None:
        # Retraining (e.g. after refinements) re-propagates fresh bundles,
        # which replace each origin's previous models at every receiver.
        self._receivers = self._new_receivers()
        self._block = None
        bundles = self._train_local_bundles()
        self._propagate(bundles)
        self._flush_network()
        self._trained = True

    def _train_local_bundles(self) -> Dict[int, PaceModelBundle]:
        """Every peer's bundle.  The per-tag problems are built peer by peer
        (drawing their negatives from ``self._rng`` in that order), trained
        in one :meth:`LinearSVM.fit_block`, clustered in one
        :meth:`KMeans.fit_block`, then truncated and calibrated peer by
        peer."""
        cfg = self.config
        peers = []  # (address, items, its problems in tag order)
        for address, items in sorted(self.peer_data.items()):
            if not items:
                continue
            problems = binary_problems(
                items, self.tags, cfg.max_negative_ratio, self._rng
            )
            if problems:
                peers.append((address, items, sorted(problems.items())))
        svm = LinearSVM(lambda_reg=cfg.lambda_reg, epochs=cfg.epochs, seed=cfg.seed)
        fitted = svm.fit_block(
            [[problem for _, problem in problems] for _, _, problems in peers]
        )
        clustered = KMeans(k=cfg.num_clusters, seed=cfg.seed).fit_block(
            [[item.vector for item in items] for _, items, _ in peers]
        )
        bundles: Dict[int, PaceModelBundle] = {}
        for (address, _, problems), peer_models, clusters in zip(peers, fitted, clustered):
            models: Dict[str, LinearSVMModel] = {}
            accuracies: Dict[str, float] = {}
            calibration: Dict[str, Tuple[float, float]] = {}
            for (tag, (vectors, labels)), (model, margins) in zip(problems, peer_models):
                truncated = model.truncated(cfg.max_model_features)
                models[tag] = truncated
                # the accuracy is the full model's; a truncated model scores
                # itself for its calibration
                decisions = margins if truncated is model else [
                    truncated.decision(v) for v in vectors
                ]
                correct = sum(
                    1 for d, y in zip(margins, labels) if (1 if d >= 0.0 else -1) == y
                )
                accuracies[tag] = correct / len(vectors)
                calibrator = PlattCalibrator().fit(decisions, labels)
                calibration[tag] = calibrator.parameters()
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
        signature = self._receivers.lsh.signature
        keys = [signature(centroid) for centroid in bundle.centroids]
        # A peer also indexes its own models (no message).
        self._store_bundle(bundle, keys, [*result.delivered_to(), address])

    def _store_bundle(
        self, bundle: PaceModelBundle, keys: List[int], receivers: Iterable[int]
    ) -> None:
        """``receivers`` hold ``bundle``, indexed once under its centroids'
        bucket ``keys``."""
        if self._receivers.store(bundle, keys, receivers):
            self._block = None

    # ------------------------------------------------------------------
    # Prediction (fully local — the PACE advantage)
    # ------------------------------------------------------------------

    def predict_scores(self, origin: int, vector: SparseVector) -> Dict[str, float]:
        self._require_trained()
        receivers = self._receivers
        candidates = receivers.candidates(origin, vector, self.config.top_k)
        if not candidates:  # it holds no centroid
            return {tag: 0.0 for tag in self.tags}
        block = self._block
        if block is None:
            block = self._block = _PredictionBlock(receivers.bundles, self.tags)
        query = block.table.localize(vector)
        distances = block.distances(vector, query, [stored for stored, _ in candidates])
        # Ranked before the repeated-origin skip, ties in probe order.
        nearest = sorted(range(len(candidates)), key=distances.__getitem__)
        bundles: List[PaceModelBundle] = []
        proximities: List[float] = []
        seen_columns = set()
        for position in nearest[: self.config.top_k]:
            column = candidates[position][1][0]
            if column in seen_columns:
                continue  # a bundle may match via several centroids
            seen_columns.add(column)
            bundles.append(receivers.bundles[column])
            proximities.append(
                1.0 / (self.config.distance_smoothing + distances[position])
            )
        scores = block.vote(vector, query, bundles, proximities)
        return dict(zip(self.tags, scores))

    # -- diagnostics --------------------------------------------------------

    def held_bundles(self, receiver: int) -> Dict[int, PaceModelBundle]:
        """``receiver``'s view: origin -> the bundle it holds, in broadcast
        order."""
        bundles = self._receivers.bundles
        return {
            bundles[column].origin: bundles[column]
            for column in self._receivers.held_by(receiver)
        }

    def models_indexed_at(self, address: int) -> int:
        """How many peers' bundles this peer has indexed (tests/diagnostics)."""
        return len(self.held_bundles(address))
