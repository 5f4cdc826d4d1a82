"""Centralized baseline: ship all data to a server, train there.

This is the setting the paper criticizes (scalability, single point of
failure, privacy) and the accuracy reference point: the P2P methods aim to
approach its F1 while transmitting far fewer bytes and never centralizing
document vectors.

Communication accounting: every peer uploads its raw tagged document vectors
to the server (charged through the simulated network); every prediction
sends the untagged vector to the server and receives scores back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.constraints import (
    at_least, check, finite, in_range, integer, positive, setting,
)
from repro.errors import ConfigurationError
from repro.ml.calibration import PlattCalibrator
from repro.ml.linear_svm import MAX_EPOCHS, LinearSVM, LinearSVMModel
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import (
    P2PTagClassifier,
    PeerData,
    TaggedVector,
    binary_problems,
)
from repro.sim.codec import register_traffic_class
from repro.sim.messages import Message
from repro.sim.scenario import Scenario

MSG_DATA_UPLOAD = "central.data_upload"
MSG_QUERY = "central.query"
MSG_PREDICTION = "central.prediction"

# Wire-format hints: raw training data and queries are sparse vectors;
# prediction responses are small score maps (control traffic).
register_traffic_class(MSG_DATA_UPLOAD, "vector")
register_traffic_class(MSG_QUERY, "vector")
register_traffic_class(MSG_PREDICTION, "control")


@dataclass
class CentralizedConfig:
    """Centralized baseline hyperparameters."""

    server: int = setting(0, integer, at_least(0))  # a scenario peer
    lambda_reg: float = setting(1e-4, finite, positive)
    epochs: int = setting(15, integer, in_range(1, MAX_EPOCHS))
    max_negative_ratio: float = setting(5.0, finite, positive)
    seed: int = setting(0, integer, at_least(0))

    def validate(self) -> None:
        check(self)


class CentralizedTagger(P2PTagClassifier):
    """All data at one server; linear SVM per tag over the pooled corpus."""

    traffic_prefix = "central"

    def __init__(
        self,
        scenario: Scenario,
        peer_data: PeerData,
        tags=None,
        config: Optional[CentralizedConfig] = None,
    ) -> None:
        super().__init__(scenario, peer_data, tags)
        self.config = config or CentralizedConfig()
        self.config.validate()
        if self.config.server not in scenario.peer_addresses:
            raise ConfigurationError(
                f"server {self.config.server} is not a scenario peer"
            )
        self._models: Dict[str, LinearSVMModel] = {}
        self._calibrators: Dict[str, PlattCalibrator] = {}

    def train(self) -> None:
        cfg = self.config
        pooled: List[TaggedVector] = []
        # The upload round is one bulk-scheduled delivery block: every
        # non-server peer's upload goes out in a single send_batch (the
        # batched path consumes the RNG stream bit-identically to the old
        # per-peer sequential sends, so replay is unchanged).
        uploads: List[Tuple[List[TaggedVector], Optional[Message]]] = []
        for address, items in sorted(self.peer_data.items()):
            if not items:
                continue
            message = None
            if address != cfg.server:
                message = Message(
                    src=address,
                    dst=cfg.server,
                    msg_type=MSG_DATA_UPLOAD,
                    payload=list(items),
                )
            uploads.append((items, message))
        outcomes = iter(
            self.transport.send_batch(
                [message for _, message in uploads if message is not None]
            )
        )
        for items, message in uploads:
            if message is None or next(outcomes).delivered:
                pooled.extend(items)
            else:
                self.scenario.stats.increment("central_upload_lost")
        self._flush_network()
        if not pooled:
            raise ConfigurationError("no training data reached the server")

        rng = np.random.default_rng(cfg.seed)
        problems = sorted(
            binary_problems(pooled, self.tags, cfg.max_negative_ratio, rng).items()
        )
        svm = LinearSVM(lambda_reg=cfg.lambda_reg, epochs=cfg.epochs, seed=cfg.seed)
        [fitted] = svm.fit_block([[problem for _, problem in problems]])
        for (tag, (_, labels)), (model, margins) in zip(problems, fitted):
            self._models[tag] = model
            self._calibrators[tag] = PlattCalibrator().fit(margins, labels)
        self._trained = True

    def predict_scores(self, origin: int, vector: SparseVector) -> Dict[str, float]:
        self._require_trained()
        cfg = self.config
        if self.scenario.network.is_down(origin):
            # Querying peer is offline; defer to its next session (no charge
            # now — the round trip happens later either way).
            self.scenario.stats.increment("central_query_deferred")
        elif origin != cfg.server:
            query = self.transport.send(origin, cfg.server, MSG_QUERY, vector)
            if not query.delivered:
                # Server unreachable: the centralized system fails closed —
                # the single point of failure the paper warns about.
                self.scenario.stats.increment("central_query_lost")
                return {tag: 0.0 for tag in self.tags}
            self.transport.send(
                cfg.server,
                origin,
                MSG_PREDICTION,
                {t: 0.0 for t in self.tags},
            )
        self._flush_network()
        scores: Dict[str, float] = {}
        for tag in self.tags:
            model = self._models.get(tag)
            if model is None:
                scores[tag] = 0.0
                continue
            scores[tag] = self._calibrators[tag].probability(
                model.decision(vector)
            )
        return scores
