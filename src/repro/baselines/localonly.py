"""Local-only baseline: every peer learns from its own documents alone.

Zero communication, but each peer sees only its own small tagged set — the
"significant amount of labeled data" problem the paper opens with.  The gap
between this baseline and the P2P methods *is* the value of collaboration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.constraints import (
    at_least, check, finite, in_range, integer, positive, setting,
)
from repro.ml.calibration import PlattCalibrator
from repro.ml.linear_svm import MAX_EPOCHS, LinearSVM, LinearSVMModel
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import P2PTagClassifier, PeerData, binary_problems
from repro.sim.scenario import Scenario


@dataclass
class LocalOnlyConfig:
    """Local-only baseline hyperparameters."""

    lambda_reg: float = setting(1e-4, finite, positive)
    epochs: int = setting(12, integer, in_range(1, MAX_EPOCHS))
    max_negative_ratio: float = setting(3.0, finite, positive)
    seed: int = setting(0, integer, at_least(0))

    def validate(self) -> None:
        check(self)


class LocalOnlyTagger(P2PTagClassifier):
    """Per-peer linear SVMs trained on local data only."""

    traffic_prefix = "local"

    def __init__(
        self,
        scenario: Scenario,
        peer_data: PeerData,
        tags=None,
        config: Optional[LocalOnlyConfig] = None,
    ) -> None:
        super().__init__(scenario, peer_data, tags)
        self.config = config or LocalOnlyConfig()
        self.config.validate()
        self._models: Dict[int, Dict[str, LinearSVMModel]] = {}
        self._calibrators: Dict[int, Dict[str, PlattCalibrator]] = {}

    def train(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        peers = []  # (address, its problems in tag order)
        for address, items in sorted(self.peer_data.items()):
            if not items:
                continue
            problems = binary_problems(
                items, self.tags, cfg.max_negative_ratio, rng
            )
            peers.append((address, sorted(problems.items())))
        svm = LinearSVM(lambda_reg=cfg.lambda_reg, epochs=cfg.epochs, seed=cfg.seed)
        fitted = svm.fit_block(
            [[problem for _, problem in problems] for _, problems in peers]
        )
        for (address, problems), peer_models in zip(peers, fitted):
            models: Dict[str, LinearSVMModel] = {}
            calibrators: Dict[str, PlattCalibrator] = {}
            for (tag, (_, labels)), (model, margins) in zip(problems, peer_models):
                models[tag] = model
                calibrators[tag] = PlattCalibrator().fit(margins, labels)
            self._models[address] = models
            self._calibrators[address] = calibrators
        self._trained = True

    def predict_scores(self, origin: int, vector: SparseVector) -> Dict[str, float]:
        self._require_trained()
        models = self._models.get(origin, {})
        calibrators = self._calibrators.get(origin, {})
        scores: Dict[str, float] = {}
        for tag in self.tags:
            model = models.get(tag)
            if model is None:
                # This peer never saw the tag; it cannot assign it at all.
                scores[tag] = 0.0
                continue
            scores[tag] = calibrators[tag].probability(model.decision(vector))
        return scores
