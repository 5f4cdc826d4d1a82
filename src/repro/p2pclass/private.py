"""Privacy-preserving PACE: the paper's pluggability claim, realized.

Paper §2: "the P2P classification algorithm in P2PDocTagger is a pluggable
component.  Therefore, if we deploy a privacy preserving P2P classification
algorithm, P2PDocTagger will then inherit the privacy preserving property."

:class:`PrivatePaceClassifier` is that deployment: before a peer propagates
its model bundle, every shared artifact is randomized à la differential
privacy:

- **weight vectors** get Laplace noise calibrated to sensitivity/epsilon
  (output perturbation for regularized ERM, Chaudhuri & Monteleoni 2008);
- **centroids** get Laplace noise (they are means of normalized documents,
  sensitivity ~ 2/n per coordinate for an n-document cluster);
- **reported accuracies** are noised and clamped to [0, 1].

The local index and local predictions are untouched — privacy applies to
what *leaves* the peer.  Epsilon is the knob the privacy-vs-accuracy
ablation sweeps: smaller epsilon = stronger privacy = noisier ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.constraints import finite, positive, setting
from repro.ml.linear_svm import LinearSVMModel
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import PeerData
from repro.p2pclass.pace import PaceClassifier, PaceConfig, PaceModelBundle
from repro.sim.scenario import Scenario


@dataclass
class PrivatePaceConfig(PaceConfig):
    """PACE hyperparameters plus the privacy budget."""

    #: per-peer privacy budget (smaller = more private; inf adds no noise)
    epsilon: float = setting(1.0, positive)
    #: ERM output sensitivity bound
    weight_sensitivity: float = setting(2.0, finite, positive)


class PrivatePaceClassifier(PaceClassifier):
    """PACE whose outgoing bundles are randomized before propagation.

    Propagation inherits PACE's scheduled-batch round: noisy bundles are
    broadcast at bulk-scheduled staggered instants, and only the randomized
    artifacts ever reach the transport.
    """

    traffic_prefix = "private-pace"

    def __init__(
        self,
        scenario: Scenario,
        peer_data: PeerData,
        tags=None,
        config: Optional[PrivatePaceConfig] = None,
    ) -> None:
        config = config or PrivatePaceConfig()
        super().__init__(scenario, peer_data, tags, config)
        self.config: PrivatePaceConfig = config
        self._noise_rng = np.random.default_rng(config.seed ^ 0x5EED)

    # ------------------------------------------------------------------

    def _train_local_bundles(self) -> Dict[int, PaceModelBundle]:
        bundles = super()._train_local_bundles()
        return {
            address: self._randomize(bundle, len(self.peer_data[address]))
            for address, bundle in bundles.items()
        }

    def _randomize(self, bundle: PaceModelBundle, n_local: int) -> PaceModelBundle:
        """Perturb every artifact that will leave the peer."""
        cfg = self.config
        # Budget split: half to the models, the rest over centroids+accuracy.
        eps_models = cfg.epsilon / 2.0
        eps_rest = cfg.epsilon / 2.0

        noisy_models: Dict[str, LinearSVMModel] = {}
        per_model_eps = eps_models / max(1, len(bundle.models))
        scale = cfg.weight_sensitivity / (per_model_eps * max(1, n_local))
        for tag, model in bundle.models.items():
            noisy_models[tag] = self._noisy_model(model, scale)

        per_centroid_eps = eps_rest / (2 * max(1, len(bundle.centroids)))
        centroid_scale = 2.0 / (per_centroid_eps * max(1, n_local))
        noisy_centroids = [
            self._noisy_vector(centroid, centroid_scale)
            for centroid in bundle.centroids
        ]

        acc_scale = 1.0 / (eps_rest / 2.0 * max(1, n_local))
        noisy_accuracies = {
            tag: float(
                np.clip(
                    accuracy + self._noise_rng.laplace(0.0, acc_scale), 0.0, 1.0
                )
            )
            for tag, accuracy in bundle.accuracies.items()
        }

        return PaceModelBundle(
            origin=bundle.origin,
            models=noisy_models,
            accuracies=noisy_accuracies,
            calibration=dict(bundle.calibration),
            centroids=noisy_centroids,
        )

    def _noisy_model(self, model: LinearSVMModel, scale: float) -> LinearSVMModel:
        """Laplace-perturb the (sparse) weight vector and bias.

        Noise is applied to the model's *existing* coordinates: perturbing
        the full hashed space would destroy sparsity, and the retained
        support already determines the information that leaves the peer.
        """
        noisy = {
            fid: value + float(self._noise_rng.laplace(0.0, scale))
            for fid, value in model.weights.items()
        }
        bias = model.bias + float(self._noise_rng.laplace(0.0, scale))
        return LinearSVMModel(weights=SparseVector(noisy), bias=bias)

    def _noisy_vector(self, vector: SparseVector, scale: float) -> SparseVector:
        return SparseVector(
            {
                fid: value + float(self._noise_rng.laplace(0.0, scale))
                for fid, value in vector.items()
            }
        )
