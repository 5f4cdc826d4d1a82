"""Linear SVM trained with the Pegasos primal sub-gradient algorithm.

PACE "uses the state-of-the-art linear SVM algorithm to reduce computation
and communication cost"; Pegasos (Shalev-Shwartz et al., 2007) is exactly
that family: O(nnz) per update, a compact weight-vector model, and strong
accuracy on sparse text.

The learned model is stored sparsely so it can be shipped over the simulated
network with honest byte accounting, and optionally *truncated* to its
largest-magnitude weights (PACE's communication/accuracy knob).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.sparse import SparseVector, pack_rows


@dataclass
class LinearSVMModel:
    """A trained linear model: sparse weights + bias.

    This is the unit PACE propagates between peers, so it knows its own wire
    size and supports truncation.
    """

    weights: SparseVector
    bias: float

    def decision(self, x: SparseVector) -> float:
        return self.weights.dot(x) + self.bias

    def predict(self, x: SparseVector) -> int:
        """Class in {-1, +1}."""
        return 1 if self.decision(x) >= 0.0 else -1

    def truncated(self, max_features: int) -> "LinearSVMModel":
        """Keep only the ``max_features`` largest-|w| entries."""
        if max_features <= 0:
            raise ConfigurationError("max_features must be positive")
        if self.weights.nnz <= max_features:
            return self
        top = sorted(
            self.weights.items(), key=lambda item: abs(item[1]), reverse=True
        )[:max_features]
        return LinearSVMModel(weights=SparseVector(dict(top)), bias=self.bias)

    def wire_size(self) -> int:
        """Bytes on the wire: sparse weights + 8 B bias."""
        return self.weights.wire_size() + 8


class LinearSVM:
    """Pegasos linear SVM for binary classification.

    Parameters
    ----------
    lambda_reg:
        Regularization strength (Pegasos λ).  Smaller fits harder.
    epochs:
        Number of passes over the training set.
    seed:
        Seed for the sampling order (training is deterministic given it).
    """

    def __init__(
        self,
        lambda_reg: float = 1e-4,
        epochs: int = 10,
        seed: int = 0,
    ) -> None:
        if not 0 < lambda_reg < math.inf:
            raise ConfigurationError(
                f"lambda_reg must be positive and finite, got {lambda_reg!r}"
            )
        if epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        self.lambda_reg = lambda_reg
        self.epochs = epochs
        self.seed = seed
        self._model: Optional[LinearSVMModel] = None

    def fit(
        self,
        vectors: Sequence[SparseVector],
        labels: Sequence[int],
    ) -> "LinearSVM":
        """Train on ``vectors`` with labels in {-1, +1}.

        Degenerate one-class inputs produce a constant classifier (bias at
        the class sign) rather than an error — peers with few tagged
        documents routinely hit this case.
        """
        if len(vectors) != len(labels):
            raise ConfigurationError("vectors and labels length mismatch")
        if not vectors:
            raise ConfigurationError("cannot fit on an empty training set")
        unique = set(labels)
        if not unique <= {-1, 1}:
            raise ConfigurationError(f"labels must be in {{-1, +1}}, got {unique}")
        if len(unique) == 1:
            only = next(iter(unique))
            self._model = LinearSVMModel(weights=SparseVector(), bias=float(only))
            return self

        rng = np.random.default_rng(self.seed)
        n = len(vectors)
        packed = pack_rows(vectors)
        bounds = np.cumsum(packed.lengths)[:-1]
        sample_columns = np.split(packed.indices, bounds)
        sample_values = np.split(packed.data, bounds)
        weights = np.zeros(len(packed.columns), dtype=np.float64)
        stepped_on: Dict[int, None] = {}  # samples, in the order first stepped on
        scale = 1.0  # lazy scaling: true w = scale * weights
        bias = 0.0
        t = 0
        for _ in range(self.epochs):
            for index in rng.permutation(n).tolist():
                t += 1
                eta = 1.0 / (self.lambda_reg * t)
                columns = sample_columns[index]
                values = sample_values[index]
                y = labels[index]
                # margin = y * (scale * <weights, x> + bias); a prefix sum
                # adds the terms strictly left to right in x's own order
                wx = (
                    np.add.accumulate(values * weights[columns])[-1]
                    if len(values) else 0.0
                )
                margin = y * (scale * wx + bias)
                # Regularization shrink: w *= (1 - eta * lambda)
                scale *= max(1e-12, 1.0 - eta * self.lambda_reg)
                if margin < 1.0:
                    # w += (eta * y / scale) * x  (lazy-scaled update)
                    weights[columns] += (eta * y / scale) * values
                    bias += eta * y * 0.1  # unregularized, damped bias update
                    stepped_on[index] = None
        # Emitted in the order features were first updated (the insertion
        # order of a dict filled by the steps): ``truncated``'s stable sort
        # and ``weights.dot`` both read it.
        updated = np.concatenate([sample_columns[i] for i in stepped_on])
        emitted = list(dict.fromkeys(updated.tolist()))
        feature_ids = list(packed.columns)  # the vectors' own key objects
        final = zip(
            [feature_ids[column] for column in emitted],
            (scale * weights[emitted]).tolist(),
        )
        self._model = LinearSVMModel(weights=SparseVector(final), bias=bias)
        return self

    @property
    def model(self) -> LinearSVMModel:
        if self._model is None:
            raise NotTrainedError("LinearSVM has not been fitted")
        return self._model

    def decision(self, x: SparseVector) -> float:
        return self.model.decision(x)

    def predict(self, x: SparseVector) -> int:
        return self.model.predict(x)

    def accuracy(
        self, vectors: Sequence[SparseVector], labels: Sequence[int]
    ) -> float:
        """Fraction of correct {-1, +1} predictions (1.0 on empty input)."""
        if not vectors:
            return 1.0
        correct = sum(
            1 for x, y in zip(vectors, labels) if self.predict(x) == y
        )
        return correct / len(vectors)
