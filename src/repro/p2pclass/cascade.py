"""Cascade-SVM machinery (CEMPaR's aggregation step).

A cascade merges child SVM models by pooling their support vectors and
retraining on the pool (Graf et al., 2005).  Support vectors are a compressed
summary of each peer's data, so the merged model approximates training on
the union of all peers' documents at a fraction of the communication cost —
the core CEMPaR argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.calibration import PlattCalibrator
from repro.ml.kernel_svm import KernelSVM, KernelSVMModel, SupportVector
from repro.ml.sparse import SparseVector


@dataclass
class CascadeModel:
    """A regional cascaded model: the retrained SVM + calibration."""

    svm: KernelSVMModel
    calibrator: PlattCalibrator
    training_size: int
    training_accuracy: float

    def probability(self, vector: SparseVector) -> float:
        """Calibrated P(tag | vector)."""
        return self.calibrator.probability(self.svm.decision(vector))

    def wire_size(self) -> int:
        return self.svm.wire_size() + 16  # + Platt (A, B)


def _subsample_pairs(
    vectors: List[SparseVector],
    labels: List[int],
    max_size: int,
    rng: np.random.Generator,
) -> Tuple[List[SparseVector], List[int]]:
    """Class-stratified subsample keeping at most ``max_size`` examples."""
    if len(vectors) <= max_size:
        return vectors, labels
    positives = [i for i, y in enumerate(labels) if y == 1]
    negatives = [i for i, y in enumerate(labels) if y == -1]
    keep_pos = max(1, int(round(max_size * len(positives) / len(vectors))))
    keep_neg = max_size - keep_pos
    chosen: List[int] = []
    if positives:
        idx = rng.choice(len(positives), size=min(keep_pos, len(positives)),
                         replace=False)
        chosen.extend(positives[int(i)] for i in idx)
    if negatives and keep_neg > 0:
        idx = rng.choice(len(negatives), size=min(keep_neg, len(negatives)),
                         replace=False)
        chosen.extend(negatives[int(i)] for i in idx)
    chosen.sort()
    return [vectors[i] for i in chosen], [labels[i] for i in chosen]


def cascade_merge(
    child_models: Sequence[KernelSVMModel],
    C: float = 1.0,
    gamma: float = 0.5,
    kernel_name: str = "rbf",
    max_training_size: int = 400,
    seed: int = 0,
) -> Optional[CascadeModel]:
    """Merge child models' support vectors and retrain.

    Returns None when the children carry no support vectors at all (e.g.
    every child was a degenerate one-class model) — the caller treats the
    (tag, region) as having no model.
    """
    if max_training_size <= 0:
        raise ConfigurationError("max_training_size must be positive")
    vectors: List[SparseVector] = []
    labels: List[int] = []
    for model in child_models:
        child_vectors, child_labels = model.training_pairs()
        vectors.extend(child_vectors)
        labels.extend(child_labels)
    if not vectors:
        return None
    rng = np.random.default_rng(seed)
    vectors, labels = _subsample_pairs(vectors, labels, max_training_size, rng)

    unique = set(labels)
    if len(unique) == 1:
        # One-class pool: degenerate constant model, confidence from size.
        only = next(iter(unique))
        svm_model = KernelSVMModel(
            support_vectors=[], bias=float(only), gamma=gamma,
            kernel_name=kernel_name,
        )
        calibrator = PlattCalibrator().fit([float(only)] * len(labels), labels)
        return CascadeModel(
            svm=svm_model,
            calibrator=calibrator,
            training_size=len(labels),
            training_accuracy=1.0,
        )

    svm = KernelSVM(C=C, gamma=gamma, kernel_name=kernel_name, seed=seed)
    svm.fit(vectors, labels)
    decisions = [svm.decision(v) for v in vectors]
    # queries score every regional model from one block (CEMPaR packs it on
    # the first of them); a pack kept per model would only sit in peak RSS
    svm.model.release_pack()
    calibrator = PlattCalibrator().fit(decisions, labels)
    correct = sum(
        1 for d, y in zip(decisions, labels) if (1 if d >= 0 else -1) == y
    )
    return CascadeModel(
        svm=svm.model,
        calibrator=calibrator,
        training_size=len(labels),
        training_accuracy=correct / len(labels),
    )


def support_vectors_payload(model: KernelSVMModel) -> List[SupportVector]:
    """The exact objects CEMPaR ships to a super-peer (privacy note: these
    are word-id/frequency vectors, never text)."""
    return list(model.support_vectors)
