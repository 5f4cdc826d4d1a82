"""Kernel (dual) SVM trained with a simplified SMO solver.

CEMPaR requires a non-linear SVM whose *support vectors are first-class*:
each peer's local model is its set of support vectors, which are shipped to a
super-peer and cascaded (merged and retrained).  A dual solver is therefore
the right substrate — the model *is* the SV set with coefficients.

The solver is Platt's SMO in its simplified form (random second index,
KKT-violation outer loop).  Local training sets in the P2P setting are small
(tens of documents per binary task), so the O(n^2) Gram matrix is cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.kernels import gram_matrix, kernel_from_dots
from repro.ml.sparse import SparseVector, pack_rows


@dataclass
class SupportVector:
    """One support vector: the document vector, its label, and its dual weight.

    CEMPaR note: this is exactly what travels to super-peers — word-id/
    frequency vectors, never raw text, which is the paper's privacy argument.
    """

    vector: SparseVector
    label: int
    alpha: float

    def wire_size(self) -> int:
        return self.vector.wire_size() + 4 + 8  # label + alpha


class PackedSupport:
    """The support vectors of a sequence of models as one CSR-style block
    over local columns (feature ids renumbered densely): memory follows the
    SVs' nonzeros, never the hashed feature space, and every model's every
    SV dot product is one gather-multiply-``bincount`` instead of a Python
    loop of sparse dots.  A model's own ``decision`` is the one-model case.

    The models must share a kernel: the non-linear step runs once over all
    support vectors, then each model sums its own slice."""

    def __init__(self, models: Sequence["KernelSVMModel"]) -> None:
        kernels = {(model.kernel_name, model.gamma) for model in models}
        if len(kernels) != 1:
            raise ConfigurationError(
                f"one block packs models of one kernel, got {sorted(kernels)}"
            )
        ((self.kernel_name, self.gamma),) = kernels
        support = [sv for model in models for sv in model.support_vectors]
        vectors = [sv.vector for sv in support]
        self.columns, self.indices, self.data, self.rows, _ = pack_rows(vectors)
        self.coef = np.array([sv.alpha * sv.label for sv in support], float)
        self.squared_norms = np.array([v.squared_norm() for v in vectors], float)
        stops = list(itertools.accumulate(len(m.support_vectors) for m in models))
        #: per model: its slice of the support vectors, and its bias
        self.per_model = [
            (slice(start, stop), model.bias)
            for start, stop, model in zip([0] + stops, stops, models)
        ]

    def decisions(self, x: SparseVector) -> List[float]:
        """``model.decision(x)`` for each model, in the order given."""
        column_of = self.columns.get
        dense = np.zeros(len(self.columns), dtype=np.float64)
        for feature_id, value in x.items():
            column = column_of(feature_id)
            if column is not None:
                dense[column] = value
        # Only the entries whose feature ``x`` has (it stores no zeros): the
        # others are terms of +-0.0, and ``bincount`` adds what is left in
        # the same row-major order from the same 0.0, so every dot keeps
        # its bits.
        matched = np.flatnonzero((dense != 0.0).take(self.indices))
        dots = np.bincount(
            self.rows.take(matched),
            weights=self.data.take(matched) * dense.take(self.indices.take(matched)),
            minlength=len(self.coef),
        )
        values = kernel_from_dots(
            self.kernel_name, dots, self.squared_norms, x.squared_norm(),
            gamma=self.gamma,
        )
        coef = self.coef
        # each margin on its own slice: BLAS sums a model's terms in the
        # order it would without the others beside them
        return [float(coef[own] @ values[own]) + bias for own, bias in self.per_model]


@dataclass
class KernelSVMModel:
    """A trained dual model: support vectors + bias + kernel parameters.
    The first ``decision`` call packs the (from then on fixed) support
    vectors; models that are only shipped are never packed."""

    support_vectors: List[SupportVector]
    bias: float
    gamma: float
    kernel_name: str = "rbf"
    _packed: Optional[PackedSupport] = field(default=None, repr=False, compare=False)

    def decision(self, x: SparseVector) -> float:
        packed = self._packed
        if packed is None:
            packed = self._packed = PackedSupport([self])
        return packed.decisions(x)[0]

    def release_pack(self) -> None:
        """Let go of the pack; a later ``decision`` builds it again."""
        self._packed = None

    @property
    def num_support_vectors(self) -> int:
        return len(self.support_vectors)

    def wire_size(self) -> int:
        """Bytes to ship this model: all SVs + bias + gamma."""
        return sum(sv.wire_size() for sv in self.support_vectors) + 16

    def training_pairs(self) -> Tuple[List[SparseVector], List[int]]:
        """SVs as a (vectors, labels) training set — the cascade's input."""
        return (
            [sv.vector for sv in self.support_vectors],
            [sv.label for sv in self.support_vectors],
        )


class KernelSVM:
    """Binary kernel SVM via simplified SMO.

    Parameters
    ----------
    C:
        Box constraint (soft-margin strength).
    gamma:
        RBF width (ignored for linear kernel).
    kernel_name:
        ``"rbf"`` (default), ``"linear"``, or ``"poly"``.
    tol:
        KKT violation tolerance.
    max_passes:
        Consecutive no-progress sweeps before stopping.
    """

    def __init__(
        self,
        C: float = 1.0,
        gamma: float = 0.5,
        kernel_name: str = "rbf",
        tol: float = 1e-3,
        max_passes: int = 5,
        max_iterations: int = 2000,
        seed: int = 0,
    ) -> None:
        if C <= 0:
            raise ConfigurationError("C must be positive")
        if gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        self.C = C
        self.gamma = gamma
        self.kernel_name = kernel_name
        self.tol = tol
        self.max_passes = max_passes
        self.max_iterations = max_iterations
        self.seed = seed
        self._model: Optional[KernelSVMModel] = None

    # ------------------------------------------------------------------

    def fit(
        self, vectors: Sequence[SparseVector], labels: Sequence[int]
    ) -> "KernelSVM":
        """Train on labels in {-1, +1}; one-class input yields a constant model."""
        if len(vectors) != len(labels):
            raise ConfigurationError("vectors and labels length mismatch")
        if not vectors:
            raise ConfigurationError("cannot fit on an empty training set")
        unique = set(labels)
        if not unique <= {-1, 1}:
            raise ConfigurationError(f"labels must be in {{-1, +1}}, got {unique}")
        if len(unique) == 1:
            only = float(next(iter(unique)))
            self._model = KernelSVMModel(
                support_vectors=[], bias=only, gamma=self.gamma,
                kernel_name=self.kernel_name,
            )
            return self

        n = len(vectors)
        C, tol = float(self.C), self.tol
        y = [float(label) for label in labels]
        K = gram_matrix(list(vectors), self.kernel_name, self.gamma)
        entries = K.tolist()  # scalar reads; ``np.dot`` keeps the array rows
        alphas = [0.0] * n
        signed = np.zeros(n, dtype=np.float64)  # alphas * y, kept in step
        # <signed, K[k]> for the rows evaluated since an alpha last changed
        outputs: Dict[int, float] = {}
        bias = 0.0
        rng = np.random.default_rng(self.seed)

        passes = 0
        iterations = 0
        while passes < self.max_passes and iterations < self.max_iterations:
            iterations += 1
            changed = 0
            for i in range(n):
                y_i, alpha_i_old = y[i], alphas[i]
                output = outputs.get(i)
                if output is None:
                    output = outputs[i] = float(np.dot(signed, K[i]))
                error_i = output + bias - y_i
                if (y_i * error_i < -tol and alpha_i_old < C) or (
                    y_i * error_i > tol and alpha_i_old > 0
                ):
                    j = int(rng.integers(0, n - 1))
                    if j >= i:
                        j += 1
                    y_j, alpha_j_old = y[j], alphas[j]
                    output = outputs.get(j)
                    if output is None:
                        output = outputs[j] = float(np.dot(signed, K[j]))
                    error_j = output + bias - y_j
                    if y_i != y_j:
                        low = max(0.0, alpha_j_old - alpha_i_old)
                        high = min(C, C + alpha_j_old - alpha_i_old)
                    else:
                        low = max(0.0, alpha_i_old + alpha_j_old - C)
                        high = min(C, alpha_i_old + alpha_j_old)
                    if low >= high:
                        continue
                    K_ii, K_ij, K_jj = entries[i][i], entries[i][j], entries[j][j]
                    eta = 2.0 * K_ij - K_ii - K_jj
                    if eta >= 0:
                        continue
                    alpha_j = alpha_j_old - y_j * (error_i - error_j) / eta
                    alpha_j = min(high, max(low, alpha_j))
                    if alpha_j != alpha_j_old:
                        # written before the threshold test below, so a
                        # sub-threshold change is kept (and seen by the cache)
                        alphas[j] = alpha_j
                        signed[j] = alpha_j * y_j
                        outputs.clear()
                    if abs(alpha_j - alpha_j_old) < 1e-7:
                        continue
                    alpha_i = alpha_i_old + y_i * y_j * (alpha_j_old - alpha_j)
                    alphas[i] = alpha_i
                    signed[i] = alpha_i * y_i
                    b1 = (
                        bias
                        - error_i
                        - y_i * (alpha_i - alpha_i_old) * K_ii
                        - y_j * (alpha_j - alpha_j_old) * K_ij
                    )
                    b2 = (
                        bias
                        - error_j
                        - y_i * (alpha_i - alpha_i_old) * K_ij
                        - y_j * (alpha_j - alpha_j_old) * K_jj
                    )
                    if 0 < alpha_i < C:
                        bias = b1
                    elif 0 < alpha_j < C:
                        bias = b2
                    else:
                        bias = (b1 + b2) / 2.0
                    changed += 1
            if changed == 0:
                passes += 1
            else:
                passes = 0

        support = [
            SupportVector(vector=vectors[i], label=int(y[i]), alpha=alphas[i])
            for i in range(n)
            if alphas[i] > 1e-8
        ]
        self._model = KernelSVMModel(
            support_vectors=support,
            bias=bias,
            gamma=self.gamma,
            kernel_name=self.kernel_name,
        )
        return self

    # ------------------------------------------------------------------

    @property
    def model(self) -> KernelSVMModel:
        if self._model is None:
            raise NotTrainedError("KernelSVM has not been fitted")
        return self._model

    def decision(self, x: SparseVector) -> float:
        return self.model.decision(x)
