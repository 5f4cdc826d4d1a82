"""Linear SVM trained with the Pegasos primal sub-gradient algorithm.

PACE "uses the state-of-the-art linear SVM algorithm to reduce computation
and communication cost"; Pegasos (Shalev-Shwartz et al., 2007) is exactly
that family: O(nnz) per update, a compact weight-vector model, and strong
accuracy on sparse text.

The learned model is stored sparsely so it can be shipped over the simulated
network with honest byte accounting, and optionally *truncated* to its
largest-magnitude weights (PACE's communication/accuracy knob).

:func:`pegasos_block` trains many problems at once: a PACE round trains
every peer's per-tag problems in one call, through
:meth:`LinearSVM.fit_block`, and :meth:`LinearSVM.fit` is its one-problem
case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


#: one binary problem: vectors and their labels in {-1, +1}
Problem = Tuple[Sequence[SparseVector], Sequence[int]]


def _check_settings(lambda_reg: float, epochs: int) -> None:
    if not 0 < lambda_reg < math.inf:
        raise ConfigurationError(
            f"lambda_reg must be positive and finite, got {lambda_reg!r}"
        )
    if epochs <= 0:
        raise ConfigurationError("epochs must be positive")


def _one_class(vectors: Sequence[SparseVector], labels: Sequence[int]) -> Optional[int]:
    """Refuse a malformed problem; the label of a one-class one, else None."""
    if len(vectors) != len(labels):
        raise ConfigurationError("vectors and labels length mismatch")
    if not vectors:
        raise ConfigurationError("cannot fit on an empty training set")
    unique = set(labels)
    if not unique <= {-1, 1}:
        raise ConfigurationError(f"labels must be in {{-1, +1}}, got {unique}")
    return next(iter(unique)) if len(unique) == 1 else None


def pegasos_block(
    groups: Sequence[Sequence[Problem]],
    *,
    lambda_reg: float,
    epochs: int,
    seed: int,
) -> List[List[LinearSVMModel]]:
    """Pegasos on every problem of ``groups`` in lockstep: one numpy step
    advances every problem still training.

    The problems of a group share one column space (a peer's per-tag
    problems over its own documents): its vectors are packed once, and each
    of its problems owns a weight segment of that width plus one scratch
    slot.  Returns the models nested as ``groups``, each bit-identical to
    the problem trained alone — bias, and weights in emission order.
    Degenerate one-class problems get a constant classifier (bias at the
    class sign) rather than an error: peers with few tagged documents
    routinely hit this case.

    Why lockstep is exact: step ``t``'s ``eta = 1 / (lambda t)`` and shrink
    factor depend on ``t`` alone, so they and the lazy ``scale`` stay one
    Python float for every problem, and every sample order is drawn from
    ``default_rng(seed)``, so problems of one size share one.  Sorted by
    step count, longest first, the problems still training are a prefix.  A
    step gathers each one's sample as a row padded with ``0.0`` at its own
    scratch slot, reads ``<w, x>`` off ``np.add.accumulate`` (left to right
    along the row) at the row's last real entry, and scatters the update
    into the rows inside the margin only.  Weights are emitted in the order
    steps first updated them, by step and then by place in the row: the
    insertion order of a dict filled by the scalar steps, which
    ``truncated``'s stable sort and ``weights.dot`` both read.
    """
    _check_settings(lambda_reg, epochs)
    models: List[List[LinearSVMModel]] = []
    trained = []  # (group, position, vectors, labels) of two-class problems
    for g, group in enumerate(groups):
        models.append([])
        for vectors, labels in group:
            only = _one_class(vectors, labels)
            if only is None:  # trained below, in this model's place
                trained.append((g, len(models[g]), vectors, labels))
                only = 0
            models[g].append(LinearSVMModel(weights=SparseVector(), bias=float(only)))
    if not trained:
        return models

    # Each group's distinct vectors (by identity) packed once, and every
    # row as a column padded to the longest: padding points at the group's
    # width, a segment's scratch slot, and holds 0.0.
    distinct: Dict[int, Dict[int, SparseVector]] = {}  # group -> id -> vector
    for g, _, vectors, _ in trained:
        known = distinct.setdefault(g, {})
        for vector in vectors:
            known.setdefault(id(vector), vector)
    row_vector: List[SparseVector] = []
    row_of: Dict[Tuple[int, int], int] = {}  # (group, id(vector)) -> row
    column_of: Dict[int, Dict[int, int]] = {}  # group -> feature id -> column
    packs = []
    for g, known in distinct.items():
        row_of.update(zip([(g, key) for key in known], itertools.count(len(row_vector))))
        row_vector.extend(known.values())
        packs.append(pack_rows(list(known.values())))
        column_of[g] = packs[-1].columns
    lengths = np.concatenate([packed.lengths for packed in packs])
    longest = max(1, int(lengths.max()))
    filled = (np.arange(longest)[:, None] < lengths).T
    entry_column = np.repeat(
        [len(column_of[g]) for g in distinct], [len(known) for known in distinct.values()]
    )[None, :].repeat(longest, axis=0)
    entry_value = np.zeros(entry_column.shape, dtype=np.float64)
    # through the transposed mask, row after row, each in its own order
    entry_column.T[filled] = np.concatenate([packed.indices for packed in packs])
    entry_value.T[filled] = np.concatenate([packed.data for packed in packs])
    last = np.maximum(lengths - 1, 0).astype(np.min_scalar_type(longest))
    del packs, filled

    # Problems longest first (a stable sort), each with its weight segment
    # and, step by step, its sample's row and label.
    trained.sort(key=lambda problem: -len(problem[2]))
    steps = [epochs * len(vectors) for _, _, vectors, _ in trained]
    segment = np.array([len(column_of[g]) + 1 for g, *_ in trained])
    offsets = np.cumsum(segment) - segment
    sample_row = np.zeros(
        (steps[0], len(trained)), dtype=np.min_scalar_type(len(row_vector))
    )
    sample_label = np.zeros(sample_row.shape, dtype=np.float64)
    begin = 0
    for n, members in itertools.groupby(trained, key=lambda problem: len(problem[2])):
        members = list(members)
        rng = np.random.default_rng(seed)
        order = np.concatenate([rng.permutation(n) for _ in range(epochs)])
        end = begin + len(members)
        member_rows = [
            [row_of[g, id(vector)] for vector in vectors] for g, _, vectors, _ in members
        ]
        sample_row[:len(order), begin:end] = np.array(member_rows).T[order]
        member_labels = [labels for _, _, _, labels in members]
        sample_label[:len(order), begin:end] = np.array(member_labels).T[order]
        begin = end
    # how many problems each step trains, and where in its prefix sums
    # each one's <w, x> ends (flat, row-major)
    live_at = (np.array(steps)[:, None] > np.arange(steps[0])).sum(axis=0)
    sample_end = last[sample_row] * live_at[:, None] + np.arange(len(trained))

    weights = np.zeros(int(segment.sum()), dtype=np.float64)
    bias = np.zeros(len(trained), dtype=np.float64)
    inside_at: List[np.ndarray] = []  # step -> the problems it updated
    scales: List[float] = []  # step -> the lazy scale after it
    scale = 1.0  # true w = scale * weights
    for step, live in enumerate(live_at.tolist()):
        eta = 1.0 / (lambda_reg * (step + 1))
        y = sample_label[step, :live]
        rows = sample_row[step, :live]
        columns = entry_column.take(rows, axis=1)
        columns += offsets[:live]
        values = entry_value.take(rows, axis=1)
        # margin = y * (scale * <weights, x> + bias), each dot a prefix sum
        # down its column: strictly left to right in x's own order
        terms = weights.take(columns)
        terms *= values
        wx = np.add.accumulate(terms, axis=0).take(sample_end[step, :live])
        margin = y * (scale * wx + bias[:live])
        # Regularization shrink: w *= (1 - eta * lambda)
        scale *= max(1e-12, 1.0 - eta * lambda_reg)
        scales.append(scale)
        inside = (margin < 1.0).nonzero()[0]
        inside_at.append(inside)
        if len(inside) < live:
            y, columns, values = y[inside], columns[:, inside], values[:, inside]
        eta_y = eta * y
        # w += (eta * y / scale) * x  (lazy-scaled update)
        values *= eta_y / scale
        weights[columns] += values
        bias[inside] += eta_y * 0.1  # unregularized, damped bias update

    # Emission: a problem's samples by the first step that updated them,
    # each one's features in its own order, a feature where it first
    # appears — the insertion order of the dict the scalar steps fill.
    updated = np.concatenate(inside_at)
    updated_row = sample_row[
        np.repeat(np.arange(len(inside_at)), [len(inside) for inside in inside_at]),
        updated,
    ].astype(np.intp)
    _, first = np.unique(updated * len(row_vector) + updated_row, return_index=True)
    first.sort()  # step order
    first = first[np.argsort(updated[first], kind="stable")]
    first_rows = updated_row[first].tolist()
    ends = np.cumsum(np.bincount(updated[first], minlength=len(trained))).tolist()
    for (g, position, _, _), offset, begin, end, steps_taken, b in zip(
        trained, offsets.tolist(), [0] + ends, ends, steps, bias.tolist()
    ):
        features = dict.fromkeys(itertools.chain.from_iterable(
            [row_vector[row] for row in first_rows[begin:end]]
        ))
        columns = [column_of[g][feature] for feature in features]
        values = scales[steps_taken - 1] * weights[offset:].take(columns)
        models[g][position] = LinearSVMModel(
            weights=SparseVector.from_items(features, values.tolist()), bias=b
        )
    return models


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
        _check_settings(lambda_reg, epochs)
        self.lambda_reg = lambda_reg
        self.epochs = epochs
        self.seed = seed
        self._model: Optional[LinearSVMModel] = None

    def fit(
        self,
        vectors: Sequence[SparseVector],
        labels: Sequence[int],
    ) -> "LinearSVM":
        """Train on ``vectors`` with labels in {-1, +1}: the one-problem
        case of :meth:`fit_block`."""
        [[self._model]] = self.fit_block([[(vectors, labels)]])
        return self

    def fit_block(
        self, groups: Sequence[Sequence[Problem]]
    ) -> List[List[LinearSVMModel]]:
        """One model per problem of ``groups``, nested alike, trained with
        these settings by :func:`pegasos_block`; ``model`` is left as it is."""
        return pegasos_block(
            groups, lambda_reg=self.lambda_reg, epochs=self.epochs, seed=self.seed
        )

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
