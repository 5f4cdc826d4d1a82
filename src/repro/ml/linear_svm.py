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
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.constraints import (
    at_least, check_value, finite, in_range, integer, positive,
)
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

    def truncated(self, max_features: int) -> "LinearSVMModel":
        """Keep only the ``max_features`` largest-|w| entries."""
        check_value("max_features", max_features, integer, at_least(1))
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


#: Pegasos holds every step's sample, ``epochs x documents`` rows per
#: problem, so an epoch count is bounded like a buffer size
MAX_EPOCHS = 1000


def _check_settings(lambda_reg: float, epochs: int) -> None:
    check_value("lambda_reg", lambda_reg, finite, positive)
    check_value("epochs", epochs, integer, in_range(1, MAX_EPOCHS))


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


#: one model and its decisions on its own training vectors, in their order
Fitted = Tuple[LinearSVMModel, List[float]]

#: entries one chunk of emission or of the margin gather walks: every
#: temporary of a chunk stays near 128 KiB
_CHUNK_CELLS = 1 << 14


def pegasos_block(
    groups: Sequence[Sequence[Problem]],
    *,
    lambda_reg: float,
    epochs: int,
    seed: int,
) -> List[List[Fitted]]:
    """Pegasos on every problem of ``groups`` in lockstep: one numpy step
    advances every problem still training.

    The problems of a group share one column space (a peer's per-tag
    problems over its own documents): its vectors are packed once, and each
    of its problems owns a weight segment of that width plus one scratch
    slot.  Returns ``(model, margins)`` per problem, nested as ``groups``:
    each model bit-identical to the problem trained alone — bias, and
    weights in emission order — and its margins ``model.decision(v)`` for
    each of the problem's vectors, bit for bit.  Degenerate one-class
    problems get a constant classifier (bias at the class sign) rather than
    an error: peers with few tagged documents routinely hit this case.

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
    ``truncated``'s stable sort and ``weights.dot`` both read.  The margins
    are the same gather over the final weights, where ``dot`` walks the
    vector: a vector at least as long as the weights is walked by them, and
    takes the scalar ``dot``.
    """
    _check_settings(lambda_reg, epochs)
    models: List[List[LinearSVMModel]] = []
    decisions: List[List[List[float]]] = []
    trained = []  # (group, position, vectors, labels) of two-class problems
    for g, group in enumerate(groups):
        models.append([])
        decisions.append([])
        for vectors, labels in group:
            only = _one_class(vectors, labels)
            if only is None:  # trained below, in this model's place
                trained.append((g, len(models[g]), vectors, labels))
                only = 0
            models[g].append(LinearSVMModel(weights=SparseVector(), bias=float(only)))
            # ``dot`` of no weights is the int 0, so the decision is the bias
            decisions[g].append([float(only)] * len(vectors))
    if trained:
        _train(trained, models, decisions, lambda_reg, epochs, seed)
    return [list(zip(fitted, margins)) for fitted, margins in zip(models, decisions)]


def _train(trained, models, decisions, lambda_reg: float, epochs: int, seed: int) -> None:
    """:func:`pegasos_block`'s two-class ``trained`` problems, each
    ``(group, position, vectors, labels)``: their models and margins put in
    their places of ``models`` and ``decisions``."""
    # Each group's distinct vectors (by identity) packed once, and every
    # row as a column padded to the longest: padding points at the group's
    # width, a segment's scratch slot, and holds 0.0.
    distinct: Dict[int, Dict[int, SparseVector]] = {}  # group -> id -> vector
    for g, _, vectors, _ in trained:
        known = distinct.setdefault(g, {})
        for vector in vectors:
            known.setdefault(id(vector), vector)
    row_of: Dict[Tuple[int, int], int] = {}  # (group, id(vector)) -> row
    width_of: Dict[int, int] = {}  # group -> its column count
    feature_of: Dict[int, List[int]] = {}  # group -> column -> feature id
    packs = []
    for g, known in distinct.items():
        row_of.update(zip([(g, key) for key in known], itertools.count(len(row_of))))
        packs.append(pack_rows(list(known.values())))
        # the documents' own id objects, in column order
        feature_of[g] = list(packs[-1].columns)
        width_of[g] = len(feature_of[g])
    lengths = np.concatenate([packed.lengths for packed in packs])
    longest = max(1, int(lengths.max()))
    filled = (np.arange(longest)[:, None] < lengths).T
    entry_column = np.repeat(
        list(width_of.values()), [len(known) for known in distinct.values()]
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
    problem_rows = [
        [row_of[g, id(vector)] for vector in vectors] for g, _, vectors, _ in trained
    ]
    steps = [epochs * len(vectors) for _, _, vectors, _ in trained]
    segment = np.array([width_of[g] + 1 for g, *_ in trained])
    offsets = np.cumsum(segment) - segment
    sample_row = np.zeros((steps[0], len(trained)), dtype=np.min_scalar_type(len(row_of)))
    sample_label = np.zeros(sample_row.shape, dtype=np.float64)
    begin = 0
    for n, members in itertools.groupby(trained, key=lambda problem: len(problem[2])):
        members = list(members)
        rng = np.random.default_rng(seed)
        order = np.concatenate([rng.permutation(n) for _ in range(epochs)])
        end = begin + len(members)
        sample_row[:len(order), begin:end] = np.array(problem_rows[begin:end]).T[order]
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
    _, first = np.unique(updated * len(row_of) + updated_row, return_index=True)
    first.sort()  # step order
    first = first[np.argsort(updated[first], kind="stable")]
    first_row = updated_row.take(first)
    first_problem = updated.take(first)
    del sample_row, sample_label, sample_end, updated, updated_row, first
    # true w = the scale after a problem's last step, times its weights
    # (scaled in place: a weight no step updated is 0.0 either way)
    final_scale = np.array(scales).take(np.array(steps) - 1)
    width = int(segment.max())
    fitted: List[LinearSVMModel] = []
    bounds = np.searchsorted(first_problem, np.arange(len(trained) + 1)).tolist()
    for p0, p1 in _chunks(np.bincount(first_problem, lengths.take(first_row), len(trained))):
        # every entry of their samples, walked in that order, and the first
        # appearance of each (problem, column) among them
        rows = first_row[bounds[p0]:bounds[p1]]
        counts = lengths.take(rows)
        ends = np.cumsum(counts)
        place = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
        walked = entry_column[place, np.repeat(rows, counts)]
        walker = np.repeat(first_problem[bounds[p0]:bounds[p1]], counts)
        _, emitted = np.unique(walker * width + walked, return_index=True)
        emitted.sort()
        walker, walked = walker.take(emitted), walked.take(emitted)
        at = offsets.take(walker) + walked
        weights[at] = final_scale.take(walker) * weights.take(at)
        ids, values = walked.tolist(), weights.take(at).tolist()
        ends = np.cumsum(np.bincount(walker - p0, minlength=p1 - p0)).tolist()
        for (g, position, _, _), begin, end, b in zip(
            trained[p0:p1], [0] + ends, ends, bias[p0:p1].tolist()
        ):
            model = LinearSVMModel(
                weights=SparseVector.from_items(
                    map(feature_of[g].__getitem__, ids[begin:end]), values[begin:end]
                ),
                bias=b,
            )
            models[g][position] = model
            fitted.append(model)

    # Margins: the final weights gathered down the padded columns like a
    # step's <w, x>, a chunk of vectors at a time.
    pair_problem = np.repeat(np.arange(len(trained)), [len(rows) for rows in problem_rows])
    pair_row = np.array(list(itertools.chain.from_iterable(problem_rows)), dtype=np.intp)
    margins = np.empty(len(pair_row), dtype=np.float64)
    chunk = max(1, _CHUNK_CELLS // longest)
    for begin in range(0, len(pair_row), chunk):
        rows = pair_row[begin:begin + chunk]
        problems = pair_problem[begin:begin + chunk]
        columns = entry_column.take(rows, axis=1)
        columns += offsets.take(problems)
        terms = weights.take(columns)
        terms *= entry_value.take(rows, axis=1)
        terms[0] += 0.0  # from +0.0, as the scalar sum starts from the int 0
        dots = np.add.accumulate(terms, axis=0)[last.take(rows), np.arange(len(rows))]
        margins[begin:begin + chunk] = dots + bias.take(problems)
    own = iter(margins.tolist())
    for (g, position, vectors, _), model in zip(trained, fitted):
        nnz = len(model.weights)
        decisions[g][position] = [
            model.decision(vector) if len(vector) >= nnz else margin
            for vector, margin in zip(vectors, own)
        ]


def _chunks(cells: np.ndarray) -> Iterator[Tuple[int, int]]:
    """``[begin, end)`` ranges over ``cells`` (cells per item), each as
    many items as fit in :data:`_CHUNK_CELLS` cells, and at least one."""
    ends = np.cumsum(cells)
    begin = 0
    while begin < len(cells):
        budget = (ends[begin - 1] if begin else 0) + _CHUNK_CELLS
        end = max(begin + 1, int(np.searchsorted(ends, budget, side="right")))
        yield begin, end
        begin = end


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
        [[(self._model, _)]] = self.fit_block([[(vectors, labels)]])
        return self

    def fit_block(self, groups: Sequence[Sequence[Problem]]) -> List[List[Fitted]]:
        """``(model, margins)`` per problem of ``groups``, nested alike,
        trained with these settings by :func:`pegasos_block`; ``model`` is
        left as it is."""
        return pegasos_block(
            groups, lambda_reg=self.lambda_reg, epochs=self.epochs, seed=self.seed
        )

    @property
    def model(self) -> LinearSVMModel:
        if self._model is None:
            raise NotTrainedError("LinearSVM has not been fitted")
        return self._model
