"""Kernels over sparse vectors, in array form.

CEMPaR's cascade uses a non-linear SVM; the kernels here operate directly on
:class:`~repro.ml.sparse.SparseVector` blocks so no densification of the
(large, hashed) feature space is ever required.  The scalar kernels, one
pair of vectors at a time (``kernel_by_name``), are the test oracles in
``tests/reference/ml_scalar.py``.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from repro.ml.sparse import SparseVector, pack_rows

#: the kernels ``kernel_from_dots`` and ``gram_matrix`` compute
KERNEL_NAMES = ("linear", "rbf", "poly")


def kernel_from_dots(
    name: str, dots: np.ndarray, squared_norms: np.ndarray,
    query_squared_norm, gamma: float = 0.5,
) -> np.ndarray:
    """Array form of ``kernel_by_name(name, gamma)``: ``k(a_i, x)`` for every
    row ``a_i`` of a block, given ``dots[i] = <a_i, x>``, ``squared_norms[i]
    = |a_i|^2`` and ``|x|^2``, term by term in the scalar kernels' order.
    For many queries at once, ``dots[q, i]`` and a column of ``|x_q|^2``."""
    if name == "linear":
        return dots
    if name == "rbf":
        return np.exp(-gamma * (squared_norms - 2.0 * dots + query_squared_norm))
    if name == "poly":
        return (dots + 1.0) ** 2  # kernel_by_name's default degree and coef0
    raise ValueError(f"unknown kernel {name!r}; expected linear/rbf/poly")


class PairDots:
    """Every pairwise dot product of a set of vectors, summed once: the table
    a block of kernel problems over shared documents takes its Grams from
    (a peer's per-tag problems, a cascade's training set and its scoring).

    Vectors are told apart by identity, so one given twice takes one row.
    ``by_row[i, j]`` is ``<x_i, x_j>`` summed left to right in ``x_j``'s own
    order, for every ``i`` and ``j``: one scatter-gather-``bincount`` pass
    per row of the packed block (``bincount`` adds in input order; a feature
    ``x_i`` lacks adds an exact zero), so an entry has the same bits
    whatever else the table holds.
    """

    def __init__(self, vectors: Sequence[SparseVector]) -> None:
        by_id = {id(vector): vector for vector in vectors}
        self._row_of = dict(zip(by_id, itertools.count()))
        self.vectors = list(by_id.values())  # keeps each id taken
        n = len(self.vectors)
        columns, indices, data, rows, self.lengths = pack_rows(self.vectors)
        self.by_row = np.empty((n, n), dtype=np.float64)
        dense = np.zeros(len(columns), dtype=np.float64)
        stop = 0
        for i, length in enumerate(self.lengths.tolist()):
            start, stop = stop, stop + length
            own = indices[start:stop]
            dense[own] = data[start:stop]
            self.by_row[i] = np.bincount(rows, weights=data * dense[indices], minlength=n)
            dense[own] = 0.0

    def rows(self, vectors: Sequence[SparseVector]) -> np.ndarray:
        """The table's row of each of ``vectors``, which it must hold."""
        row_of = self._row_of
        return np.array([row_of[id(vector)] for vector in vectors], dtype=np.intp)


def gram_matrix(
    vectors: Sequence[SparseVector], name: str, gamma: float,
    table: Optional[PairDots] = None,
) -> np.ndarray:
    """Symmetric Gram matrix ``K[i, j] = kernel_by_name(name, gamma)(x_i, x_j)``,
    bit for bit what the scalar kernel returns for ``i <= j``, read from
    ``table`` (which must hold every vector; one is built when none is
    given).

    ``SparseVector.dot`` iterates the operand with fewer entries, the first
    on a tie, so each pair takes the table entry summed in that order.
    """
    if table is None:
        table = PairDots(vectors)
    at = table.rows(vectors)
    n = len(at)
    by_row = table.by_row[np.ix_(at, at)]
    lengths = table.lengths[at]
    upper = np.triu_indices(n)
    values = np.where(lengths[:, None] > lengths[None, :], by_row, by_row.T)[upper]
    # The non-linear step goes through Python floats per element: ``np.exp``
    # and numpy's ``** 2`` are not bound to round like ``math.exp`` and
    # ``float ** 2``, and the Gram feeds SMO's threshold tests.
    if name == "rbf":
        norms = np.array([v.squared_norm() for v in vectors], dtype=np.float64)
        distances = norms[upper[0]] - 2.0 * values + norms[upper[1]]
        values = [math.exp(d) for d in (-gamma * distances).tolist()]
    elif name == "poly":
        values = [d ** 2 for d in (values + 1.0).tolist()]
    elif name != "linear":
        raise ValueError(f"unknown kernel {name!r}; expected linear/rbf/poly")
    gram = np.empty((n, n), dtype=np.float64)
    gram[upper] = values
    gram.T[upper] = values
    return gram
