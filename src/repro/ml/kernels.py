"""Kernel functions over sparse vectors.

CEMPaR's cascade uses a non-linear SVM; the kernels here operate directly on
:class:`~repro.ml.sparse.SparseVector` so no densification of the (large,
hashed) feature space is ever required.
"""

from __future__ import annotations

import math
from typing import Callable, List

import numpy as np

from repro.ml.sparse import SparseVector, pack_rows

Kernel = Callable[[SparseVector, SparseVector], float]


def linear_kernel(a: SparseVector, b: SparseVector) -> float:
    """Plain dot product ``<a, b>``."""
    return a.dot(b)


def rbf_kernel(a: SparseVector, b: SparseVector, gamma: float = 0.5) -> float:
    """Gaussian RBF kernel ``exp(-gamma * ||a - b||^2)``."""
    return math.exp(-gamma * a.distance_squared(b))


def make_rbf(gamma: float) -> Kernel:
    """Return an RBF kernel closure with fixed ``gamma``."""

    def kernel(a: SparseVector, b: SparseVector) -> float:
        return math.exp(-gamma * a.distance_squared(b))

    return kernel


def polynomial_kernel(
    a: SparseVector, b: SparseVector, degree: int = 2, coef0: float = 1.0
) -> float:
    """Polynomial kernel ``(<a, b> + coef0)^degree``."""
    return (a.dot(b) + coef0) ** degree


def make_polynomial(degree: int, coef0: float = 1.0) -> Kernel:
    """Return a polynomial kernel closure."""

    def kernel(a: SparseVector, b: SparseVector) -> float:
        return (a.dot(b) + coef0) ** degree

    return kernel


def kernel_by_name(name: str, gamma: float = 0.5, degree: int = 2) -> Kernel:
    """Resolve a kernel from a configuration string."""
    if name == "linear":
        return linear_kernel
    if name == "rbf":
        return make_rbf(gamma)
    if name == "poly":
        return make_polynomial(degree)
    raise ValueError(f"unknown kernel {name!r}; expected linear/rbf/poly")


def kernel_from_dots(
    name: str, dots: np.ndarray, squared_norms: np.ndarray,
    query_squared_norm: float, gamma: float = 0.5,
) -> np.ndarray:
    """Array form of ``kernel_by_name(name, gamma)``: ``k(a_i, x)`` for every
    row ``a_i`` of a block, given ``dots[i] = <a_i, x>``, ``squared_norms[i]
    = |a_i|^2`` and ``|x|^2``, term by term in the scalar kernels' order."""
    if name == "linear":
        return dots
    if name == "rbf":
        return np.exp(-gamma * (squared_norms - 2.0 * dots + query_squared_norm))
    if name == "poly":
        return (dots + 1.0) ** 2  # kernel_by_name's default degree and coef0
    raise ValueError(f"unknown kernel {name!r}; expected linear/rbf/poly")


def gram_matrix(vectors: List[SparseVector], name: str, gamma: float) -> np.ndarray:
    """Symmetric Gram matrix ``K[i, j] = kernel_by_name(name, gamma)(x_i, x_j)``,
    bit for bit what the scalar kernel returns for ``i <= j``.

    One scatter-gather-``bincount`` pass per row of the packed block: pass
    ``i`` yields ``<x_i, x_j>`` for every ``j``, summed left to right in
    ``x_j``'s own order (``bincount`` adds in input order; a feature ``x_i``
    lacks adds an exact zero).  ``SparseVector.dot`` iterates the operand
    with fewer entries, the first on a tie, so each pair takes the entry
    that was summed in that order.
    """
    n = len(vectors)
    columns, indices, data, rows, lengths = pack_rows(vectors)
    by_row = np.empty((n, n), dtype=np.float64)
    dense = np.zeros(len(columns), dtype=np.float64)
    stop = 0
    for i, length in enumerate(lengths.tolist()):
        start, stop = stop, stop + length
        own = indices[start:stop]
        dense[own] = data[start:stop]
        by_row[i] = np.bincount(rows, weights=data * dense[indices], minlength=n)
        dense[own] = 0.0
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
