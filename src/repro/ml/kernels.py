"""Kernel functions over sparse vectors.

CEMPaR's cascade uses a non-linear SVM; the kernels here operate directly on
:class:`~repro.ml.sparse.SparseVector` so no densification of the (large,
hashed) feature space is ever required.
"""

from __future__ import annotations

import math
from typing import Callable, List

import numpy as np

from repro.ml.sparse import SparseVector

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


def gram_matrix(vectors: List[SparseVector], kernel: Kernel) -> np.ndarray:
    """Symmetric Gram matrix K[i, j] = kernel(x_i, x_j)."""
    n = len(vectors)
    gram = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            value = kernel(vectors[i], vectors[j])
            gram[i, j] = value
            gram[j, i] = value
    return gram
