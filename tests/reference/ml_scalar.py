"""The scalar inner loops of ``repro.ml``: oracles for the cached norm, the
packed support-vector ``decision`` and the shared-table LSH ``signature``.

Nothing here reads a cache: norms are re-summed on every call and
hyperplane components are re-drawn per feature id, so these are the loops
the array forms replaced, one Python operation at a time.
"""

import math

import numpy as np

from repro.ml.kernel_svm import KernelSVMModel
from repro.ml.kernels import kernel_by_name
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.sparse import SparseVector


def squared_norm(vector):
    return sum(value * value for value in vector.values())


def kernel(name, gamma):
    """``kernel_by_name`` over re-summed norms (for the Gram oracle; under
    ``install_scalar_ml`` every norm is re-summed anyway)."""
    if name == "linear":
        return lambda a, b: a.dot(b)
    if name == "rbf":
        return lambda a, b: math.exp(
            -gamma * (squared_norm(a) - 2.0 * a.dot(b) + squared_norm(b))
        )
    if name == "poly":
        return lambda a, b: (a.dot(b) + 1.0) ** 2
    raise ValueError(name)


def gram_matrix(vectors, name, gamma):
    k = kernel(name, gamma)
    n = len(vectors)
    gram = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = k(vectors[i], vectors[j])
    return gram


def decision(model, x):
    k = kernel_by_name(model.kernel_name, gamma=model.gamma)
    return (
        sum(sv.alpha * sv.label * k(sv.vector, x) for sv in model.support_vectors)
        + model.bias
    )


def signature(lsh, vector):
    projection = np.zeros(lsh.num_bits, dtype=np.float64)
    for feature_id, value in vector.items():
        rng = np.random.default_rng((lsh.seed << 32) ^ feature_id)
        projection += value * rng.standard_normal(lsh.num_bits)
    bits = 0
    for bit_index in range(lsh.num_bits):
        if projection[bit_index] >= 0:
            bits |= 1 << bit_index
    return bits


def install_scalar_ml(monkeypatch) -> None:
    """Swap the three array forms for their oracles until ``monkeypatch``
    is undone.  Class-level, unlike the other ``install_*``: models and
    indexes are created deep inside ``train()``, so there is no single
    instance to patch."""
    monkeypatch.setattr(SparseVector, "squared_norm", squared_norm)
    monkeypatch.setattr(KernelSVMModel, "decision", decision)
    monkeypatch.setattr(RandomHyperplaneLSH, "signature", signature)
