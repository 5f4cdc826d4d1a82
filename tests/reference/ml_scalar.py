"""The scalar inner loops of ``repro.ml``: oracles for the cached norm, the
packed support-vector ``decision``, the shared-table LSH ``signature``, the
array Gram matrix, the SMO sweep, the Pegasos steps, PACE's hash-once
bundle store, PACE's block prediction and CEMPaR's (one model at a time,
``packed_decision`` being the bit-exact form of one model alone).

Nothing here reads a cache: norms are re-summed on every call and
hyperplane components are re-drawn per feature id, so these are the loops
the array forms replaced, one Python operation at a time.  The training
loops (``squared_norm``, ``dot``, ``gram_matrix``, ``smo_fit``,
``pegasos_fit``) and PACE's ``predict_scores`` accumulate with an explicit
``total += term``, never ``sum()``: CPython >= 3.12 compensates ``sum()``
over floats, and the contract of the array kernels is the plain
left-to-right sum on every interpreter.
"""

import functools
import math

import numpy as np

from repro.ml.kernel_svm import KernelSVM, KernelSVMModel, SupportVector
from repro.ml.kernels import kernel_by_name, kernel_from_dots
from repro.ml.linear_svm import LinearSVM, LinearSVMModel
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.sparse import SparseVector, pack_rows
from repro.p2pclass.cempar import _PredictionBlock
from repro.p2pclass.pace import PaceClassifier
from repro.p2pclass.voting import weighted_score


def squared_norm(vector):
    total = 0
    for value in vector.values():
        total += value * value
    return total


def dot(a, b):
    """``SparseVector.dot``'s operand rule (iterate the one with fewer
    entries, the first on a tie), summed left to right."""
    if len(a) > len(b):
        a, b = b, a
    total = 0.0
    for key, value in a.items():
        if key in b:
            total += value * b[key]
    return total


def kernel(name, gamma):
    """``kernel_by_name`` over re-summed norms and the explicit ``dot``."""
    if name == "linear":
        return dot
    if name == "rbf":
        return lambda a, b: math.exp(
            -gamma * (squared_norm(a) - 2.0 * dot(a, b) + squared_norm(b))
        )
    if name == "poly":
        return lambda a, b: (dot(a, b) + 1.0) ** 2
    raise ValueError(name)


def gram_matrix(vectors, name, gamma):
    k = kernel(name, gamma)
    n = len(vectors)
    gram = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = k(vectors[i], vectors[j])
    return gram


def smo_fit(svm, vectors, labels):
    """``KernelSVM.fit``'s two-class body as it was before the array SMO:
    numpy ``alphas``/``y``, ``alphas * y`` rebuilt for every error, nothing
    reused.  Returns the fitted model and the generator, so a caller can
    check how many draws the sweep consumed."""
    C, tol = svm.C, svm.tol
    n = len(vectors)
    y = np.asarray(labels, dtype=np.float64)
    K = gram_matrix(list(vectors), svm.kernel_name, svm.gamma)
    alphas = np.zeros(n, dtype=np.float64)
    bias = 0.0
    rng = np.random.default_rng(svm.seed)

    passes = 0
    iterations = 0
    while passes < svm.max_passes and iterations < svm.max_iterations:
        iterations += 1
        changed = 0
        for i in range(n):
            error_i = float(np.dot(alphas * y, K[i]) + bias - y[i])
            if (y[i] * error_i < -tol and alphas[i] < C) or (
                y[i] * error_i > tol and alphas[i] > 0
            ):
                j = int(rng.integers(0, n - 1))
                if j >= i:
                    j += 1
                error_j = float(np.dot(alphas * y, K[j]) + bias - y[j])
                alpha_i_old, alpha_j_old = alphas[i], alphas[j]
                if y[i] != y[j]:
                    low = max(0.0, alphas[j] - alphas[i])
                    high = min(C, C + alphas[j] - alphas[i])
                else:
                    low = max(0.0, alphas[i] + alphas[j] - C)
                    high = min(C, alphas[i] + alphas[j])
                if low >= high:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                alphas[j] -= y[j] * (error_i - error_j) / eta
                alphas[j] = min(high, max(low, alphas[j]))
                if abs(alphas[j] - alpha_j_old) < 1e-7:
                    continue
                alphas[i] += y[i] * y[j] * (alpha_j_old - alphas[j])
                b1 = (
                    bias
                    - error_i
                    - y[i] * (alphas[i] - alpha_i_old) * K[i, i]
                    - y[j] * (alphas[j] - alpha_j_old) * K[i, j]
                )
                b2 = (
                    bias
                    - error_j
                    - y[i] * (alphas[i] - alpha_i_old) * K[i, j]
                    - y[j] * (alphas[j] - alpha_j_old) * K[j, j]
                )
                if 0 < alphas[i] < C:
                    bias = b1
                elif 0 < alphas[j] < C:
                    bias = b2
                else:
                    bias = (b1 + b2) / 2.0
                changed += 1
        if changed == 0:
            passes += 1
        else:
            passes = 0

    support = [
        SupportVector(vector=vectors[i], label=int(y[i]), alpha=float(alphas[i]))
        for i in range(n)
        if alphas[i] > 1e-8
    ]
    model = KernelSVMModel(
        support_vectors=support, bias=float(bias), gamma=svm.gamma,
        kernel_name=svm.kernel_name,
    )
    return model, rng


def pegasos_fit(svm, vectors, labels):
    """``LinearSVM.fit``'s two-class body as it was before the array
    Pegasos: a dict of weights, filled in the order steps first touch a
    feature."""
    rng = np.random.default_rng(svm.seed)
    n = len(vectors)
    weights = {}
    scale = 1.0
    bias = 0.0
    t = 0
    for _ in range(svm.epochs):
        order = rng.permutation(n)
        for index in order:
            t += 1
            eta = 1.0 / (svm.lambda_reg * t)
            x = vectors[index]
            y = labels[index]
            wx = 0.0
            for fid, value in x.items():
                wx += value * weights.get(fid, 0.0)
            margin = y * (scale * wx + bias)
            scale *= max(1e-12, 1.0 - eta * svm.lambda_reg)
            if margin < 1.0:
                factor = eta * y / scale
                for fid, value in x.items():
                    weights[fid] = weights.get(fid, 0.0) + factor * value
                bias += eta * y * 0.1
    final = {fid: scale * value for fid, value in weights.items() if scale * value}
    return LinearSVMModel(weights=SparseVector(final), bias=bias)


def decision(model, x):
    k = kernel_by_name(model.kernel_name, gamma=model.gamma)
    return (
        sum(sv.alpha * sv.label * k(sv.vector, x) for sv in model.support_vectors)
        + model.bias
    )


def packed_decision(model, x):
    """One model's ``decision`` as it was before models shared a block: its
    own pack, *every* stored entry multiplied (a feature ``x`` lacks as a
    term of ``+-0.0``) and added by ``bincount`` row after row, the kernel
    over its own support vectors only, one BLAS dot over all of them.  The
    block must give these bits for every model it holds."""
    vectors = [sv.vector for sv in model.support_vectors]
    columns, indices, data, rows, _ = pack_rows(vectors)
    coef = np.array([sv.alpha * sv.label for sv in model.support_vectors], float)
    norms = np.array([squared_norm(v) for v in vectors], float)
    dense = np.zeros(len(columns), dtype=np.float64)
    for feature_id, value in x.items():
        if feature_id in columns:
            dense[columns[feature_id]] = value
    dots = np.bincount(rows, weights=data * dense[indices], minlength=len(coef))
    values = kernel_from_dots(
        model.kernel_name, dots, norms, squared_norm(x), gamma=model.gamma
    )
    return float(coef @ values) + model.bias


def regional_probabilities(block, vector):
    """CEMPaR's ``_PredictionBlock.probabilities`` as it was before the
    block: one ``CascadeModel.probability`` per regional model."""
    return {
        key: model.probability(vector) for key, model in zip(block.keys, block.models)
    }


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


def store_bundle(classifier, receiver, bundle, keys):
    """``PaceClassifier._store_bundle`` as it was before bundles were hashed
    once per broadcast: the handed-in ``keys`` are ignored and every
    receiver's index hashes every centroid itself."""
    index = classifier._index_of(receiver)
    store = classifier._received[receiver]
    if bundle.origin in store:
        return
    store[bundle.origin] = bundle
    for centroid in bundle.centroids:
        index.insert(centroid, bundle.origin)


def install_per_receiver_hashing(classifier) -> None:
    """Make ONE PACE classifier store bundles the per-receiver way."""
    classifier._store_bundle = functools.partial(store_bundle, classifier)


def probability(bundle, tag, decision):
    """Calibrated P(tag | decision) from the bundle's shipped Platt
    parameters, one document and one model at a time."""
    a, b = bundle.calibration.get(tag, (-2.0, 0.0))
    z = a * decision + b
    if z >= 0:
        ez = np.exp(-min(z, 500.0))
        return float(ez / (1.0 + ez))
    return float(1.0 / (1.0 + np.exp(max(z, -500.0))))


def predict_scores(classifier, origin, vector):
    """``PaceClassifier.predict_scores`` as it was before the prediction
    block: ``index.query`` ranks the probe with one ``distance`` per
    candidate, then one ``decision`` and one sigmoid per model, voted
    through ``weighted_score``."""
    classifier._require_trained()
    index = classifier._indexes.get(origin)
    store = classifier._received.get(origin, {})
    if index is None or len(index) == 0:
        return {tag: 0.0 for tag in classifier.tags}
    nearest = index.query(vector, top_k=classifier.config.top_k)
    votes = {t: [] for t in classifier.tags}
    seen_origins = set()
    for distance, bundle_origin in nearest:
        if bundle_origin in seen_origins:
            continue  # a bundle may match via several centroids
        seen_origins.add(bundle_origin)
        bundle = store.get(bundle_origin)
        if bundle is None:
            continue
        proximity = 1.0 / (classifier.config.distance_smoothing + distance)
        for tag, model in bundle.models.items():
            p = probability(bundle, tag, model.decision(vector))
            weight = bundle.accuracies.get(tag, 0.5) * proximity
            votes[tag].append((p, weight))
    return {tag: weighted_score(votes[tag]) for tag in classifier.tags}


def _fit_with(loop, array_fit):
    """A ``fit`` that runs ``loop`` for a well-formed two-class problem and
    leaves validation and the one-class constant model to ``array_fit``."""

    def fit(self, vectors, labels):
        if len(vectors) != len(labels) or set(labels) != {-1, 1}:
            return array_fit(self, vectors, labels)
        self._model = loop(self, vectors, labels)
        return self

    return fit


def install_scalar_ml(monkeypatch) -> None:
    """Swap the array forms for their oracles until ``monkeypatch`` is
    undone.  Class-level, unlike the other ``install_*``: models and
    indexes are created deep inside ``train()``, so there is no single
    instance to patch."""
    monkeypatch.setattr(SparseVector, "squared_norm", squared_norm)
    monkeypatch.setattr(KernelSVMModel, "decision", decision)
    monkeypatch.setattr(RandomHyperplaneLSH, "signature", signature)
    monkeypatch.setattr(KernelSVM, "fit", _fit_with(
        lambda *problem: smo_fit(*problem)[0], KernelSVM.fit
    ))
    monkeypatch.setattr(LinearSVM, "fit", _fit_with(pegasos_fit, LinearSVM.fit))
    monkeypatch.setattr(PaceClassifier, "_store_bundle", store_bundle)
    monkeypatch.setattr(PaceClassifier, "predict_scores", predict_scores)
    monkeypatch.setattr(_PredictionBlock, "probabilities", regional_probabilities)
