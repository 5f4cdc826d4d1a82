"""The scalar inner loops of ``repro.ml``: oracles for the array kernels
(``kernel_by_name`` and the kernel functions it resolves), the cached norm, the
packed support-vector ``decision``, the shared-table LSH ``signature``, the
array Gram matrix, the SMO sweep (one problem at a time where the array
block reads every Gram from one table of dot products, and one scalar
``decision`` per vector where a cascade scores its training set off that
table), the Pegasos steps (one problem at a time where the array kernel
trains a block in lockstep), k-means (one group at a time where the array
kernel clusters a block in lockstep), PACE's receivers
(one store and one index each, where the array form shares one index and
a membership table), PACE's block prediction and CEMPaR's (one model at a
time, ``packed_decision`` being the bit-exact form of one model alone).

Nothing here reads a cache: norms are re-summed on every call and
hyperplane components are re-drawn per feature id, so these are the loops
the array forms replaced, one Python operation at a time.  The training
loops (``squared_norm``, ``dot``, ``gram_matrix``, ``smo_fit``,
``pegasos_fit``, ``kmeans_fit``) and PACE's ``predict_scores`` accumulate
with an explicit ``total += term``, never ``sum()``: CPython >= 3.12
compensates ``sum()`` over floats, and the contract of the array kernels is
the plain left-to-right sum on every interpreter.
"""

import functools
import math
import weakref
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.kernel_svm import KernelSVM, KernelSVMModel, SupportVector
from repro.ml.kernels import kernel_from_dots
from repro.ml import kmeans, linear_svm
from repro.ml.linear_svm import LinearSVM, LinearSVMModel
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.sparse import SparseVector, pack_rows
from repro.p2pclass.cempar import _PredictionBlock
from repro.p2pclass.pace import PaceClassifier
from repro.p2pclass.pace import _PredictionBlock as _PaceBlock
from repro.p2pclass.voting import weighted_score


Kernel = Callable[[SparseVector, SparseVector], float]

_ARRAY_PEGASOS_BLOCK = linear_svm.pegasos_block
_ARRAY_FIT_BLOCK = KernelSVM.fit_block
_ARRAY_KMEANS_BLOCK = kmeans.kmeans_block


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
    feature.  ``svm`` supplies ``lambda_reg``, ``epochs`` and ``seed``."""
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


def pegasos_block(groups, *, lambda_reg, epochs, seed):
    """``linear_svm.pegasos_block`` one problem at a time: every two-class
    problem through ``pegasos_fit``, the rest (the refusals and the
    one-class constant model) through the array kernel alone, and every
    model's margins one scalar ``dot`` per training vector."""
    svm = LinearSVM(lambda_reg=lambda_reg, epochs=epochs, seed=seed)
    fitted = []
    for group in groups:
        fitted.append([])
        for vectors, labels in group:
            if len(vectors) != len(labels) or set(labels) != {-1, 1}:
                [[(model, _)]] = _ARRAY_PEGASOS_BLOCK(
                    [[(vectors, labels)]], lambda_reg=lambda_reg, epochs=epochs, seed=seed
                )
            else:
                model = pegasos_fit(svm, vectors, labels)
            margins = [dot(model.weights, x) + model.bias for x in vectors]
            fitted[-1].append((model, margins))
    return fitted


def mean_vector(vectors):
    """Sparse mean of a non-empty list of sparse vectors: keys in order of
    first appearance, each summed in member order from ``0.0``."""
    accumulator = {}
    for vector in vectors:
        for fid, value in vector.items():
            accumulator[fid] = accumulator.get(fid, 0.0) + value
    n = float(len(vectors))
    return SparseVector({fid: value / n for fid, value in accumulator.items()})


def distance_squared(a, b):
    """``a.distance_squared(b)`` over the re-summed norms and ``dot``."""
    return squared_norm(a) - 2.0 * dot(a, b) + squared_norm(b)


def kmeanspp_init(vectors, k, rng):
    """k-means++ seeding: spread initial centroids proportionally to D^2."""
    first = int(rng.integers(0, len(vectors)))
    centroids = [vectors[first]]
    while len(centroids) < k:
        distances = np.array(
            [min(distance_squared(v, c) for c in centroids) for v in vectors]
        )
        total = distances.sum()
        if total <= 0:
            # All points identical to some centroid; duplicate arbitrarily.
            centroids.append(vectors[int(rng.integers(0, len(vectors)))])
            continue
        probabilities = distances / total
        choice = int(rng.choice(len(vectors), p=probabilities))
        centroids.append(vectors[choice])
    return centroids


def kmeans_fit(vectors, k, max_iterations, seed):
    """``KMeans.fit`` as it was before the array k-means: one
    ``distance_squared`` and one dict mean at a time, its own
    ``default_rng(seed)``, and the inertia added left to right from the
    int 0 (it was a builtin ``sum``)."""
    if not vectors:
        raise ConfigurationError("cannot cluster an empty dataset")
    k = min(k, len(vectors))
    rng = np.random.default_rng(seed)
    centroids = kmeanspp_init(vectors, k, rng)

    assignments = [0] * len(vectors)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        moved = False
        for i, vector in enumerate(vectors):
            best = min(
                range(len(centroids)),
                key=lambda c: distance_squared(vector, centroids[c]),
            )
            if best != assignments[i]:
                assignments[i] = best
                moved = True
        new_centroids = []
        for c in range(len(centroids)):
            members = [v for v, a in zip(vectors, assignments) if a == c]
            if members:
                new_centroids.append(mean_vector(members))
            else:
                # Re-seed an empty cluster at the farthest point.
                far = max(
                    vectors,
                    key=lambda v: min(
                        distance_squared(v, existing) for existing in centroids
                    ),
                )
                new_centroids.append(far)
        converged = not moved and all(
            distance_squared(old, new) < 1e-12
            for old, new in zip(centroids, new_centroids)
        )
        centroids = new_centroids
        if converged:
            break

    inertia = 0
    for vector, assignment in zip(vectors, assignments):
        inertia += distance_squared(vector, centroids[assignment])
    return kmeans.KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        iterations=iterations,
    )


def kmeans_block(groups, *, k, max_iterations, seed):
    """``kmeans.kmeans_block`` one group at a time through ``kmeans_fit``,
    after the array kernel has checked the settings."""
    _ARRAY_KMEANS_BLOCK([], k=k, max_iterations=max_iterations, seed=seed)
    return [kmeans_fit(group, k, max_iterations, seed) for group in groups]


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


class PerReceiverStore:
    """PACE's receivers as they were before the shared index: one
    ``RandomHyperplaneLSH`` and one origin -> bundle dict per receiver, each
    bundle inserted into the index of every receiver it reaches, and the
    probe one receiver's index at a time."""

    def __init__(self, classifier, hash_each):
        self.num_bits = classifier.config.lsh_bits
        self.seed = classifier.config.lsh_seed
        self.hash_each = hash_each
        self.indexes = {}  # receiver -> its own index
        self.received = {}  # receiver -> origin -> bundle
        self.block = None

    def index_of(self, receiver):
        index = self.indexes.get(receiver)
        if index is None:
            index = RandomHyperplaneLSH(num_bits=self.num_bits, seed=self.seed)
            self.indexes[receiver] = index
            self.received[receiver] = {}
        return index

    def store(self, bundle, keys, receivers):
        """``PaceClassifier._store_bundle`` once per receiver; with
        ``hash_each`` the handed-in ``keys`` are ignored and every receiver's
        index hashes every centroid itself."""
        for receiver in receivers:
            index = self.index_of(receiver)
            store = self.received[receiver]
            if bundle.origin in store:
                continue  # duplicate delivery (flood redundancy)
            store[bundle.origin] = bundle
            for centroid, key in zip(bundle.centroids, keys):
                index.insert(centroid, bundle.origin, None if self.hash_each else key)
            self.block = None


def keys_at_hamming_distance(index, key, distance):
    """Occupied bucket keys of ``index`` exactly ``distance`` bit-flips from
    ``key``: flips enumerated up to 2, occupied buckets scanned beyond."""
    if distance == 0:
        yield key
        return
    if distance == 1:
        for bit in range(index.num_bits):
            yield key ^ (1 << bit)
        return
    if distance == 2:
        for first in range(index.num_bits):
            for second in range(first + 1, index.num_bits):
                yield key ^ (1 << first) ^ (1 << second)
        return
    for occupied in index._buckets:
        if bin(occupied ^ key).count("1") == distance:
            yield occupied


def candidates(index, vector, top_k):
    """``RandomHyperplaneLSH.candidates`` as it was before ``probe``: keys
    by Hamming distance, buckets beyond 2 flips in this index's own
    first-fill order, until ``top_k`` entries."""
    if len(index) == 0:
        return []
    query_key = index.signature(vector)
    found = []
    for distance in range(index.num_bits + 1):
        for key in keys_at_hamming_distance(index, query_key, distance):
            found.extend(index._buckets.get(key, ()))
        if len(found) >= top_k:
            break
    return found


#: the per-receiver stores of each training round (``classifier._receivers``)
_STORES = weakref.WeakKeyDictionary()


def per_receiver_store(classifier, hash_each=True):
    """The :class:`PerReceiverStore` of ``classifier``'s current round."""
    store = _STORES.get(classifier._receivers)
    if store is None:
        store = _STORES[classifier._receivers] = PerReceiverStore(classifier, hash_each)
    return store


def store_bundle(classifier, bundle, keys, receivers):
    per_receiver_store(classifier).store(bundle, keys, receivers)


def held_bundles(classifier, receiver):
    return dict(per_receiver_store(classifier).received.get(receiver, {}))


def per_receiver_predict_scores(classifier, origin, vector):
    """``PaceClassifier.predict_scores`` as it was before the shared index:
    the asking receiver's own index probed, its own store read, the block
    packed from every bundle some store holds."""
    classifier._require_trained()
    state = per_receiver_store(classifier)
    index = state.indexes.get(origin)
    if index is None or len(index) == 0:
        return {tag: 0.0 for tag in classifier.tags}
    store = state.received.get(origin, {})
    if state.block is None:
        distinct = {id(bundle): bundle for held in state.received.values()
                    for bundle in held.values()}
        state.block = _PaceBlock(list(distinct.values()), classifier.tags)
    block = state.block
    query = block.table.localize(vector)
    found = candidates(index, vector, classifier.config.top_k)
    distances = block.distances(vector, query, [stored for stored, _ in found])
    nearest = sorted(range(len(found)), key=distances.__getitem__)
    bundles, proximities, seen_origins = [], [], set()
    for position in nearest[: classifier.config.top_k]:
        bundle_origin = found[position][1]
        if bundle_origin in seen_origins:
            continue
        seen_origins.add(bundle_origin)
        bundles.append(store[bundle_origin])
        proximities.append(
            1.0 / (classifier.config.distance_smoothing + distances[position])
        )
    return dict(zip(classifier.tags, block.vote(vector, query, bundles, proximities)))


def install_per_receiver_store(classifier, hash_each=False) -> None:
    """Make ONE PACE classifier hold, index and probe its bundles one
    receiver at a time."""
    _STORES.pop(classifier._receivers, None)
    classifier._new_receivers = functools.partial(_fresh_round, classifier, hash_each)
    classifier._receivers = classifier._new_receivers()
    for name, function in [("_store_bundle", store_bundle),
                           ("held_bundles", held_bundles),
                           ("predict_scores", per_receiver_predict_scores)]:
        setattr(classifier, name, functools.partial(function, classifier))


def _fresh_round(classifier, hash_each):
    """A new round's (unused) shared index, keyed to a new per-receiver store."""
    receivers = type(classifier)._new_receivers(classifier)
    _STORES[receivers] = PerReceiverStore(classifier, hash_each)
    return receivers


def install_per_receiver_hashing(classifier) -> None:
    """Make ONE PACE classifier store bundles the per-receiver way, each
    receiver hashing every centroid itself."""
    install_per_receiver_store(classifier, hash_each=True)


#: each round's receivers' own indexes, rebuilt from their views
_OWN_INDEXES = weakref.WeakKeyDictionary()


def own_index(classifier, receiver):
    """``receiver``'s view and its own index rebuilt from it: each held
    bundle's centroids hashed and inserted in broadcast order."""
    view = classifier.held_bundles(receiver)
    built = _OWN_INDEXES.setdefault(classifier._receivers, {})
    key = (receiver, tuple(map(id, view.values())))
    if key not in built:
        index = RandomHyperplaneLSH(
            num_bits=classifier.config.lsh_bits, seed=classifier.config.lsh_seed
        )
        for bundle in view.values():
            for centroid in bundle.centroids:
                index.insert(centroid, bundle.origin)
        built[key] = index
    return view, built[key]



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
    block and the shared index: the receiver's own index (rebuilt from its
    view), ``index.query`` ranking the probe with one ``distance`` per
    candidate, then one ``decision`` and one sigmoid per model, voted
    through ``weighted_score``."""
    classifier._require_trained()
    store, index = own_index(classifier, origin)
    if len(index) == 0:
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


def fit_block(svm, problems, table=None):
    """``KernelSVM.fit_block`` one problem at a time, ``table`` unread: each
    well-formed two-class problem through ``smo_fit`` over its own scalar
    Gram, and validation and the one-class constant model left to the
    array block."""
    return [
        smo_fit(svm, vectors, labels)[0]
        if len(vectors) == len(labels) and set(labels) == {-1, 1}
        else _ARRAY_FIT_BLOCK(svm, [(vectors, labels)])[0]
        for vectors, labels in problems
    ]


def decisions_from(model, table, vectors):
    """``KernelSVMModel.decisions_from`` as the cascade scored its training
    set before the table: one scalar ``decision`` per vector, ``table``
    unread."""
    return [decision(model, x) for x in vectors]


def install_scalar_ml(monkeypatch) -> None:
    """Swap the array forms for their oracles until ``monkeypatch`` is
    undone.  Class- and module-level, unlike the other ``install_*``:
    models and indexes are created deep inside ``train()``, so there is no
    single instance to patch."""
    monkeypatch.setattr(SparseVector, "squared_norm", squared_norm)
    monkeypatch.setattr(KernelSVMModel, "decision", decision)
    monkeypatch.setattr(RandomHyperplaneLSH, "signature", signature)
    # ``KernelSVM.fit`` is ``fit_block``'s one-problem case
    monkeypatch.setattr(KernelSVM, "fit_block", fit_block)
    monkeypatch.setattr(KernelSVMModel, "decisions_from", decisions_from)
    # ``LinearSVM.fit`` and ``fit_block`` both resolve the module's kernel
    monkeypatch.setattr(linear_svm, "pegasos_block", pegasos_block)
    # and ``KMeans.fit`` and ``fit_block`` the k-means one
    monkeypatch.setattr(kmeans, "kmeans_block", kmeans_block)
    # every receiver's own store, hashing for itself
    monkeypatch.setattr(PaceClassifier, "_store_bundle", store_bundle)
    monkeypatch.setattr(PaceClassifier, "held_bundles", held_bundles)
    monkeypatch.setattr(PaceClassifier, "predict_scores", predict_scores)
    monkeypatch.setattr(_PredictionBlock, "probabilities", regional_probabilities)
