"""The array forms of ``repro.ml`` against the scalar loops they replaced
(``tests/reference/ml_scalar.py``).

Bit-exact by construction, so asserted with ``==``: the cached squared norm,
the LSH ``signature``, and the whole training path — the array
``gram_matrix``, the SMO sweep of ``KernelSVM.fit`` (bias, support-vector
objects, alphas, generator position), the Pegasos steps of
``LinearSVM.fit`` (bias, weights *in order*) and PACE's hash-once bundle
store (every receiver's buckets).  The training oracles sum with an
explicit ``total += term`` — the left-to-right order is the contract on
every interpreter, where ``sum()`` is compensated from CPython 3.12 on.
Held to a tolerance: the packed ``decision`` against the scalar sum, whose
dot products and final sum associate differently — but bit-exact again
between a block of many models and each model packed alone
(``ml_scalar.packed_decision``), which is what CEMPaR's prediction rests on
— and, end to end, to the same AutoTag tag sets, digest and micro-F1 on the
two tagging workloads of the repo benchmark at their smoke shapes.
"""

import importlib
import json
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from determinism_fixtures import (
    build_classifier,
    build_scenario,
    build_scenario_config,
)
from reference import compensated_sum, ml_scalar
from repro.errors import ConfigurationError
from repro.ml.kernel_svm import (
    KernelSVM,
    KernelSVMModel,
    PackedSupport,
    SupportVector,
)
from repro.ml.kernels import gram_matrix
from repro.ml.linear_svm import LinearSVM, LinearSVMModel
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.sparse import RowTable, SparseVector, pack_rows
from repro.p2pclass.pace import PaceClassifier, PaceConfig, PaceModelBundle
from repro.sim.shard import ShardedScenario

PERF = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "perf",
)

KERNELS = ("rbf", "linear", "poly")

_value = st.floats(min_value=1e-3, max_value=4.0)
_signed = st.one_of(_value, _value.map(lambda x: -x))


def vectors(max_id=300, max_size=24):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_id), _signed, max_size=max_size
    ).map(SparseVector)


# -- signature: exactly equal ------------------------------------------------


@pytest.mark.parametrize("num_bits", [1, 8, 64])
@settings(max_examples=60, deadline=None)
@given(vector=vectors(max_id=2 ** 18, max_size=120), seed=st.integers(0, 5))
def test_signature_equals_the_per_feature_loop(num_bits, vector, seed):
    index = RandomHyperplaneLSH(num_bits=num_bits, seed=seed)
    assert index.signature(vector) == ml_scalar.signature(index, vector)


@pytest.mark.parametrize("num_bits", [1, 8, 64])
def test_empty_vector_sets_every_bit(num_bits):
    index = RandomHyperplaneLSH(num_bits=num_bits, seed=3)
    assert index.signature(SparseVector()) == (1 << num_bits) - 1
    assert ml_scalar.signature(index, SparseVector()) == (1 << num_bits) - 1


def test_signature_survives_table_growth():
    """More features than the table's first allocation, in one vector and
    across vectors: rows drawn before a growth keep their values."""
    index = RandomHyperplaneLSH(num_bits=8, seed=91)
    capacity = len(index._table.rows)
    rng = np.random.default_rng(0)
    ids = rng.choice(2 ** 18, size=3 * capacity, replace=False)
    early = SparseVector(zip(ids[:50].tolist(), rng.standard_normal(50)))
    before = index.signature(early)
    wide = SparseVector(zip(ids.tolist(), rng.standard_normal(len(ids))))
    assert index.signature(wide) == ml_scalar.signature(index, wide)
    assert len(index._table.rows) > capacity
    assert index.signature(early) == before == ml_scalar.signature(index, early)


def test_one_table_per_seed_and_width_shared_by_every_index():
    first = RandomHyperplaneLSH(num_bits=8, seed=77)
    second = RandomHyperplaneLSH(num_bits=8, seed=77)
    assert first._table is second._table
    assert RandomHyperplaneLSH(num_bits=16, seed=77)._table is not first._table
    assert RandomHyperplaneLSH(num_bits=8, seed=78)._table is not first._table
    rng = np.random.default_rng(1)
    sample = [
        SparseVector(zip(rng.choice(5000, 30, replace=False).tolist(),
                         rng.standard_normal(30)))
        for _ in range(40)
    ]
    assert [first.signature(v) for v in sample] == [
        second.signature(v) for v in sample
    ]
    other = RandomHyperplaneLSH(num_bits=8, seed=78)
    assert [first.signature(v) for v in sample] != [
        other.signature(v) for v in sample
    ]


# -- cached norm, gram matrix: exactly equal ------------------------------------


@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=40, deadline=None)
@given(data=st.lists(vectors(), min_size=1, max_size=8))
def test_gram_matrix_equals_the_uncached_loop(name, data):
    gram = gram_matrix(data, name, 0.7)
    assert np.array_equal(gram, ml_scalar.gram_matrix(data, name, 0.7))
    # and again, now that every norm is cached
    again = gram_matrix(data, name, 0.7)
    assert np.array_equal(again, gram)


def _shuffled_vectors(rng, count, ids, max_size, min_size=0):
    """Vectors over a small id range — supports overlap heavily — each with
    its own random insertion order and signed values."""
    out = []
    for _ in range(count):
        size = int(rng.integers(min_size, max_size + 1))
        keys = rng.choice(ids, size=size, replace=False).tolist()
        values = rng.uniform(0.1, 3.0, size) * rng.choice([-1.0, 1.0], size)
        out.append(SparseVector(zip(keys, values.tolist())))
    return out


@pytest.mark.parametrize("name", KERNELS)
def test_gram_matrix_takes_each_pair_in_the_iterated_operands_order(name):
    """Equal lengths (``dot`` iterates the first operand), unequal lengths
    (the shorter one), empty vectors and disjoint supports, on data where
    the order is visible in the last bit."""
    rng = np.random.default_rng(11)
    tied = _shuffled_vectors(rng, 10, ids=9, max_size=7, min_size=7)
    mixed = _shuffled_vectors(rng, 10, ids=9, max_size=9)
    apart = [SparseVector({100: 1.5, 101: -2.0}), SparseVector({200: 0.7}),
             SparseVector()]
    data = tied + [SparseVector()] + mixed + apart
    # the data has teeth: some equal-length pair sums differently from
    # either side, and some unequal pair differently in the longer's order
    assert any(ml_scalar.dot(a, b) != ml_scalar.dot(b, a)
               for a in tied for b in tied)
    assert any(
        ml_scalar.dot(a, b) != ml_scalar.dot(SparseVector(
            (k, v) for k, v in max(a, b, key=len).items()
            if k in min(a, b, key=len)
        ), min(a, b, key=len))
        for a in mixed for b in mixed if len(a) != len(b)
    )
    got = gram_matrix(data, name, 0.3)
    assert np.array_equal(got, ml_scalar.gram_matrix(data, name, 0.3))
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=40, deadline=None)
@given(data=st.lists(vectors(max_id=10, max_size=8), min_size=1, max_size=8))
def test_gram_matrix_equals_the_loop_on_overlapping_supports(name, data):
    got = gram_matrix(data, name, 0.7)
    assert np.array_equal(got, ml_scalar.gram_matrix(data, name, 0.7))


def test_gram_matrix_of_nothing_and_of_one():
    assert gram_matrix([], "rbf", 0.5).shape == (0, 0)
    assert gram_matrix([SparseVector()], "rbf", 0.5).tolist() == [[1.0]]
    assert gram_matrix([SparseVector({3: 2.0})], "poly", 0.5).tolist() == [[25.0]]


def test_pack_rows_numbers_columns_by_first_appearance():
    packed = pack_rows([
        SparseVector({7: 1.0, 3: -2.0}), SparseVector(),
        SparseVector({3: 4.0, 9: 0.5, 7: 8.0}),
    ])
    assert list(packed.columns.items()) == [(7, 0), (3, 1), (9, 2)]
    assert packed.indices.tolist() == [0, 1, 1, 2, 0]
    assert packed.data.tolist() == [1.0, -2.0, 4.0, 0.5, 8.0]
    assert packed.rows.tolist() == [0, 0, 2, 2, 2]
    assert packed.lengths.tolist() == [2, 0, 3]
    empty = pack_rows([])
    assert empty.columns == {} and len(empty.indices) == len(empty.rows) == 0


# -- SMO: the same trajectory, draw for draw -------------------------------------


def _fit_capturing_generator(svm, data, labels):
    """``svm.fit`` and the generator it drew its second indices from."""
    made = []
    real = np.random.default_rng

    def capture(seed):
        made.append(real(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", capture):
        svm.fit(data, labels)
    (rng,) = made
    return svm.model, rng


def _assert_same_smo(svm, data, labels):
    got, got_rng = _fit_capturing_generator(svm, data, labels)
    want, want_rng = ml_scalar.smo_fit(svm, data, labels)
    assert got.bias == want.bias
    assert len(got.support_vectors) == len(want.support_vectors)
    for mine, theirs in zip(got.support_vectors, want.support_vectors):
        assert mine.vector is theirs.vector
        assert (mine.label, mine.alpha) == (theirs.label, theirs.alpha)
    assert (got.gamma, got.kernel_name) == (want.gamma, want.kernel_name)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


_problem = st.lists(
    st.tuples(vectors(max_id=12, max_size=6), st.sampled_from([-1, 1])),
    min_size=2, max_size=10,
).filter(lambda rows: len({label for _, label in rows}) == 2)


@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=40, deadline=None)
@given(problem=_problem, seed=st.integers(0, 3), C=st.sampled_from([0.5, 1, 4.0]))
def test_smo_equals_the_scalar_sweep(name, problem, seed, C):
    data, labels = map(list, zip(*problem))
    svm = KernelSVM(C=C, gamma=0.3, kernel_name=name, seed=seed,
                    max_iterations=200)
    _assert_same_smo(svm, data, labels)


@pytest.mark.parametrize("name", KERNELS)
def test_smo_equals_the_scalar_sweep_on_noisy_overlapping_classes(name):
    """Forty problems whose classes overlap, so sweeps are long, alphas hit
    both box bounds and some steps move ``alpha_j`` by less than the 1e-7
    progress threshold — a write the scalar sweep keeps."""
    rng = np.random.default_rng(23)
    for case in range(40):
        n = int(rng.integers(6, 28))
        data = [v.normalized() for v in
                _shuffled_vectors(rng, n, ids=14, max_size=8, min_size=1)]
        labels = rng.choice([-1, 1], n).tolist()
        labels[:2] = [-1, 1]
        svm = KernelSVM(C=1.0, gamma=0.5, kernel_name=name, seed=case)
        _assert_same_smo(svm, data, labels)


def test_unknown_kernel_name_is_refused_at_fit():
    data = [SparseVector({0: 1.0}), SparseVector({1: 1.0})]
    with pytest.raises(ValueError, match="unknown kernel"):
        KernelSVM(kernel_name="sigmoid").fit(data, [-1, 1])
    with pytest.raises(ValueError, match="unknown kernel"):
        gram_matrix(data, "sigmoid", 0.5)
    # a one-class problem never reaches the kernel
    assert KernelSVM(kernel_name="sigmoid").fit(data, [1, 1]).model.bias == 1.0


# -- Pegasos: the same weights in the same order ----------------------------------


def _assert_same_pegasos(svm, data, labels):
    got = svm.fit(data, labels).model
    want = ml_scalar.pegasos_fit(svm, data, labels)
    assert got.bias == want.bias
    assert list(got.weights.items()) == list(want.weights.items())  # in order
    for keep in (1, 3, max(1, got.weights.nnz - 1)):
        assert list(got.truncated(keep).weights.items()) == list(
            want.truncated(keep).weights.items()
        )


@settings(max_examples=60, deadline=None)
@given(problem=_problem, seed=st.integers(0, 3), epochs=st.integers(1, 6),
       lambda_reg=st.sampled_from([1e-4, 1e-2, 1.0]))
def test_pegasos_equals_the_scalar_steps(problem, seed, epochs, lambda_reg):
    data, labels = map(list, zip(*problem))
    svm = LinearSVM(lambda_reg=lambda_reg, epochs=epochs, seed=seed)
    _assert_same_pegasos(svm, data, labels)


@pytest.mark.parametrize("ids, sizes", [(40, (1, 9)), (60, (8, 40))])
def test_pegasos_equals_the_scalar_steps_on_seeded_corpora(ids, sizes):
    """Short documents under strong regularisation: late in training a
    sample can sit outside the margin at every step it is drawn for, so its
    features enter the model when a *later* sample sharing them is stepped
    on, or never — first seen is not first updated.  Long documents: a
    ``<w, x>`` of eight or more terms is where a pairwise ``reduce`` and the
    left-to-right sum part ways."""
    rng = np.random.default_rng(31)
    checked = 0
    for case in range(30):
        n = int(rng.integers(4, 14))
        data = _shuffled_vectors(rng, n, ids, max_size=sizes[1], min_size=sizes[0])
        data[int(rng.integers(n))] = SparseVector()  # an empty document
        labels = [1 if v.get(0) + v.get(1) + v.get(2) > 0 else -1 for v in data]
        if len(set(labels)) < 2:
            continue
        checked += 1
        svm = LinearSVM(lambda_reg=0.5, epochs=2, seed=case)
        _assert_same_pegasos(svm, data, labels)
    assert checked >= 20


def test_pegasos_sums_the_margin_left_to_right_where_it_decides_a_step():
    """The second step's ``<w, x>`` is ``[+B, s, s, s, s, s, s, s, -B]``
    with ``s`` under half an ulp of ``B``: left to right every ``s`` is
    absorbed and the sum is 0, so the sample is stepped on; summed pairwise
    (``np.add.reduce`` from eight terms up) the ``s`` meet each other first,
    survive, and push the margin past 1."""
    first = SparseVector([(0, 1e8)] + [(k, 0.5) for k in range(1, 8)] + [(8, -1e8)])
    second = SparseVector([(0, 1e8)] + [(k, 1.0) for k in range(1, 8)] + [(8, 1e8)])
    other = SparseVector({20: 1.0})
    data, labels = [None] * 3, [None] * 3
    order = np.random.default_rng(5).permutation(3).tolist()
    for vector, label, slot in zip((first, second, other), (1, 1, -1), order):
        data[slot], labels[slot] = vector, label
    svm = LinearSVM(lambda_reg=1.0, epochs=1, seed=5)
    _assert_same_pegasos(svm, data, labels)
    assert svm.model.bias == 0.1 + 0.5 * 0.1 - (1.0 / 3) * 0.1  # all three stepped on


def test_pegasos_weights_are_keyed_by_the_documents_own_id_objects():
    """A fresh ``int`` per weight (ids through ``ndarray.tolist()``) cost
    ``tag-pace-churn`` 1 MB of RSS and 7% of ``query_s``: 60 peers keep
    every other peer's models."""
    rng = np.random.default_rng(3)
    data = [SparseVector(zip((1000 + rng.choice(50, 12, replace=False)).tolist(),
                             rng.random(12) + 0.1)) for _ in range(8)]
    labels = [-1, 1] * 4
    owned = {id(key) for vector in data for key in vector}
    weights = LinearSVM(epochs=3).fit(data, labels).model.weights
    assert weights.nnz > 12 and all(id(key) in owned for key in weights)


def test_pegasos_degenerate_inputs():
    empty = [SparseVector(), SparseVector()]
    _assert_same_pegasos(LinearSVM(epochs=3), empty, [1, -1])
    assert LinearSVM(epochs=3).fit(empty, [1, -1]).model.weights.nnz == 0
    constant = LinearSVM().fit([SparseVector({0: 1.0})] * 2, [-1, -1]).model
    assert (constant.bias, constant.weights.nnz) == (-1.0, 0)


# -- PACE: centroids hashed once per broadcast, buckets unchanged -------------------


def _buckets(classifier):
    return {receiver: dict(index._buckets)
            for receiver, index in classifier._indexes.items()}


@pytest.mark.parametrize("overlay", ["chord", "unstructured"])
@pytest.mark.parametrize("protocol", ["pace", "private"])
def test_pace_buckets_equal_per_receiver_hashing(protocol, overlay, monkeypatch):
    """Every receiver's index after ``train()`` — under churn, with flood
    duplicates, with noisy re-created bundles, and again after a second
    ``train()`` — is what it is when each receiver hashes for itself."""
    fast = build_classifier(protocol, build_scenario(overlay, "churn"))
    slow = build_classifier(protocol, build_scenario(overlay, "churn"))
    ml_scalar.install_per_receiver_hashing(slow)
    calls = []
    signature = RandomHyperplaneLSH.signature
    monkeypatch.setattr(
        RandomHyperplaneLSH, "signature",
        lambda self, vector: calls.append(vector) or signature(self, vector),
    )
    for _ in range(2):
        del calls[:]
        fast.train()
        hashed = len(calls)
        slow.train()
        assert _buckets(fast) == _buckets(slow)
        assert any(_buckets(fast).values())
        # one signature per centroid of each bundle that was broadcast ...
        broadcast = {
            id(bundle): bundle for store in fast._received.values()
            for bundle in store.values()
        }
        assert hashed == sum(len(b.centroids) for b in broadcast.values())
        # ... where per-receiver hashing pays one more per entry stored
        stored = sum(len(index) for index in fast._indexes.values())
        assert len(calls) - 2 * hashed == stored > 2 * hashed


# -- RowTable: many rows against one query, in the query's order ---------------------


def _hex(value):
    return float(value).hex()


def _table_dots(rows, query):
    table = RowTable(rows)
    return table.dots(np.arange(len(rows)), *table.localize(query)).tolist()


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(vectors(max_id=20, max_size=16), min_size=1, max_size=8),
       query=vectors(max_id=24, max_size=16))
def test_row_table_dots_equal_the_scalar_dot_walked_by_the_query(rows, query):
    """Whenever ``SparseVector.dot`` would iterate the query — the row is
    longer, or as long with the query as ``self`` — the kernel's sum is
    that sum, bit for bit; features no row has fall out of the query."""
    got = _table_dots(rows, query)
    for row, dot in zip(rows, got):
        if len(row) >= len(query):
            assert _hex(dot) == _hex(query.dot(row)) == _hex(ml_scalar.dot(query, row))
        if len(row) > len(query):
            assert _hex(dot) == _hex(row.dot(query))


def test_row_table_sums_start_from_zero_and_go_left_to_right():
    # every product underflows to -0.0: from the int 0 the scalar sum is +0.0
    tiny = SparseVector({0: 1e-200, 1: 1e-200})
    negative = SparseVector({0: -1e-200, 1: -1e-200, 2: 1.0})
    assert _hex(tiny.dot(negative)) == _hex(0.0) != _hex(-0.0)
    assert _hex(_table_dots([negative], tiny)[0]) == _hex(0.0)
    # no terms at all: the empty query, and one no row shares a feature with
    assert _table_dots([negative, SparseVector()], SparseVector()) == [0.0, 0.0]
    assert _table_dots([negative], SparseVector({7: 2.0, 2 ** 17: 1.0})) == [0.0]
    # [+B, s x7, -B] with s under half an ulp of B: left to right every s
    # is absorbed; pairwise (``sum(axis=1)`` from eight terms up) they meet
    # each other first and survive
    ones = SparseVector({k: 1.0 for k in range(9)})
    row = SparseVector(
        [(0, 1e16)] + [(k, 0.5) for k in range(1, 8)] + [(8, -1e16), (9, 1.0)]
    )
    assert ones.dot(row) == 0.0
    terms = np.array([[0.0, 1e16] + [0.5] * 7 + [-1e16]])
    assert terms.sum(axis=1)[0] != 0.0  # the data has teeth
    assert _table_dots([row], ones) == [0.0]


def test_row_table_is_a_position_table_over_the_packed_values():
    rows = [SparseVector({7: 1.0, 3: -2.0}), SparseVector(),
            SparseVector({3: 4.0, 9: 0.5, 7: 8.0})]
    table = RowTable(rows)
    assert list(table.columns.items()) == [(7, 0), (3, 1), (9, 2)]
    assert table.slots.tolist() == [[1, 2, 0], [0, 0, 0], [3, 1, 2]]
    assert table.slots.dtype == np.uint8  # the longest row sets the width
    assert table.values.tolist() == [0.0, 1.0, -2.0, 0.0, 0.0, 4.0, 0.5, 8.0]
    assert table.starts.tolist() == [0, 3, 4]
    assert table.lengths.tolist() == [2, 0, 3]
    wide = RowTable([SparseVector({k: 1.0 for k in range(300)})])
    assert wide.slots.dtype == np.uint16 and wide.slots.max() == 300
    columns, values = table.localize(SparseVector({9: 2.0, 5: 1.0, 7: -1.0}))
    assert (columns.tolist(), values.tolist()) == ([2, 0], [2.0, -1.0])
    assert len(RowTable([]).values) == 0


# -- PACE: block prediction equals one distance and one decision at a time ---------

_PACE_TAGS = ("a", "b", "c")


def _direction(scale, features=(0,)):
    """Positive multiples of one direction share every LSH bucket."""
    return SparseVector({feature: scale for feature in features})


def _bundle(origin, centroids, models, accuracies=None, calibration=None):
    return PaceModelBundle(
        origin=origin,
        models={tag: LinearSVMModel(SparseVector(weights), bias)
                for tag, (weights, bias) in models.items()},
        accuracies={tag: 0.8 for tag in models} if accuracies is None else accuracies,
        calibration=(
            {tag: (-1.5, 0.25) for tag in models} if calibration is None else calibration
        ),
        centroids=list(centroids),
    )


def _pace_holding(stores, **config):
    """A trained-looking ``PaceClassifier`` whose receivers hold exactly
    ``stores`` (receiver -> bundles), stored the way a broadcast stores."""
    classifier = PaceClassifier(
        build_scenario("fullmesh", "none"), {0: []}, _PACE_TAGS, PaceConfig(**config)
    )
    classifier._trained = True
    for receiver, bundles in stores.items():
        signature = classifier._index_of(receiver).signature
        for bundle in bundles:
            keys = [signature(centroid) for centroid in bundle.centroids]
            classifier._store_bundle(receiver, bundle, keys)
    return classifier


def _assert_same_scores(classifier, origin, query):
    got = classifier.predict_scores(origin, query)
    want = ml_scalar.predict_scores(classifier, origin, query)
    assert list(got) == list(want) == list(classifier.tags)
    assert {tag: _hex(score) for tag, score in got.items()} == {
        tag: _hex(score) for tag, score in want.items()
    }
    return got


@st.composite
def _bundles(draw, origin):
    tags = draw(st.lists(st.sampled_from(_PACE_TAGS), unique=True, max_size=3))
    models = {
        tag: (draw(vectors(max_id=14, max_size=12)).to_dict(),
              draw(st.floats(-2.0, 2.0)))
        for tag in tags
    }
    # a bundle may lack a tag, a calibration entry or an accuracy entry;
    # a negative accuracy votes with weight zero
    accuracies = {tag: draw(st.floats(-0.25, 1.0)) for tag in tags
                  if draw(st.booleans())}
    calibration = {tag: (draw(st.floats(-4.0, 4.0)), draw(st.floats(-2.0, 2.0)))
                   for tag in tags if draw(st.booleans())}
    centroids = draw(st.lists(vectors(max_id=14, max_size=12),
                              min_size=1, max_size=2))
    return _bundle(origin, centroids, models, accuracies, calibration)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), origins=st.integers(1, 5), top_k=st.integers(1, 8),
       smoothing=st.sampled_from([0.5, 1.0]),
       queries=st.lists(vectors(max_id=18, max_size=14), min_size=1, max_size=4))
def test_pace_scores_equal_the_scalar_prediction(data, origins, top_k, smoothing,
                                                 queries):
    bundles = [data.draw(_bundles(origin)) for origin in range(origins)]
    kept = data.draw(st.lists(st.sampled_from(range(origins)), unique=True))
    classifier = _pace_holding(
        {0: bundles, 1: [bundles[origin] for origin in kept]},
        top_k=top_k, distance_smoothing=smoothing,
    )
    for query in queries + [SparseVector(), SparseVector({10_000: 1.5})]:
        for receiver in (0, 1, 2):
            _assert_same_scores(classifier, receiver, query)


def _walked_by(walker, other):
    """``<walker, other>`` summed in ``walker``'s order, whatever the lengths."""
    total = 0.0
    for key, value in walker.items():
        if key in other:
            total += value * other[key]
    return total


def _shuffled_pairs(rng, ids, size):
    keys = rng.choice(ids, size=size, replace=False).tolist()
    values = rng.uniform(0.1, 3.0, size) * rng.choice([-1.0, 1.0], size)
    return list(zip(keys, values.tolist()))


def test_pace_walks_each_row_in_the_operand_order_the_scalar_dot_takes():
    """Weights shorter than, as long as and longer than the query (``dot``
    iterates the shorter operand, the weights on a tie); centroids strictly
    shorter than and as long as it (the query on a tie) — on data where the
    order shows in the last bit of a score."""
    rng = np.random.default_rng(41)
    ordered_by_weights = ordered_by_centroid = 0
    for case in range(30):
        length = int(rng.integers(6, 11))
        query = SparseVector(_shuffled_pairs(rng, 14, length))
        bundles = []
        for origin in range(4):
            models = {
                tag: (dict(_shuffled_pairs(rng, 14, length + delta)),
                      float(rng.uniform(-1, 1)))
                for tag, delta in zip(_PACE_TAGS, rng.permutation([-2, 0, 3]))
            }
            centroids = [SparseVector(_shuffled_pairs(rng, 14, length + delta))
                         for delta in (-1, 0)]
            bundles.append(_bundle(origin, centroids, models))
            ties = [SparseVector(weights) for weights, _ in models.values()
                    if len(weights) == length]
            ordered_by_weights += sum(
                _walked_by(weights, query) != _walked_by(query, weights)
                for weights in ties
            )
            ordered_by_centroid += (
                _walked_by(centroids[0], query) != _walked_by(query, centroids[0])
            )
        classifier = _pace_holding({0: bundles}, top_k=6)
        _assert_same_scores(classifier, 0, query)
    # the data has teeth: tied weights, and a centroid one entry short,
    # sum differently in the query's order
    assert ordered_by_weights >= 10 and ordered_by_centroid >= 10


def test_pace_ranks_the_probe_before_it_skips_a_repeated_origin():
    """One origin matched through both its centroids fills both of the
    ``top_k = 2`` places, so the third candidate never votes — skipping the
    repeat first would let it in."""
    twice = _bundle(1, [_direction(1.0), _direction(2.0)], {"a": ({0: 1.0}, 0.1)})
    other = _bundle(2, [_direction(3.0)], {"a": ({0: -2.0}, 0.0), "b": ({0: 0.5}, 0.0)})
    query = _direction(1.2)
    narrow = _assert_same_scores(_pace_holding({0: [twice, other]}, top_k=2), 0, query)
    wide = _assert_same_scores(_pace_holding({0: [twice, other]}, top_k=3), 0, query)
    assert narrow["b"] == 0.0 != wide["b"] and narrow["a"] != wide["a"]


def test_pace_keeps_probe_order_among_equally_distant_candidates():
    first = _bundle(1, [_direction(2.0)], {"a": ({0: 1.0}, 0.0)})
    second = _bundle(2, [_direction(2.0)], {"b": ({0: 1.0}, 0.0)})
    query = _direction(1.0)
    scores = _assert_same_scores(_pace_holding({0: [first, second]}, top_k=1), 0, query)
    swapped = _assert_same_scores(_pace_holding({0: [second, first]}, top_k=1), 0, query)
    assert scores["a"] > 0.0 == scores["b"] and swapped["b"] > 0.0 == swapped["a"]


def test_pace_candidates_whose_origin_the_store_lacks_still_take_their_place():
    near = _bundle(1, [_direction(1.0)], {"a": ({0: 1.0}, 0.0)})
    far = _bundle(2, [_direction(5.0)], {"b": ({0: 1.0}, 0.0)})
    query = _direction(1.1)
    # another receiver still holds the bundle: the block knows its centroid
    classifier = _pace_holding({0: [near, far], 1: [near]}, top_k=1)
    del classifier._received[0][1]
    assert _assert_same_scores(classifier, 0, query) == dict.fromkeys(_PACE_TAGS, 0.0)
    assert _assert_same_scores(classifier, 1, query)["a"] > 0.0
    # nobody holds it: its distance is the scalar one, its place still taken
    alone = _pace_holding({0: [near, far]}, top_k=1)
    del alone._received[0][1]
    assert _assert_same_scores(alone, 0, query) == dict.fromkeys(_PACE_TAGS, 0.0)
    alone.config.top_k = 2
    assert _assert_same_scores(alone, 0, query)["b"] > 0.0


def test_pace_edges_of_the_index_and_of_the_sigmoid():
    steep = _bundle(
        1, [_direction(1.0, (0, 1))],
        {"a": ({0: 400.0}, 1.0), "b": ({0: -400.0}, -1.0), "c": ({1: 1.0}, 0.0)},
        accuracies={"a": 0.9},            # b and c vote at the default 0.5
        calibration={"a": (-2.0, 0.0), "b": (-2.0, 0.0)},  # c at the default
    )
    classifier = _pace_holding({0: [steep], 3: []}, top_k=50)  # top_k > candidates
    scores = _assert_same_scores(classifier, 0, _direction(1.0))
    # |z| = 802 and 798, both held at 500
    assert scores["a"] == 1.0 / (1.0 + np.exp(-500.0)) == 1.0
    assert 0.0 < scores["b"] < 1e-200
    assert scores["c"] == 1.0 / (1.0 + np.exp(0.0)) == 0.5
    for query in (SparseVector(), SparseVector({10_000: 1.5, 2 ** 17: -2.0})):
        _assert_same_scores(classifier, 0, query)
    # an index with nothing in it, and a peer that never received anything
    for receiver in (3, 4):
        assert _assert_same_scores(classifier, receiver, _direction(1.0)) == (
            dict.fromkeys(_PACE_TAGS, 0.0)
        )


@pytest.mark.parametrize("protocol", ["pace", "private"])
def test_pace_block_is_built_on_the_first_query_and_dropped_by_train(protocol):
    classifier = build_classifier(protocol, build_scenario("chord", "churn"))
    queries = [item.vector for items in classifier.peer_data.values()
               for item in items]
    classifier.train()
    assert classifier._block is None  # train() packs nothing
    for receiver in classifier._received:
        for query in queries:
            _assert_same_scores(classifier, receiver, query)
    first = classifier._block
    distinct = {id(bundle) for store in classifier._received.values()
                for bundle in store.values()}
    assert set(first.model_rows) == distinct  # one block, shared bundles once
    # retraining on other data replaces every bundle, and the block with them
    classifier.peer_data = {
        address: items[: len(items) // 2 + 1]
        for address, items in classifier.peer_data.items()
    }
    classifier.train()
    assert classifier._block is None
    for receiver in classifier._received:
        for query in queries[::3]:
            _assert_same_scores(classifier, receiver, query)
    assert classifier._block is not first


# -- packed decision: within 1e-12 of the scalar sum ------------------------------


def _close(model, x):
    scale = sum(abs(sv.alpha) for sv in model.support_vectors) + abs(model.bias)
    assert abs(model.decision(x) - ml_scalar.decision(model, x)) <= 1e-12 * scale


_support = st.lists(
    st.tuples(vectors(), st.sampled_from([-1, 1]),
              st.floats(min_value=1e-6, max_value=10.0)),
    max_size=12,
)


@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=60, deadline=None)
@given(support=_support, bias=st.floats(-5.0, 5.0),
       queries=st.lists(vectors(), min_size=1, max_size=4))
def test_packed_decision_matches_the_scalar_sum(name, support, bias, queries):
    model = KernelSVMModel(
        support_vectors=[SupportVector(v, y, a) for v, y, a in support],
        bias=bias, gamma=0.5, kernel_name=name,
    )
    for x in queries:
        _close(model, x)
    # a query none of whose features any support vector has
    _close(model, SparseVector({10_000: 1.5, 2 ** 18: -2.0}))
    _close(model, SparseVector())


@pytest.mark.parametrize("name", KERNELS)
def test_constant_model_decides_its_bias(name):
    model = KernelSVMModel(support_vectors=[], bias=-1.0, gamma=0.5,
                           kernel_name=name)
    assert model.decision(SparseVector({3: 1.0})) == -1.0
    assert model.decision(SparseVector()) == -1.0


@pytest.mark.parametrize("name", KERNELS)
def test_fitted_model_decision_and_laziness(name):
    rng = np.random.default_rng(5)
    data = [
        SparseVector(zip(rng.choice(60, 8, replace=False).tolist(),
                         rng.random(8) + 0.1)).normalized()
        for _ in range(40)
    ]
    labels = [1 if v.get(0) + v.get(1) + v.get(2) > 0.3 else -1 for v in data]
    assert len(set(labels)) == 2
    model = KernelSVM(kernel_name=name, seed=1).fit(data, labels).model
    assert model.num_support_vectors > 0
    assert model._packed is None  # fitting and shipping never pack
    for x in data:
        _close(model, x)
    assert model._packed is not None


def test_unknown_kernel_name_is_refused_at_decision():
    model = KernelSVMModel(support_vectors=[], bias=1.0, gamma=0.5,
                           kernel_name="sigmoid")
    with pytest.raises(ValueError, match="unknown kernel"):
        model.decision(SparseVector())


# -- many models in one block: each decides as it does packed alone -------------------


def _assert_block_decides_like_each_model_alone(models, queries):
    block = PackedSupport(models)
    for x in queries:
        got = [_hex(value) for value in block.decisions(x)]
        assert got == [_hex(ml_scalar.packed_decision(model, x)) for model in models]
        assert got == [_hex(model.decision(x)) for model in models]


def _constant(name, bias):
    return KernelSVMModel(support_vectors=[], bias=bias, gamma=0.5, kernel_name=name)


@pytest.mark.parametrize("emulate_312_sum", [False, True])
@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=40, deadline=None)
@given(drawn=st.lists(st.tuples(_support, st.floats(-5.0, 5.0)), max_size=5),
       constant_at=st.integers(0, 5), constant_bias=st.sampled_from([-1.0, 1.0]),
       queries=st.lists(vectors(), min_size=1, max_size=3))
def test_block_decisions_equal_each_models_own(
        name, emulate_312_sum, drawn, constant_at, constant_bias, queries):
    models = [
        KernelSVMModel(
            support_vectors=[SupportVector(v, y, a) for v, y, a in support],
            bias=bias, gamma=0.5, kernel_name=name,
        )
        for support, bias in drawn
    ]
    # a one-class model — no support vector, all bias — somewhere inside
    models.insert(min(constant_at, len(models)), _constant(name, constant_bias))
    queries = queries + [
        SparseVector({10_000: 1.5, 2 ** 18: -2.0}),  # no feature of any SV's
        SparseVector(),
    ]
    with pytest.MonkeyPatch.context() as patch:
        if emulate_312_sum:
            compensated_sum.install_everywhere(patch)
        _assert_block_decides_like_each_model_alone(models, queries)
        _assert_block_decides_like_each_model_alone(models[:1], queries)


@pytest.mark.parametrize("name", KERNELS)
def test_block_adds_each_dot_in_the_rows_own_order_and_each_margin_alone(name):
    """Support vectors that share most of a small feature set, each in an
    order of its own, and enough of them per model for BLAS to sum in
    lanes: adding the matched entries column by column, or taking every
    margin out of one product over the whole block, changes last bits
    here."""
    rng = np.random.default_rng(24)
    ids = list(range(40))
    models = [
        KernelSVMModel(
            support_vectors=[
                SupportVector(vector.normalized(), int(rng.choice([-1, 1])),
                              float(rng.random() + 0.01))
                for vector in _shuffled_vectors(rng, count, ids, 30, min_size=12)
            ],
            bias=float(rng.standard_normal()), gamma=0.5, kernel_name=name,
        )
        for count in (37, 1, 64, 23)
    ]
    models.insert(2, _constant(name, 1.0))
    queries = [
        vector.normalized()
        for vector in _shuffled_vectors(rng, 40, ids + [99], 25, min_size=8)
    ]
    _assert_block_decides_like_each_model_alone(models, queries)
    block = PackedSupport(models)
    distinct = {_hex(value) for x in queries for value in block.decisions(x)}
    # no kernel value under- or overflowed: only the constant model repeats
    assert len(distinct) == 4 * len(queries) + 1


def test_block_refuses_models_of_different_kernels():
    rbf = KernelSVMModel([SupportVector(SparseVector({1: 1.0}), 1, 0.5)], 0.0, 0.5)
    for other in (
        KernelSVMModel(rbf.support_vectors, 0.0, 0.5, kernel_name="linear"),
        KernelSVMModel(rbf.support_vectors, 0.0, 0.25),
    ):
        with pytest.raises(ConfigurationError, match="one kernel"):
            PackedSupport([rbf, other])
    assert PackedSupport([rbf, rbf]).decisions(SparseVector({1: 2.0})) == (
        [rbf.decision(SparseVector({1: 2.0}))] * 2
    )


# -- end to end: the scientific result, not only the digest ---------------------------


def _perf_module(name):
    """A module of the repo benchmark (a directory of scripts, not a
    package: it is put on ``sys.path`` the way ``run.py`` finds it)."""
    if PERF not in sys.path:
        sys.path.insert(0, PERF)
    return importlib.import_module(name)


def _run(workload_class, shape, seed=0):
    """One repetition of a benchmark workload: the finished workload."""
    checks = _perf_module("workloads").Checks()
    watch = _perf_module("stopwatch").Stopwatch(calibrated=False)
    workload = workload_class(shape, seed, "", checks, watch)
    watch.start()
    workload.setup()
    workload.load()
    workload.query()
    workload.finish()
    assert checks.failed == 0
    return workload


def _assert_same_autotag(workload_class, shape, seed, install):
    """The workload run with ``install``'s oracles in place and without:
    the same tag sets and the same exact values; returns the plain run."""
    with pytest.MonkeyPatch.context() as patch:
        install(patch)
        want = _run(workload_class, shape, seed)
    got = _run(workload_class, shape, seed)
    assert any(want._predicted)  # the oracle run tagged something
    assert got._predicted == want._predicted
    assert got.exact == want.exact  # scenario digest, micro-F1, bytes per peer
    return got


@pytest.mark.parametrize("name", ["TagCempar", "TagPaceChurn"])
def test_autotag_results_agree_with_the_scalar_oracles(name):
    workload_class = getattr(_perf_module("workloads"), name)
    _assert_same_autotag(
        workload_class, workload_class.SMOKE, 0, ml_scalar.install_scalar_ml
    )


@pytest.mark.parametrize("seed", [0, 7])
def test_pace_autotag_agrees_with_the_scalar_prediction_at_full_shape(seed):
    """``tag-pace-churn`` as the benchmark runs it — the training oracles
    re-hash 3,304 stores one hyperplane at a time, so only the prediction
    is swapped here — and then every score of every tag, not only the side
    of 0.5 it fell on."""
    workload_class = _perf_module("workloads").TagPaceChurn
    system = _assert_same_autotag(
        workload_class, workload_class.FULL, seed,
        lambda patch: patch.setattr(
            PaceClassifier, "predict_scores", ml_scalar.predict_scores
        ),
    ).system
    held_out = system.test_corpus.documents[:600]
    assert len(held_out) == 600
    for document in held_out:
        _assert_same_scores(
            system.classifier, document.owner, system.vector_of(document)
        )


def test_sharded_pace_workers_predict_from_their_own_stores():
    """K = 2, serial executor: each worker's classifier holds only what its
    own peers broadcast, packs its own block, and agrees with the scalar
    prediction on it."""
    def train_then_predict(scenario):
        classifier = build_classifier("pace", scenario)
        classifier.train()
        compared = mismatched = 0
        for receiver in sorted(classifier._received):
            for items in classifier.peer_data.values():
                for item in items:
                    compared += 1
                    try:
                        _assert_same_scores(classifier, receiver, item.vector)
                    except AssertionError:
                        mismatched += 1
        held = {origin for store in classifier._received.values() for origin in store}
        return compared, mismatched, held, len(classifier._block.model_rows)

    config = build_scenario_config("chord", "none", rng_mode="perpeer", shards=2)
    results = ShardedScenario(config, executor="serial").run(train_then_predict).results
    assert len(results) == 2
    for compared, mismatched, held, packed in results:
        assert compared > 100 and mismatched == 0
        assert packed == len(held) > 0
    assert not results[0][2] & results[1][2]  # no origin in both workers' stores


_PINS = os.path.join(PERF, "expected.json")


@pytest.mark.parametrize("name", ["TagCempar", "TagPaceChurn"])
def test_full_shape_pins_hold_under_the_compensated_sum_of_cpython_3_12(
        name, monkeypatch):
    """``benchmarks/perf/expected.json`` was written on 3.11.  With 3.12's
    ``sum`` standing in for the builtin in every ``repro`` module, the
    tagging workloads must still land on it: no digest, wire size or tag
    decision may hang on how ``sum()`` adds floats."""
    workload_class = getattr(_perf_module("workloads"), name)
    assert compensated_sum.install_everywhere(monkeypatch) >= 70
    import repro.ml.sparse

    assert repro.ml.sparse.sum is compensated_sum.compensated_sum
    with open(_PINS, encoding="utf-8") as handle:
        pins = json.load(handle)[workload_class.name]
    assert set(pins) == {"digest", "micro_f1", "sim_bytes_per_peer"}
    assert _run(workload_class, workload_class.FULL).exact == pins


def test_compensated_sum_is_the_sum_of_cpython_3_12():
    total = compensated_sum.compensated_sum
    # where it differs from left to right: the correction is carried
    assert total([1e16, 1.0, 1.0, -1e16]) == 2.0
    assert total([0.1] * 10) == 1.0
    plain = 0.0
    for term in [0.1] * 10:
        plain += term
    assert plain != 1.0
    # where it must not: ints, the start value, non-floats, no terms
    assert total([]) == 0 and type(total([])) is int
    assert total([1, 2, 3]) == 6 and type(total([1, 2, 3])) is int
    assert total([1, 2.5, 3]) == 6.5
    assert total([0.5, 0.25], 1.0) == 1.75
    assert total([np.float64(0.1)] * 10) == sum([np.float64(0.1)] * 10)
    assert total([[1], [2]], []) == [1, 2]
    if sys.version_info >= (3, 12):
        rng = np.random.default_rng(0)
        for _ in range(200):
            terms = (rng.standard_normal(20) * 10.0 ** rng.integers(-8, 8, 20)).tolist()
            assert total(terms) == sum(terms)


def test_shared_table_survives_threads_racing_on_new_features():
    """The serial shard executor trains one shard per thread, so indexes
    of several threads grow the one table at once: every feature must end
    up with a row of its own holding its own draw."""
    index = RandomHyperplaneLSH(num_bits=8, seed=4242)
    table = index._table
    rng = np.random.default_rng(7)
    ids = rng.choice(2 ** 18, size=6000, replace=False).tolist()
    batches = [
        [SparseVector({f: 1.0 for f in ids[start:start + 40]})
         for start in range(offset, len(ids) - 40, 160)]
        for offset in (0, 20, 40, 60, 80, 100)  # overlapping feature sets
    ]
    got = [None] * len(batches)

    def work(slot):
        mine = RandomHyperplaneLSH(num_bits=8, seed=4242)
        got[slot] = [mine.signature(vector) for vector in batches[slot]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(set(table.values())) == len(table)
    for feature_id, row in table.items():
        draw = np.random.default_rng((4242 << 32) ^ feature_id).standard_normal(8)
        assert np.array_equal(table.rows[row], draw)
    for slot, batch in enumerate(batches):
        assert got[slot] == [ml_scalar.signature(index, v) for v in batch]
