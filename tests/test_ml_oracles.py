"""The array forms of ``repro.ml`` against the scalar loops they replaced
(``tests/reference/ml_scalar.py``).

Bit-exact by construction, so asserted with ``==``: the cached squared norm,
the LSH ``signature``, and the whole training path — the array
``gram_matrix``, the SMO sweep of ``KernelSVM.fit`` (bias, support-vector
objects, alphas, generator position) and of each problem of a
``fit_block`` sharing one table of dot products, a cascade's training
decisions read off that table, the Pegasos steps of
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

import functools
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
from repro.data.delicious import DeliciousGenerator
from repro.errors import ConfigurationError
from repro.ml.kernel_svm import (
    KernelSVM,
    KernelSVMModel,
    PackedSupport,
    SupportVector,
)
from repro.ml import kmeans
from repro.ml.calibration import PlattCalibrator
from repro.ml.kernels import PairDots, gram_matrix
from repro.ml.kmeans import KMeans, kmeans_block
from repro.ml import linear_svm
from repro.ml.linear_svm import LinearSVM, LinearSVMModel, pegasos_block
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.metrics import micro_f1
from repro.ml.sparse import RowTable, SparseVector, pack_rows
from repro.p2pclass.cascade import cascade_merge
from repro.p2pclass.base import corpus_to_peer_data
from repro.p2pclass.pace import PaceClassifier, PaceConfig, PaceModelBundle
from repro.sim.shard import ShardedScenario
from repro.text.vectorizer import PreprocessingPipeline

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


def _scalar_draws(seed, n, state):
    """How many scalar ``integers(0, n - 1)`` draws take a fresh generator
    of ``seed`` to ``state``."""
    rng = np.random.default_rng(seed)
    for count in range(10_000):
        if rng.bit_generator.state == state:
            return count
        rng.integers(0, n - 1)
    raise AssertionError("the state is not a scalar draw count away")


def _overlapping_problem(seed, n):
    rng = np.random.default_rng(seed)
    data = [v.normalized() for v in
            _shuffled_vectors(rng, n, ids=14, max_size=8, min_size=1)]
    labels = rng.choice([-1, 1], n).tolist()
    labels[:2] = [-1, 1]
    return data, labels


@pytest.mark.parametrize("block, drawn", [
    pytest.param(96, 96, id="ends_on_the_first_block"),
    pytest.param(32, 96, id="ends_on_a_later_block_boundary"),
    pytest.param(100, 100, id="over_draws_and_rewinds"),
    pytest.param(40, 120, id="refills_more_than_once_then_rewinds"),
])
def test_smo_block_draws_replay_the_scalar_sequence(block, drawn, monkeypatch):
    """The sweep draws its second indices ``_DRAW_BLOCK`` at a time; wherever
    its 96 draws end against the blocks, the trajectory and the generator's
    final state are the scalar sweep's."""
    data, labels = _overlapping_problem(7, 16)
    svm = KernelSVM(C=1.0, gamma=0.5, seed=7)
    _, want_rng = ml_scalar.smo_fit(svm, data, labels)
    used = _scalar_draws(svm.seed, len(data), want_rng.bit_generator.state)
    assert used == 96 and -(-used // block) * block == drawn
    monkeypatch.setattr("repro.ml.kernel_svm._DRAW_BLOCK", block)
    _assert_same_smo(svm, data, labels)


def test_smo_with_two_points_consumes_no_draw():
    """``integers(0, 1)`` is always 0 and takes nothing from the generator,
    sized or not."""
    data, labels = [SparseVector({0: 1.0}), SparseVector({1: 1.0})], [1, -1]
    svm = KernelSVM(seed=4)
    _assert_same_smo(svm, data, labels)
    _, rng = _fit_capturing_generator(svm, data, labels)
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state


def test_smo_on_one_class_draws_nothing():
    made = []
    real = np.random.default_rng
    with mock.patch.object(
        np.random, "default_rng", lambda seed: made.append(real(seed)) or made[-1]
    ):
        model = KernelSVM(seed=2).fit(
            [SparseVector({0: 1.0}), SparseVector({1: 2.0}), SparseVector()], [-1] * 3,
        ).model
    assert (model.support_vectors, model.bias) == ([], -1.0)
    fresh = real(2).bit_generator.state
    assert all(rng.bit_generator.state == fresh for rng in made)


def test_unknown_kernel_name_is_refused_at_fit():
    """Refused when the SVM is built, so no fit gets that far: a one-class
    problem, which never reaches the kernel, used to fit without a word."""
    data = [SparseVector({0: 1.0}), SparseVector({1: 1.0})]
    with pytest.raises(ConfigurationError, match=r"\bkernel_name\b.*'sigmoid'"):
        KernelSVM(kernel_name="sigmoid")
    with pytest.raises(ValueError, match="unknown kernel"):
        gram_matrix(data, "sigmoid", 0.5)


# -- one table of dot products: a block of problems, a cascade's scoring -------------


def _shared_problems(rng):
    """A peer's worth of problems over one pool of documents, as CEMPaR's
    per-tag problems and a cascade's pool are: vectors shared across
    problems, repeated within one, twins of equal length whose keys run in
    another order (the tie ``dot`` breaks by argument order), documents
    whose supports meet no other's, two-point and one-class problems."""
    pool = _shuffled_vectors(rng, 40, ids=14, max_size=8, min_size=1)
    for vector in pool[:8]:
        items = list(vector.items())
        pool.append(SparseVector(items[1:] + items[:1]))
    apart = [SparseVector({100 + k: 1.0 + k, 120 + k: -0.5}) for k in range(3)]
    problems = []
    for size in (60, 45, 30, 12):
        chosen = rng.choice(len(pool), size=size).tolist()  # with repeats
        labels = rng.choice([-1, 1], size).tolist()
        labels[:2] = [-1, 1]
        problems.append(([pool[i] for i in chosen], labels))
    problems += [
        ([pool[0], pool[1], pool[0]] + apart, [1, -1, 1, -1, 1, -1]),
        (pool[:2], [1, -1]),
        (apart[:2], [-1, 1]),
        (pool[2:6], [1, 1, 1, 1]),
        (pool[6:7], [-1]),
    ]
    return problems


def _model_bits(model):
    return (
        _hex(model.bias), model.gamma, model.kernel_name,
        [(id(sv.vector), sv.label, _hex(sv.alpha)) for sv in model.support_vectors],
    )


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_models_and_table_decisions_equal_each_problem_fitted_alone(name, seed):
    """Every model of one ``fit_block`` is ``smo_fit``'s on that problem
    alone, and ``decisions_from`` over a table of just the problem's vectors
    (a cascade's) or of the whole block's gives each vector the bits its
    packed ``decision`` gives it."""
    problems = _shared_problems(np.random.default_rng(seed))
    svm = KernelSVM(C=4.0, gamma=0.3, kernel_name=name, seed=seed,
                    max_iterations=300)
    models = svm.fit_block(problems)
    shared = PairDots([vector for vectors, _ in problems for vector in vectors])
    assert len(shared.vectors) < sum(len(vectors) for vectors, _ in problems)
    for (vectors, labels), model in zip(problems, models):
        if set(labels) == {-1, 1}:
            want, _ = ml_scalar.smo_fit(svm, vectors, labels)
            assert _model_bits(model) == _model_bits(want)
        else:
            assert (model.bias, model.support_vectors) == (labels[0], [])
        decided = [_hex(model.decision(x)) for x in vectors]
        for table in (PairDots(vectors), shared):
            assert [_hex(d) for d in model.decisions_from(table, vectors)] == decided
    # long enough margins for ddot's unrolled loop, where the order of a
    # strided row or a gemv shows
    assert max(model.num_support_vectors for model in models) >= 32


@pytest.mark.parametrize("name", KERNELS)
def test_cascade_calibrates_on_the_decisions_of_its_model(name, monkeypatch):
    """The Platt fit of ``cascade_merge`` sees, for each pooled support
    vector (one child's are another's too), the bits the merged model's
    packed ``decision`` gives it."""
    problems = _shared_problems(np.random.default_rng(4))
    children = KernelSVM(C=4.0, kernel_name=name).fit_block(problems[:3])
    pool = [vector for child in children for vector in child.training_pairs()[0]]
    assert len({id(vector) for vector in pool}) < len(pool) > 32
    seen = []
    real = PlattCalibrator.fit
    monkeypatch.setattr(PlattCalibrator, "fit", lambda calibrator, decisions, labels: (
        seen.append(decisions) or real(calibrator, decisions, labels)
    ))
    cascaded = cascade_merge(children, C=4.0, gamma=0.3, kernel_name=name)
    assert [[_hex(d) for d in decisions] for decisions in seen] == [
        [_hex(cascaded.svm.decision(x)) for x in pool]
    ]


def test_fit_block_validates_every_problem_and_builds_no_table_for_one_class():
    good = ([SparseVector({0: 1.0}), SparseVector({1: 1.0})], [-1, 1])
    for bad, message in [
        (([SparseVector({0: 1.0})], [1, -1]), "length mismatch"),
        (([], []), "empty training set"),
        (([SparseVector({0: 1.0})], [2]), "labels must be"),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            KernelSVM().fit_block([good, bad])
    with mock.patch("repro.ml.kernel_svm.PairDots") as table:
        [model] = KernelSVM().fit_block([([SparseVector({0: 1.0})] * 3, [1] * 3)])
    assert not table.called and model.bias == 1.0
    assert KernelSVM().fit_block([]) == []


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


# -- Pegasos in lockstep: each problem as if trained alone ---------------------------


def _random_groups(rng, peers, ids):
    """``peers`` groups of problems over each peer's own documents: sizes
    2 to 11 in one call, some problems one-class, an empty document per
    peer, documents shared by several problems of a peer, and feature ids
    shared across peers."""
    groups = []
    for _ in range(peers):
        documents = _shuffled_vectors(rng, int(rng.integers(3, 14)), ids, max_size=12)
        documents[int(rng.integers(len(documents)))] = SparseVector()
        problems = []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(2, min(len(documents), 11) + 1))
            chosen = rng.choice(len(documents), size=n, replace=False).tolist()
            labels = rng.choice([-1, 1], size=n).tolist()
            if rng.random() < 0.2:
                labels = [labels[0]] * n
            problems.append(([documents[i] for i in chosen], labels))
        groups.append(problems)
    return groups


def _trained_alone(problem, lambda_reg, epochs, seed):
    vectors, labels = problem
    if set(labels) != {-1, 1}:
        return LinearSVMModel(weights=SparseVector(), bias=float(labels[0]))
    svm = LinearSVM(lambda_reg=lambda_reg, epochs=epochs, seed=seed)
    return ml_scalar.pegasos_fit(svm, vectors, labels)


def _margins(model, vectors):
    """``model.decision`` of each vector, as ``float.hex``."""
    return [_hex(ml_scalar.dot(model.weights, vector) + model.bias)
            for vector in vectors]


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_pegasos_block_trains_each_problem_as_if_alone(seed):
    """Bias and weights *in order* of every model, against the scalar steps
    on that problem alone: the step count sorts the active prefix, padding
    must never reach a real weight, and emission follows the first update.
    And every margin handed back is the scalar decision, bit for bit, both
    where the gather walks the vector and where the weights are shorter."""
    rng = np.random.default_rng(200 + seed)
    sizes, one_class, shared, walked = set(), 0, 0, {True: 0, False: 0}
    for case in range(12):
        groups = _random_groups(rng, peers=int(rng.integers(1, 5)), ids=30)
        lambda_reg, epochs = (1e-4, 0.05, 0.5)[case % 3], int(rng.integers(1, 5))
        got = pegasos_block(groups, lambda_reg=lambda_reg, epochs=epochs, seed=seed)
        assert [len(fitted) for fitted in got] == [len(group) for group in groups]
        for group, fitted in zip(groups, got):
            held = [id(vector) for vectors, _ in group for vector in vectors]
            shared += len(held) > len(set(held))
            for problem, (model, margins) in zip(group, fitted):
                want = _trained_alone(problem, lambda_reg, epochs, seed)
                assert model.bias == want.bias
                assert list(model.weights.items()) == list(want.weights.items())
                assert [_hex(margin) for margin in margins] == _margins(want, problem[0])
                assert margins == [model.decision(vector) for vector in problem[0]]
                sizes.add(len(problem[0]))
                one_class += len(set(problem[1])) == 1
                for vector in problem[0]:
                    walked[len(vector) < model.weights.nnz] += 1
    assert 2 in sizes and len(sizes) >= 8 and one_class and shared
    assert min(walked.values()) > 20  # both sides of the operand rule


def test_pegasos_margins_are_the_scalar_sum_in_the_vectors_order():
    """Margins where the order shows: products that all underflow to -0.0
    (from the int 0 the scalar sum is +0.0), a vector no weight shares a
    feature with, and ``[+B, s x7, -B]`` terms where left to right every
    ``s`` is absorbed."""
    big = [(0, 1e8)] + [(k, 0.5) for k in range(1, 8)] + [(8, -1e8)]
    cases = [
        [SparseVector({0: 1e-200, 1: -1e-200, 2: 1.0}), SparseVector({5: 1.0})],
        [SparseVector(big), SparseVector({9: -1.0}), SparseVector({20: 1.0})],
        [SparseVector({0: -1e-300, 1: -1e-300}), SparseVector({0: 1e-300, 3: 2.0}),
         SparseVector()],
    ]
    for vectors in cases:
        for labels in ([1, -1] * 2)[:len(vectors)], ([-1] + [1] * 3)[:len(vectors)]:
            for lambda_reg in (1e-4, 1.0):
                [[(model, margins)]] = pegasos_block(
                    [[(vectors, labels)]], lambda_reg=lambda_reg, epochs=3, seed=1
                )
                assert [_hex(margin) for margin in margins] == _margins(model, vectors)


def test_pegasos_block_refuses_what_linear_svm_refuses():
    good = ([SparseVector({0: 1.0}), SparseVector({1: 1.0})], [1, -1])
    for bad, message in [
        (([SparseVector()], [1, -1]), "length mismatch"),
        (([], []), "empty training set"),
        (([SparseVector(), SparseVector()], [1, 0]), "labels must be"),
    ]:
        with pytest.raises(ConfigurationError, match=message):
            pegasos_block([[good], [good, bad]], lambda_reg=1e-4, epochs=2, seed=0)
        with pytest.raises(ConfigurationError, match=message):
            LinearSVM().fit(*bad)
    for lambda_reg, epochs in [(0.0, 1), (float("nan"), 1), (1e-4, 0)]:
        with pytest.raises(ConfigurationError):
            pegasos_block([[good]], lambda_reg=lambda_reg, epochs=epochs, seed=0)
        with pytest.raises(ConfigurationError):
            LinearSVM(lambda_reg=lambda_reg, epochs=epochs)
    assert pegasos_block([[], []], lambda_reg=1e-4, epochs=2, seed=0) == [[], []]


def test_pegasos_block_chunks_stay_small_and_agree():
    """Problems whose walked entries overflow several chunks, and one
    problem longer than a chunk by itself, train and score as if alone."""
    rng = np.random.default_rng(11)
    documents = _shuffled_vectors(rng, 120, 400, max_size=300, min_size=200)
    labels = rng.choice([-1, 1], size=120).tolist()
    labels[:2] = [-1, 1]
    groups = [[(documents, labels), (documents[:9], labels[:9])]]
    chunked = []
    chunks = linear_svm._chunks
    with mock.patch.object(linear_svm, "_chunks", lambda cells: [
        chunked.append((cells.tolist(), list(chunks(cells)))) or chunked[-1][1]
    ][0]):
        got = pegasos_block(groups, lambda_reg=1.0, epochs=2, seed=3)
    for problem, (model, margins) in zip(groups[0], got[0]):
        want = _trained_alone(problem, 1.0, 2, 3)
        assert list(model.weights.items()) == list(want.weights.items())
        assert [_hex(margin) for margin in margins] == _margins(want, problem[0])
    [(cells, ranges)] = chunked
    assert cells[0] > linear_svm._CHUNK_CELLS and ranges == [(0, 1), (1, 2)]


def test_the_scalar_oracle_trains_pace_one_problem_at_a_time(monkeypatch):
    """With the oracles installed PACE's block is the scalar steps, so an
    end-to-end comparison against them compares two Pegasos, not one."""
    calls = []
    scalar = ml_scalar.pegasos_fit
    monkeypatch.setattr(
        ml_scalar, "pegasos_fit", lambda *problem: calls.append(1) or scalar(*problem)
    )
    ml_scalar.install_scalar_ml(monkeypatch)
    classifier = build_classifier("pace", build_scenario("chord", "churn"))
    classifier.train()
    models = [
        model for view in _views(classifier).values()
        for bundle in view.values() for model in bundle.models.values()
    ]
    assert len(calls) >= len({id(bundle) for view in _views(classifier).values()
                              for bundle in view.values()}) > 0
    assert any(model.weights.nnz for model in models)


def _views(classifier):
    """receiver -> the bundles it holds (origin -> bundle, in broadcast
    order), for every receiver that holds one."""
    views = {
        receiver: classifier.held_bundles(receiver)
        for receiver in classifier.scenario.peer_addresses
    }
    return {receiver: view for receiver, view in views.items() if view}


def _pace_centroids(classifier):
    """origin -> the items of each centroid its bundle carries, in order."""
    return {
        origin: [list(centroid.items()) for centroid in bundle.centroids]
        for view in _views(classifier).values()
        for origin, bundle in view.items()
    }


def test_the_scalar_oracle_clusters_pace_one_group_at_a_time(monkeypatch):
    """With the oracles installed PACE's k-means block is ``kmeans_fit``,
    one peer at a time, so an end-to-end comparison against them compares
    two k-means, not one; and every bundle's centroids come out the same
    either way, items in order."""
    plain = build_classifier("pace", build_scenario("chord", "churn"))
    plain.train()
    want = _pace_centroids(plain)
    calls = []
    scalar = ml_scalar.kmeans_fit
    monkeypatch.setattr(
        ml_scalar, "kmeans_fit", lambda *group: calls.append(1) or scalar(*group)
    )
    ml_scalar.install_scalar_ml(monkeypatch)
    classifier = build_classifier("pace", build_scenario("chord", "churn"))
    classifier.train()
    assert len(calls) >= len(_pace_centroids(classifier)) > 1
    assert _pace_centroids(classifier) == want


def test_the_scalar_oracle_trains_cempar_one_problem_at_a_time(monkeypatch):
    """With the oracles installed every two-class problem of CEMPaR's blocks
    (each peer's, each cascade's) trains through ``smo_fit`` and each
    cascade scores its training set one scalar ``decision`` at a time, so an
    end-to-end comparison against them compares two trainings, not one;
    and every regional model comes out the same either way."""
    def regional(classifier):
        return {
            key: _model_bits(model.svm) + (model.training_size,)
            for key, model in classifier.regional_models.items()
        }

    def train():
        classifier = build_classifier("cempar", build_scenario("chord", "churn"))
        classifier.train()
        return classifier

    two_class, scored = [], []
    with pytest.MonkeyPatch.context() as patch:
        fit_block, decisions_from = KernelSVM.fit_block, KernelSVMModel.decisions_from
        patch.setattr(KernelSVM, "fit_block", lambda svm, problems, table=None: (
            two_class.extend(set(labels) == {-1, 1} for _, labels in problems)
            or fit_block(svm, problems, table)
        ))
        patch.setattr(KernelSVMModel, "decisions_from", lambda model, table, xs: (
            scored.extend(xs) or decisions_from(model, table, xs)
        ))
        plain = train()
    calls = {"smo_fit": 0, "decision": 0}
    for name in calls:
        scalar = getattr(ml_scalar, name)
        monkeypatch.setattr(ml_scalar, name, lambda *args, name=name, scalar=scalar: (
            calls.__setitem__(name, calls[name] + 1) or scalar(*args)
        ))
    ml_scalar.install_scalar_ml(monkeypatch)
    classifier = train()
    assert calls == {"smo_fit": sum(two_class), "decision": len(scored)}
    assert len(scored) > sum(two_class) > len(classifier.regional_models) > 1
    assert regional(classifier) == regional(plain)


# -- k-means in lockstep: each group as if clustered alone ---------------------------


def _kmeans_groups(rng, count):
    """``count`` groups of 1 to 24 documents over a small id range, each
    document in its own order with signed values of mixed magnitude: whole
    groups of one repeated point, repeated documents, empty documents, and
    near-twins whose private keys cancel — a mean shorter than its members,
    so the centroid walks their dots, in an order of its own."""
    groups = []
    for _ in range(count):
        ids = int(rng.integers(4, 16))
        documents = [
            SparseVector((key, value * 10.0 ** int(rng.integers(-3, 3)))
                         for key, value in document.items())
            for document in _shuffled_vectors(rng, int(rng.integers(1, 25)), ids, ids)
        ]
        shape = rng.random()
        if shape < 0.15:
            documents = [documents[0]] * len(documents)
        elif shape < 0.4:
            documents += [documents[i] for i in rng.integers(len(documents), size=3)]
        elif shape < 0.8:
            [full] = _shuffled_vectors(rng, 1, ids, ids, min_size=ids)
            private = [(ids + 1, 1e-3), (ids + 2, -2e-3)]
            twin = [(key, value * 1.001) for key, value in reversed(full.items())]
            for document in (
                SparseVector(twin + [(key, -value) for key, value in private]),
                SparseVector(list(full.items()) + private),
            ):
                documents.insert(int(rng.integers(len(documents) + 1)), document)
        groups.append(documents)
    return groups


def _assert_clustered_alone(groups, got, k, max_iterations, seed):
    """Each result against ``kmeans_fit`` on its group alone: centroid items
    in order (and which centroids *are* documents), assignments, inertia
    bits and iteration count."""
    assert len(got) == len(groups)
    for group, result in zip(groups, got):
        want = ml_scalar.kmeans_fit(group, k, max_iterations, seed)
        assert [list(c.items()) for c in result.centroids] == [
            list(c.items()) for c in want.centroids
        ]
        assert [any(c is d for d in group) for c in result.centroids] == [
            any(c is d for d in group) for c in want.centroids
        ]
        assert result.assignments == want.assignments
        assert result.inertia.hex() == float(want.inertia).hex()
        assert result.iterations == want.iterations


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_kmeans_block_clusters_each_group_as_if_alone(seed):
    """Random blocks (k 1 to 4, 1 to 11 groups), with every path the block
    must take as the scalar one does counted: k above the group size, a
    group of one point (k-means++'s ``total <= 0`` draw), an empty cluster
    re-seeded at the farthest point, an empty document, dots walked by the
    document and by a shorter centroid, groups of one call stopping at
    different iterations, and the iteration cap."""
    rng = np.random.default_rng(300 + seed)
    seen = dict.fromkeys(
        ["k > n", "one point", "re-seeded", "empty", "doc walks", "centroid walks",
         "staggered", "capped"], 0
    )
    for _ in range(25):
        groups = _kmeans_groups(rng, int(rng.integers(1, 12)))
        k, cap = int(rng.integers(1, 5)), int(rng.choice([1, 2, 3, 50]))
        got = kmeans_block(groups, k=k, max_iterations=cap, seed=seed)
        _assert_clustered_alone(groups, got, k, cap, seed)
        seen["staggered"] += len({result.iterations for result in got}) > 1
        for group, result in zip(groups, got):
            seen["k > n"] += k > len(group)
            seen["one point"] += k > 1 and len(group) > 1 and all(
                document is group[0] for document in group
            )
            seen["re-seeded"] += any(any(c is d for d in group) for c in result.centroids)
            seen["empty"] += any(not document for document in group)
            seen["capped"] += result.iterations == cap
            for document, slot in zip(group, result.assignments):
                walker = len(document) <= len(result.centroids[slot])
                seen["doc walks" if walker else "centroid walks"] += 1
    assert all(seen.values()), seen


def test_kmeans_block_of_pace_groups_equals_the_scalar_fits():
    """The groups a PACE classifier clusters, as one block and as one
    ``KMeans.fit`` each."""
    classifier = build_classifier("pace", build_scenario("chord", "churn"))
    groups = [[item.vector for item in items]
              for _, items in sorted(classifier.peer_data.items()) if items]
    assert len(groups) > 1
    _assert_clustered_alone(
        groups, kmeans_block(groups, k=2, max_iterations=50, seed=0), 2, 50, 0
    )
    _assert_clustered_alone(groups, [KMeans(k=2).fit(group) for group in groups], 2, 50, 0)


def test_kmeans_block_edges():
    """Groups with no entry at all, a lone empty document, and feature ids
    too far apart to key by (group, id) directly, in one block each."""
    for groups in (
        [[SparseVector(), SparseVector()], [SparseVector()]],
        [[SparseVector(), SparseVector({1: 2.0})], [SparseVector()]],
        [[SparseVector({-5: 1.0, 2 ** 40: 2.0}), SparseVector({-(2 ** 62): 3.0})]],
    ):
        _assert_clustered_alone(
            groups, kmeans_block(groups, k=3, max_iterations=4, seed=1), 3, 4, 1
        )


def test_kmeans_block_refuses_what_kmeans_refuses():
    good = [SparseVector({0: 1.0}), SparseVector({1: 1.0})]
    with pytest.raises(ConfigurationError, match="empty dataset"):
        kmeans_block([good, []], k=2, max_iterations=5, seed=0)
    for settings_, field in [
        (dict(k=1.5, max_iterations=5), "k"),
        (dict(k=0, max_iterations=5), "k"),
        (dict(k=2, max_iterations=0), "max_iterations"),
        (dict(k=2, max_iterations=2.5), "max_iterations"),
    ]:
        with pytest.raises(ConfigurationError, match=rf"^{field} must be"):
            kmeans_block([good], seed=0, **settings_)
        with pytest.raises(ConfigurationError, match=rf"^{field} must be"):
            ml_scalar.kmeans_block([good], seed=0, **settings_)
    assert kmeans_block([], k=2, max_iterations=5, seed=0) == []


# -- PACE: one shared index, every receiver's own buckets unchanged ---------------


def _own_buckets(classifier):
    """receiver -> its own index's buckets, in their order, each entry
    ``(centroid, origin)``: read off the shared index (every entry in
    insertion order, which its payload ``(column, place)`` sorts in, kept
    where the receiver's row holds its bundle), or
    the per-receiver oracle's own indexes where it is installed."""
    receivers = classifier._receivers
    if receivers in ml_scalar._STORES:
        indexes = ml_scalar.per_receiver_store(classifier).indexes
        return {receiver: list(index._buckets.items())
                for receiver, index in indexes.items() if len(index)}
    entries = sorted(
        (payload, key, centroid)
        for key, bucket in receivers.lsh._buckets.items()
        for centroid, payload in bucket
    )
    own = {}
    for receiver, row in receivers.row_of.items():
        buckets = {}
        for (column, _), key, centroid in entries:
            if receivers.held[row, column]:
                origin = receivers.bundles[column].origin
                buckets.setdefault(key, []).append((centroid, origin))
        if buckets:
            own[receiver] = list(buckets.items())
    return own


@pytest.mark.parametrize("overlay", ["chord", "unstructured"])
@pytest.mark.parametrize("protocol", ["pace", "private"])
def test_pace_buckets_equal_per_receiver_hashing(protocol, overlay, monkeypatch):
    """Every receiver's own buckets after ``train()`` — under churn, with
    flood duplicates, with noisy re-created bundles, and again after a
    second ``train()`` — are what they are when each receiver keeps its own
    index and hashes for itself, keys and entries in order; and the shared
    index takes one insert per centroid broadcast."""
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
        assert _own_buckets(fast) == _own_buckets(slow)
        assert any(_own_buckets(fast).values())
        assert _views(fast) == _views(slow)
        # one signature and one insert per centroid of each bundle that
        # was broadcast ...
        broadcast = fast._receivers.bundles
        assert hashed == sum(len(b.centroids) for b in broadcast) == len(fast._receivers.lsh)
        # ... where per-receiver hashing pays one more per entry stored
        stored = sum(len(b.centroids) for view in _views(fast).values()
                     for b in view.values())
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
    ``stores`` (receiver -> bundles), stored the way broadcasts store: each
    bundle once, in the order bundles first appear in ``stores``, held by
    every receiver that lists it (each list in that order)."""
    classifier = PaceClassifier(
        build_scenario("fullmesh", "none"), {0: []}, _PACE_TAGS, PaceConfig(**config)
    )
    classifier._trained = True
    holders = {}  # id(bundle) -> (bundle, receivers), in broadcast order
    for receiver, bundles in stores.items():
        for bundle in bundles:
            holders.setdefault(id(bundle), (bundle, []))[1].append(receiver)
    order = list(holders)
    for bundles in stores.values():
        places = [order.index(id(bundle)) for bundle in bundles]
        assert places == sorted(places), "a store out of broadcast order"
    signature = classifier._receivers.lsh.signature
    for bundle, receivers in holders.values():
        keys = [signature(centroid) for centroid in bundle.centroids]
        classifier._store_bundle(bundle, keys, receivers)
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
    kept = data.draw(st.sets(st.sampled_from(range(origins))))
    classifier = _pace_holding(
        {0: bundles, 1: [bundles[origin] for origin in sorted(kept)]},
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


def test_pace_candidates_the_receiver_does_not_hold_take_no_place():
    """The nearer bundle is held by receiver 1 only: receiver 0's probe never
    sees its centroid, so with ``top_k = 1`` the farther one votes there,
    as it does in an index that never stored the nearer one."""
    near = _bundle(1, [_direction(1.0)], {"a": ({0: 1.0}, 0.0)})
    far = _bundle(2, [_direction(5.0)], {"b": ({0: 1.0}, 0.0)})
    query = _direction(1.1)
    classifier = _pace_holding({1: [near, far], 0: [far]}, top_k=1)
    lacking = _assert_same_scores(classifier, 0, query)
    assert lacking["b"] > 0.0 == lacking["a"]
    holding = _assert_same_scores(classifier, 1, query)
    assert holding["a"] > 0.0 == holding["b"]
    reference = _pace_holding({0: [far]}, top_k=1)
    assert reference.predict_scores(0, query) == lacking


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


@pytest.mark.parametrize("num_bits", [1, 3, 8])
@settings(max_examples=40, deadline=None)
@given(stored=st.lists(vectors(max_id=12, max_size=4), max_size=30),
       queries=st.lists(vectors(max_id=14, max_size=4), min_size=1, max_size=4),
       top_k=st.integers(1, 12))
def test_lsh_probe_visits_buckets_in_the_enumerated_order(num_bits, stored, queries,
                                                          top_k):
    """Keys up to 2 flips by flipped bits, occupied buckets beyond in
    first-fill order, stopping at the first distance with ``top_k``
    entries: the per-distance key walk the probe's mask table and one-pass
    distances replaced."""
    index = RandomHyperplaneLSH(num_bits=num_bits, seed=5)
    for payload, vector in enumerate(stored):
        index.insert(vector, payload)
    for query in queries:
        assert index.candidates(query, top_k) == ml_scalar.candidates(index, query, top_k)


def test_lsh_probe_order_on_a_crowded_index():
    """Enough buckets at every distance that their order shows."""
    rng = np.random.default_rng(8)
    index = RandomHyperplaneLSH(num_bits=8, seed=17)
    for payload, vector in enumerate(_shuffled_vectors(rng, 150, 60, max_size=6, min_size=1)):
        index.insert(vector, payload)
    for query in _shuffled_vectors(rng, 60, 60, max_size=6, min_size=1):
        for top_k in (1, 5, 20, 60):
            got = index.candidates(query, top_k)
            assert [p for _, p in got] == [
                p for _, p in ml_scalar.candidates(index, query, top_k)
            ]


# -- PACE: the shared probe against each receiver's own index ----------------------


def _hamming(a, b):
    return bin(a ^ b).count("1")


def test_pace_probes_far_buckets_in_the_receivers_own_fill_order():
    """Receiver 0 misses the bundle that first filled a bucket 3 flips from
    the query.  Its own index filled that bucket only with a later bundle,
    after another bucket 3 flips away, so it probes that other bucket first;
    with every candidate equally distant and ``top_k = 1`` the first probed
    votes.  Probing in the shared index's first-fill order lets the other
    bundle vote."""
    query, filled_first, filled_later = (_direction(1.0, (k,)) for k in (0, 1, 4))
    missed = _bundle(1, [filled_first], {"c": ({1: 1.0}, 0.0)})
    earlier = _bundle(2, [filled_later], {"a": ({0: 1.0}, 0.0)})
    later = _bundle(3, [_direction(1.0, (1,))], {"b": ({0: 1.0}, 0.0)})
    classifier = _pace_holding({1: [missed, earlier, later], 0: [earlier, later]},
                               top_k=1)
    signature = classifier._receivers.lsh.signature
    keys = [signature(vector) for vector in (query, filled_first, filled_later)]
    assert _hamming(keys[0], keys[1]) == _hamming(keys[0], keys[2]) == 3
    assert keys[1] != keys[2]
    assert list(classifier._receivers.lsh._buckets) == [keys[1], keys[2]]
    found = classifier._receivers.candidates(0, query, 1)
    assert [payload for _, payload in found] == [(1, 0), (2, 0)]  # earlier, later
    scores = _assert_same_scores(classifier, 0, query)
    assert scores["a"] > 0.0 == scores["b"] == scores["c"]
    reference = _pace_holding({0: [earlier, later]}, top_k=1)
    assert reference.predict_scores(0, query) == scores
    # the receiver that holds all three probes the shared order
    assert _assert_same_scores(classifier, 1, query)["c"] > 0.0


@functools.lru_cache(maxsize=None)
def _broadcast_bundles(protocol, overlay):
    """The bundles one round of ``protocol`` on ``overlay`` broadcasts over
    24 peers, with the documents to query them with."""
    corpus = DeliciousGenerator(
        num_users=24, seed=5, num_tags=4, docs_per_user_range=(4, 6),
        vocabulary_size=150, topic_words_per_tag=18, doc_length_range=(10, 18),
    ).generate()
    peer_data = corpus_to_peer_data(corpus, PreprocessingPipeline(dimension=2 ** 16))
    tags = sorted(corpus.tag_universe())
    classifier = build_classifier(
        protocol, build_scenario(overlay, "churn", num_peers=24), peer_data, tags
    )
    classifier.train()
    items = [item for held in peer_data.values() for item in held]
    return list(classifier._receivers.bundles), items, tags


def _holding_round(protocol, overlay, tags, top_k):
    classifier = build_classifier(
        protocol, build_scenario(overlay, "none", num_peers=24), {0: []}, tags
    )
    classifier.config.top_k = top_k
    classifier._trained = True
    return classifier


@pytest.mark.parametrize("overlay", ["chord", "unstructured"])
@pytest.mark.parametrize("protocol", ["pace", "private"])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), top_k=st.integers(1, 12),
       down=st.sampled_from([0.0, 0.3, 0.6, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_shared_index_equals_per_receiver_stores(protocol, overlay, data, top_k,
                                                  down, seed):
    """Bundles broadcast in a random order, each reaching the receivers a
    churn mask leaves up (its sender always, some twice as a flood would):
    every receiver's candidates, in order, its scores bit for bit and the
    micro-F1 they give are those of one index and one store per
    receiver."""
    bundles, items, tags = _broadcast_bundles(protocol, overlay)
    order = data.draw(st.permutations(range(len(bundles))))
    rng = np.random.default_rng(seed)
    fast = _holding_round(protocol, overlay, tags, top_k)
    slow = _holding_round(protocol, overlay, tags, top_k)
    ml_scalar.install_per_receiver_store(slow)
    receivers = fast.scenario.peer_addresses
    for position in order:
        bundle = bundles[position]
        up = [r for r in receivers if rng.random() >= down]
        reached = up + up[: len(up) // 3] + [bundle.origin]
        keys = [fast._receivers.lsh.signature(c) for c in bundle.centroids]
        fast._store_bundle(bundle, keys, reached)
        slow._store_bundle(bundle, keys, reached)
    queries = [items[i] for i in rng.choice(len(items), size=8, replace=False)]
    indexes = ml_scalar.per_receiver_store(slow).indexes
    truth, predicted = [], {"fast": [], "slow": []}
    for receiver in receivers:
        assert fast.held_bundles(receiver) == slow.held_bundles(receiver)
        for item in queries:
            got = fast._receivers.candidates(receiver, item.vector, top_k)
            index = indexes.get(receiver)
            want = [] if index is None else ml_scalar.candidates(index, item.vector, top_k)
            columns = fast._receivers.bundles
            assert [(id(c), columns[column].origin) for c, (column, _) in got] == [
                (id(c), origin) for c, origin in want
            ]
            fast_scores = fast.predict_scores(receiver, item.vector)
            slow_scores = slow.predict_scores(receiver, item.vector)
            assert {t: _hex(v) for t, v in fast_scores.items()} == {
                t: _hex(v) for t, v in slow_scores.items()
            }
            truth.append(item.tags)
            predicted["fast"].append(fast.predict_tags(receiver, item.vector))
            predicted["slow"].append(slow.predict_tags(receiver, item.vector))
    assert micro_f1(truth, predicted["fast"], tags) == micro_f1(
        truth, predicted["slow"], tags
    )


@pytest.mark.parametrize("protocol", ["pace", "private"])
def test_pace_block_is_built_on_the_first_query_and_dropped_by_train(protocol):
    classifier = build_classifier(protocol, build_scenario("chord", "churn"))
    queries = [item.vector for items in classifier.peer_data.values()
               for item in items]
    classifier.train()
    assert classifier._block is None  # train() packs nothing
    for receiver in _views(classifier):
        for query in queries:
            _assert_same_scores(classifier, receiver, query)
    first = classifier._block
    distinct = {id(bundle) for view in _views(classifier).values()
                for bundle in view.values()}
    assert set(first.model_rows) == distinct  # one block, shared bundles once
    assert len(first.model_rows) == len(classifier._receivers.bundles)
    # retraining on other data replaces every bundle, and the block with them
    classifier.peer_data = {
        address: items[: len(items) // 2 + 1]
        for address, items in classifier.peer_data.items()
    }
    classifier.train()
    assert classifier._block is None
    for receiver in _views(classifier):
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


def _assert_same_autotag(workload_class, shape, seed, install, trained=None):
    """The workload run with ``install``'s oracles in place and without:
    the same tag sets and the same exact values, and the same
    ``trained(classifier)`` where one is given; returns the plain run."""
    with pytest.MonkeyPatch.context() as patch:
        install(patch)
        want = _run(workload_class, shape, seed)
        # read while the oracles that hold its state are installed
        want_trained = trained and trained(want.system.classifier)
    got = _run(workload_class, shape, seed)
    assert any(want._predicted)  # the oracle run tagged something
    assert got._predicted == want._predicted
    assert got.exact == want.exact  # scenario digest, micro-F1, bytes per peer
    if trained is not None:
        assert trained(got.system.classifier) == want_trained
    return got


@pytest.mark.parametrize("name, resized", [
    pytest.param("TagCempar", {}, id="TagCempar"),
    pytest.param("TagPaceChurn", {}, id="TagPaceChurn"),
    pytest.param("TagPaceChurn", {"docs_per_user": 80}, id="TagPaceChurn-clustering"),
])
def test_autotag_results_agree_with_the_scalar_oracles(name, resized, monkeypatch):
    """At the smoke shapes.  There every PACE peer clusters 2 documents with
    k = 2, each centroid one document, which no k-means fault can move; the
    clustering row gives every peer more documents than clusters (counted
    on the plain run's k-means block) and compares every bundle's
    centroids too: a wrong centroid seldom flips a tag set."""
    workload_class = getattr(_perf_module("workloads"), name)
    surplus = []  # documents beyond k, per clustered group
    block = kmeans.kmeans_block

    def counted(groups, **settings):
        surplus.extend(len(group) - settings["k"] for group in groups)
        return block(groups, **settings)

    monkeypatch.setattr(kmeans, "kmeans_block", counted)
    _assert_same_autotag(
        workload_class, dict(workload_class.SMOKE, **resized), 0,
        ml_scalar.install_scalar_ml, _pace_centroids if resized else None,
    )
    if resized:
        assert surplus and min(surplus) > 0, surplus


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
        views = _views(classifier)
        for receiver in sorted(views):
            for items in classifier.peer_data.values():
                for item in items:
                    compared += 1
                    try:
                        _assert_same_scores(classifier, receiver, item.vector)
                    except AssertionError:
                        mismatched += 1
        held = {origin for view in views.values() for origin in view}
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
