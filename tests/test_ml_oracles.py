"""The array forms of ``repro.ml`` against the scalar loops they replaced
(``tests/reference/ml_scalar.py``).

Bit-exact by construction, so asserted with ``==``: the cached squared norm
(hence ``gram_matrix``, the SMO trajectory, SV sets and wire bytes) and the
LSH ``signature``.  Held to a tolerance: the packed ``decision``, whose
dot products and final sum associate differently — and, end to end, to the
same AutoTag tag sets, digest and micro-F1 on the two tagging workloads of
the repo benchmark at their smoke shapes.
"""

import importlib
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ml_scalar
from repro.ml.kernel_svm import KernelSVM, KernelSVMModel, SupportVector
from repro.ml.kernels import gram_matrix, kernel_by_name
from repro.ml.lsh import RandomHyperplaneLSH
from repro.ml.sparse import SparseVector

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
    gram = gram_matrix(data, kernel_by_name(name, gamma=0.7))
    assert np.array_equal(gram, ml_scalar.gram_matrix(data, name, 0.7))
    # and again, now that every norm is cached
    again = gram_matrix(data, kernel_by_name(name, gamma=0.7))
    assert np.array_equal(again, gram)


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
    assert model.predict(SparseVector()) == -1


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


# -- end to end: the scientific result, not only the digest ---------------------------


def _perf_module(name):
    """A module of the repo benchmark (a directory of scripts, not a
    package: it is put on ``sys.path`` the way ``run.py`` finds it)."""
    if PERF not in sys.path:
        sys.path.insert(0, PERF)
    return importlib.import_module(name)


def _run_smoke(workload_class):
    """One repetition of a benchmark workload at its SMOKE shape, seed 0:
    (exact values, predicted tag sets)."""
    checks = _perf_module("workloads").Checks()
    watch = _perf_module("stopwatch").Stopwatch(calibrated=False)
    workload = workload_class(workload_class.SMOKE, 0, "", checks, watch)
    watch.start()
    workload.setup()
    workload.load()
    workload.query()
    workload.finish()
    assert checks.failed == 0
    return workload.exact, workload._predicted


@pytest.mark.parametrize("name", ["TagCempar", "TagPaceChurn"])
def test_autotag_results_agree_with_the_scalar_oracles(name, monkeypatch):
    workload_class = getattr(_perf_module("workloads"), name)
    with monkeypatch.context() as patch:
        ml_scalar.install_scalar_ml(patch)
        want_exact, want_tags = _run_smoke(workload_class)
    got_exact, got_tags = _run_smoke(workload_class)
    assert any(want_tags)  # the oracle run tagged something
    assert got_tags == want_tags
    assert got_exact == want_exact  # scenario digest, micro-F1, bytes per peer


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
