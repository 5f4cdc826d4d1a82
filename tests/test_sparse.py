"""Tests for repro.ml.sparse, including hypothesis property tests."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference.ml_scalar import squared_norm
from repro.ml.sparse import SparseVector

# Values are bounded away from zero: term frequencies / weights never carry
# float dust, and squared-norm arithmetic underflows below ~1e-150.
_magnitude = st.floats(min_value=1e-3, max_value=100.0)
sparse_entries = st.dictionaries(
    keys=st.integers(min_value=0, max_value=200),
    values=st.one_of(_magnitude, _magnitude.map(lambda x: -x)),
    max_size=20,
)


def sv(d):
    return SparseVector(d)


def dense(vector, dimension):
    """``vector`` as a float64 array of length ``dimension`` (the oracle)."""
    out = np.zeros(dimension, dtype=np.float64)
    for key, value in vector.items():
        out[key] = value
    return out


class TestConstruction:
    def test_zero_values_dropped(self):
        v = sv({1: 0.0, 2: 3.0})
        assert 1 not in v
        assert v[2] == 3.0
        assert v.nnz == 1

    def test_from_counts(self):
        v = SparseVector.from_weights({5: 2, 9: 1}, normalize=False)
        assert v[5] == 2.0
        assert v[9] == 1.0
        assert all(type(value) is float for value in v.values())

    def test_from_pairs(self):
        v = SparseVector([(1, 2.0), (3, 0.0)])
        assert v.to_dict() == {1: 2.0}

    def test_missing_key_is_zero(self):
        v = sv({1: 1.0})
        assert v[999] == 0.0
        assert v.get(999) == 0.0
        assert v.get(999, -1.0) == -1.0


class TestAlgebra:
    def test_dot_disjoint_is_zero(self):
        assert sv({1: 2.0}).dot(sv({2: 3.0})) == 0.0

    def test_dot_overlap(self):
        assert sv({1: 2.0, 2: 1.0}).dot(sv({1: 3.0, 3: 5.0})) == 6.0

    def test_add_with_scale(self):
        result = sv({1: 1.0}).add(sv({1: 2.0, 2: 1.0}), scale=2.0)
        assert result.to_dict() == {1: 5.0, 2: 2.0}

    def test_add_cancellation_removes_entry(self):
        result = sv({1: 2.0}).add(sv({1: -2.0}))
        assert result.nnz == 0

    def test_scale_zero_gives_empty(self):
        assert sv({1: 5.0}).scale(0.0).nnz == 0

    def test_norm(self):
        assert sv({1: 3.0, 2: 4.0}).norm() == pytest.approx(5.0)

    def test_normalized_unit_norm(self):
        v = sv({1: 3.0, 2: 4.0}).normalized()
        assert v.norm() == pytest.approx(1.0)

    def test_normalized_zero_vector(self):
        assert sv({}).normalized().nnz == 0

    def test_distance_symmetry(self):
        a, b = sv({1: 1.0}), sv({2: 2.0})
        assert a.distance(b) == pytest.approx(b.distance(a))
        assert a.distance(b) == pytest.approx(math.sqrt(5.0))


class TestMisc:
    def test_wire_size(self):
        assert sv({1: 1.0, 2: 2.0}).wire_size() == 24
        assert sv({}).wire_size() == 0

    def test_equality_and_hash(self):
        assert sv({1: 1.0}) == sv({1: 1.0})
        assert sv({1: 1.0}) != sv({1: 2.0})
        assert hash(sv({1: 1.0})) == hash(sv({1: 1.0}))


@given(sparse_entries, sparse_entries)
def test_dot_commutative(a, b):
    va, vb = sv(a), sv(b)
    assert va.dot(vb) == pytest.approx(vb.dot(va))


@given(sparse_entries, sparse_entries)
def test_add_matches_dense_addition(a, b):
    va, vb = sv(a), sv(b)
    dim = max([*va, *vb, 0]) + 1
    np.testing.assert_allclose(
        dense(va.add(vb), dim),
        dense(va, dim) + dense(vb, dim),
        atol=1e-9,
    )


@given(sparse_entries)
def test_norm_matches_numpy(a):
    va = sv(a)
    dim = max(va, default=0) + 1
    assert va.norm() == pytest.approx(
        float(np.linalg.norm(dense(va, dim))), abs=1e-9
    )


@given(sparse_entries, sparse_entries)
def test_triangle_inequality(a, b):
    va, vb = sv(a), sv(b)
    assert va.distance(vb) <= va.norm() + vb.norm() + 1e-6


@given(sparse_entries, sparse_entries)
def test_cauchy_schwarz(a, b):
    va, vb = sv(a), sv(b)
    assert abs(va.dot(vb)) <= va.norm() * vb.norm() + 1e-6


@given(sparse_entries)
def test_normalized_idempotent(a):
    v = sv(a).normalized()
    again = v.normalized()
    assert v.distance(again) == pytest.approx(0.0, abs=1e-6)


# -- the cached squared norm relies on immutability -----------------------------


@given(sparse_entries, sparse_entries, st.floats(min_value=-3.0, max_value=3.0))
def test_builders_return_fresh_vectors_with_their_own_norm(a, b, factor):
    va, vb = sv(a), sv(b)
    norm_a, norm_b = va.squared_norm(), vb.squared_norm()  # cached from here on
    built = [
        va.add(vb, scale=factor),
        va.scale(factor),
        va.normalized(),
        SparseVector.from_weights({key: 3 for key in a}, normalize=False),
        SparseVector.from_weights({key: 3 for key in a}, normalize=True),
        SparseVector(va.to_dict()),
    ]
    for fresh in built:
        assert fresh is not va and fresh is not vb
        assert fresh.squared_norm() == squared_norm(fresh)
        assert fresh.squared_norm() == fresh.squared_norm()
    # the operands kept their entries and their norms
    assert va == sv(a) and vb == sv(b)
    assert va.squared_norm() == norm_a == squared_norm(va)
    assert vb.squared_norm() == norm_b == squared_norm(vb)


_term_weights = st.dictionaries(
    keys=st.integers(min_value=0, max_value=2 ** 18),
    values=st.one_of(
        st.integers(min_value=1, max_value=10 ** 6),
        st.floats(min_value=1e-3, max_value=1e6),
    ),
    max_size=40,
)


@given(_term_weights, st.booleans())
def test_from_weights_is_the_float_vector_normalized_bit_for_bit(weights, normalize):
    built = SparseVector.from_weights(weights, normalize)
    expected = SparseVector({key: float(w) for key, w in weights.items()})
    if normalize:
        expected = expected.normalized()
    assert [(k, v.hex()) for k, v in built.items()] == [
        (k, v.hex()) for k, v in expected.items()
    ]
    assert built._squared_norm is None  # summed on first use, like the rest


@given(sparse_entries)
def test_to_dict_is_a_copy(a):
    v = sv(a)
    norm = v.squared_norm()
    v.to_dict()[999] = 5.0
    assert 999 not in v
    assert v.squared_norm() == norm


@given(sparse_entries, st.booleans())
def test_pickle_round_trip_keeps_equality_hash_and_norm(a, warm):
    """tcp/mp workers ship vectors: with the norm cached or not yet."""
    v = sv(a)
    if warm:
        v.squared_norm()
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        shipped = pickle.loads(pickle.dumps(v, protocol))
        assert shipped == v
        assert hash(shipped) == hash(v)
        assert shipped.squared_norm() == v.squared_norm() == squared_norm(v)


def test_no_attribute_can_be_added():
    with pytest.raises(AttributeError):
        sv({1: 1.0}).extra = 1
