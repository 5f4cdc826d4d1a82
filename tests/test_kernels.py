"""Tests for kernel functions and the Gram matrix."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml.kernels import (
    gram_matrix,
    kernel_by_name,
    linear_kernel,
    make_polynomial,
    make_rbf,
    polynomial_kernel,
    rbf_kernel,
)
from repro.ml.sparse import SparseVector


def sv(d):
    return SparseVector(d)


class TestLinearKernel:
    def test_matches_dot(self):
        a, b = sv({0: 2.0, 1: 1.0}), sv({0: 1.0, 2: 5.0})
        assert linear_kernel(a, b) == a.dot(b) == 2.0


class TestRbfKernel:
    def test_self_similarity_is_one(self):
        a = sv({0: 1.0, 3: 2.0})
        assert rbf_kernel(a, a) == pytest.approx(1.0)

    def test_decays_with_distance(self):
        origin = sv({0: 0.0})
        near = sv({0: 0.5})
        far = sv({0: 5.0})
        assert rbf_kernel(origin, near) > rbf_kernel(origin, far)

    def test_gamma_controls_width(self):
        a, b = sv({0: 1.0}), sv({0: 2.0})
        sharp = make_rbf(5.0)
        wide = make_rbf(0.1)
        assert sharp(a, b) < wide(a, b)

    def test_explicit_value(self):
        a, b = sv({0: 1.0}), sv({0: 2.0})
        assert rbf_kernel(a, b, gamma=1.0) == pytest.approx(math.exp(-1.0))


class TestPolynomialKernel:
    def test_explicit_value(self):
        a, b = sv({0: 2.0}), sv({0: 3.0})
        assert polynomial_kernel(a, b, degree=2, coef0=1.0) == pytest.approx(49.0)

    def test_factory(self):
        kernel = make_polynomial(3, coef0=0.0)
        assert kernel(sv({0: 2.0}), sv({0: 1.0})) == pytest.approx(8.0)


class TestKernelByName:
    def test_resolution(self):
        a, b = sv({0: 1.0}), sv({0: 2.0})
        assert kernel_by_name("linear")(a, b) == 2.0
        assert kernel_by_name("rbf", gamma=1.0)(a, b) == pytest.approx(
            math.exp(-1.0)
        )
        assert kernel_by_name("poly", degree=2)(a, b) == pytest.approx(9.0)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            kernel_by_name("sigmoid")


class TestGramMatrix:
    def test_symmetry_and_diagonal(self):
        vectors = [sv({0: 1.0}), sv({1: 2.0}), sv({0: 1.0, 1: 1.0})]
        gram = gram_matrix(vectors, "rbf", 0.5)
        np.testing.assert_allclose(gram, gram.T)
        np.testing.assert_allclose(np.diag(gram), 1.0)

    def test_rbf_gram_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        vectors = [
            sv({i: float(rng.normal()) for i in range(4)}) for _ in range(8)
        ]
        gram = gram_matrix(vectors, "rbf", 0.3)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-8


entries = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=-5, max_value=5).filter(lambda x: abs(x) > 1e-3),
    max_size=6,
)


@given(entries, entries)
def test_rbf_symmetric_and_bounded(a, b):
    va, vb = sv(a), sv(b)
    value = rbf_kernel(va, vb)
    assert 0.0 < value <= 1.0 + 1e-12
    assert value == pytest.approx(rbf_kernel(vb, va))


@given(entries, entries)
def test_linear_kernel_bilinear_in_scale(a, b):
    va, vb = sv(a), sv(b)
    assert linear_kernel(va.scale(2.0), vb) == pytest.approx(
        2.0 * linear_kernel(va, vb), rel=1e-9, abs=1e-9
    )
