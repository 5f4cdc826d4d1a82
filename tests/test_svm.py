"""Tests for the linear (Pegasos) and kernel (SMO) SVMs."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.kernel_svm import KernelSVM
from repro.ml.linear_svm import LinearSVM, LinearSVMModel
from repro.ml.sparse import SparseVector


NAN, INF = float("nan"), float("inf")


def make_linearly_separable(n=60, seed=0):
    """Two Gaussian blobs along feature 0/1, labels by which blob."""
    rng = np.random.default_rng(seed)
    vectors, labels = [], []
    for _ in range(n // 2):
        vectors.append(
            SparseVector({0: 2.0 + rng.normal(0, 0.3), 1: rng.normal(0, 0.3)})
        )
        labels.append(1)
        vectors.append(
            SparseVector({0: -2.0 + rng.normal(0, 0.3), 1: rng.normal(0, 0.3)})
        )
        labels.append(-1)
    return vectors, labels


def make_xor(n=80, seed=1):
    """XOR pattern — not linearly separable, RBF should solve it."""
    rng = np.random.default_rng(seed)
    vectors, labels = [], []
    for _ in range(n // 4):
        for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            x = sx * (1.0 + rng.normal(0, 0.1))
            y = sy * (1.0 + rng.normal(0, 0.1))
            vectors.append(SparseVector({0: x, 1: y}))
            labels.append(1 if sx * sy > 0 else -1)
    return vectors, labels


def _training_accuracy(svm, vectors, labels):
    """The share of ``vectors`` the sign of the model's decision gets
    right — the cascade's own ``training_accuracy``."""
    decisions = [svm.model.decision(x) for x in vectors]
    return sum((1 if d >= 0 else -1) == y for d, y in zip(decisions, labels)) / len(labels)


class TestLinearSVM:
    def test_separable_data_high_accuracy(self):
        vectors, labels = make_linearly_separable()
        svm = LinearSVM(epochs=20, seed=3).fit(vectors, labels)
        assert _training_accuracy(svm, vectors, labels) >= 0.95

    def test_decision_signs(self):
        vectors, labels = make_linearly_separable()
        svm = LinearSVM(epochs=20).fit(vectors, labels)
        assert svm.model.decision(SparseVector({0: 3.0})) >= 0
        assert svm.model.decision(SparseVector({0: -3.0})) < 0

    def test_one_class_degenerate(self):
        vectors = [SparseVector({0: 1.0}), SparseVector({1: 1.0})]
        svm = LinearSVM().fit(vectors, [1, 1])
        assert svm.model.decision(SparseVector({5: 1.0})) >= 0

    def test_empty_training_raises(self):
        with pytest.raises(ConfigurationError):
            LinearSVM().fit([], [])

    def test_bad_labels_raise(self):
        with pytest.raises(ConfigurationError):
            LinearSVM().fit([SparseVector({0: 1.0})], [2])

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            LinearSVM().fit([SparseVector({0: 1.0})], [1, -1])

    def test_model_before_fit_raises(self):
        with pytest.raises(NotTrainedError):
            LinearSVM().model

    def test_deterministic_given_seed(self):
        vectors, labels = make_linearly_separable()
        m1 = LinearSVM(seed=7).fit(vectors, labels).model
        m2 = LinearSVM(seed=7).fit(vectors, labels).model
        assert m1.weights == m2.weights
        assert m1.bias == m2.bias

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            LinearSVM(lambda_reg=0.0)
        with pytest.raises(ConfigurationError):
            LinearSVM(epochs=0)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_lambda_reg_is_refused(self, value):
        with pytest.raises(ConfigurationError, match="lambda_reg"):
            LinearSVM(lambda_reg=value)


class TestLinearSVMModel:
    def test_truncation_keeps_largest_weights(self):
        model = LinearSVMModel(
            weights=SparseVector({1: 0.1, 2: -5.0, 3: 2.0}), bias=0.5
        )
        truncated = model.truncated(2)
        assert set(truncated.weights) == {2, 3}
        assert truncated.bias == 0.5

    def test_truncation_noop_when_small(self):
        model = LinearSVMModel(weights=SparseVector({1: 1.0}), bias=0.0)
        assert model.truncated(10) is model

    def test_truncation_invalid(self):
        model = LinearSVMModel(weights=SparseVector({1: 1.0}), bias=0.0)
        with pytest.raises(ConfigurationError):
            model.truncated(0)

    def test_wire_size(self):
        model = LinearSVMModel(weights=SparseVector({1: 1.0, 2: 2.0}), bias=0.0)
        assert model.wire_size() == 24 + 8

    def test_decision_is_the_margin(self):
        """``w . x + b``: a feature the model has no weight for adds
        nothing, and the empty vector scores the bias."""
        model = LinearSVMModel(
            weights=SparseVector({1: 2.0, 2: -0.5}), bias=0.25
        )
        assert model.decision(SparseVector({1: 1.5, 2: 4.0, 9: 7.0})) == 1.25
        assert model.decision(SparseVector()) == 0.25


class TestKernelSVM:
    def test_separable_linear_kernel(self):
        vectors, labels = make_linearly_separable()
        svm = KernelSVM(kernel_name="linear", C=10.0).fit(vectors, labels)
        assert _training_accuracy(svm, vectors, labels) >= 0.95

    def test_xor_needs_rbf(self):
        vectors, labels = make_xor()
        rbf = KernelSVM(kernel_name="rbf", gamma=1.0, C=10.0).fit(vectors, labels)
        assert _training_accuracy(rbf, vectors, labels) >= 0.9

    def test_support_vectors_subset_of_training(self):
        vectors, labels = make_linearly_separable(n=30)
        svm = KernelSVM(C=1.0).fit(vectors, labels)
        train_set = set(vectors)
        assert svm.model.num_support_vectors >= 1
        for sv in svm.model.support_vectors:
            assert sv.vector in train_set
            assert sv.label in (-1, 1)
            assert 0 < sv.alpha <= 1.0 + 1e-9

    def test_decision_signs(self):
        vectors, labels = make_linearly_separable()
        svm = KernelSVM(kernel_name="linear", C=10.0).fit(vectors, labels)
        assert svm.model.decision(SparseVector({0: 3.0})) >= 0
        assert svm.model.decision(SparseVector({0: -3.0})) < 0

    def test_one_class_degenerate(self):
        svm = KernelSVM().fit([SparseVector({0: 1.0})], [-1])
        assert svm.model.decision(SparseVector({9: 2.0})) < 0
        assert svm.model.num_support_vectors == 0

    def test_model_before_fit_raises(self):
        with pytest.raises(NotTrainedError):
            KernelSVM().model

    def test_model_wire_size_positive(self):
        vectors, labels = make_linearly_separable(n=20)
        svm = KernelSVM().fit(vectors, labels)
        assert svm.model.wire_size() > 16

    def test_training_pairs_roundtrip(self):
        vectors, labels = make_linearly_separable(n=20)
        svm = KernelSVM().fit(vectors, labels)
        vs, ys = svm.model.training_pairs()
        assert len(vs) == len(ys) == svm.model.num_support_vectors

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            KernelSVM(C=-1.0)
        with pytest.raises(ConfigurationError):
            KernelSVM(gamma=0.0)

    @pytest.mark.parametrize("field, value", [
        ("C", NAN),
        ("gamma", NAN),
        ("gamma", INF),
        ("tol", NAN),
        ("max_passes", 0),
        ("max_iterations", 0),
        ("kernel_name", "sigmoid"),
    ])
    def test_settings_that_train_nothing_are_refused(self, field, value):
        """Each of these used to fit a model with no support vectors and
        a zero bias, without a word; an unknown kernel fitted one-class
        problems and failed two-class ones with a bare ``ValueError``."""
        with pytest.raises(ConfigurationError, match=rf"\b{field}\b"):
            KernelSVM(**{field: value})

    def test_infinite_C_is_the_hard_margin_svm(self):
        vectors, labels = make_linearly_separable(n=20)
        svm = KernelSVM(C=INF).fit(vectors, labels)
        assert svm.model.num_support_vectors > 0
        assert _training_accuracy(svm, vectors, labels) == 1.0

    def test_deterministic_given_seed(self):
        vectors, labels = make_linearly_separable(n=30)
        m1 = KernelSVM(seed=5).fit(vectors, labels).model
        m2 = KernelSVM(seed=5).fit(vectors, labels).model
        assert m1.bias == m2.bias
        assert m1.num_support_vectors == m2.num_support_vectors
