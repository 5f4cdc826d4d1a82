"""Tests for the vote combiner and cascade-SVM merging."""

import pytest

from repro.errors import ConfigurationError
from repro.ml.kernel_svm import KernelSVM
from repro.ml.sparse import SparseVector
from repro.p2pclass.cascade import cascade_merge
from repro.p2pclass.voting import weighted_score


class TestVoting:
    def test_negative_weights_clamped(self):
        assert weighted_score([(1.0, 1.0), (0.0, -100.0)]) == 1.0

    def test_weighted_score(self):
        assert weighted_score([(1.0, 1.0), (0.0, 1.0)]) == pytest.approx(0.5)
        assert weighted_score([(0.8, 3.0), (0.2, 1.0)]) == pytest.approx(0.65)
        assert weighted_score([]) == 0.0
        assert weighted_score([(0.9, 0.0)]) == 0.0


def train_child(points, labels, seed=0):
    return KernelSVM(seed=seed).fit(points, labels).model


class TestCascade:
    def separable_children(self):
        left = [SparseVector({0: -2.0 - 0.1 * i}) for i in range(6)]
        right = [SparseVector({0: 2.0 + 0.1 * i}) for i in range(6)]
        child_a = train_child(left[:3] + right[:3], [-1] * 3 + [1] * 3)
        child_b = train_child(left[3:] + right[3:], [-1] * 3 + [1] * 3)
        return [child_a, child_b]

    def test_merge_produces_accurate_model(self):
        cascaded = cascade_merge(self.separable_children())
        assert cascaded is not None
        assert cascaded.svm.decision(SparseVector({0: 3.0})) >= 0
        assert cascaded.svm.decision(SparseVector({0: -3.0})) < 0
        assert cascaded.training_accuracy >= 0.9

    def test_merge_hands_over_a_model_without_its_calibration_pack(self):
        """CEMPaR answers queries from one block over every regional model;
        a pack left on each would only sit in peak RSS until then."""
        cascaded = cascade_merge(self.separable_children())
        assert cascaded.svm.num_support_vectors > 0
        assert cascaded.svm._packed is None
        cascaded.probability(SparseVector({0: 1.0}))  # packs again on demand
        assert cascaded.svm._packed is not None

    def test_probability_monotone(self):
        cascaded = cascade_merge(self.separable_children())
        low = cascaded.probability(SparseVector({0: -3.0}))
        high = cascaded.probability(SparseVector({0: 3.0}))
        assert high > low

    def test_empty_children(self):
        degenerate = train_child([SparseVector({0: 1.0})], [1])
        assert degenerate.num_support_vectors == 0
        assert cascade_merge([degenerate]) is None
        assert cascade_merge([]) is None

    def test_one_class_pool(self):
        # Children whose SVs all carry the same label.
        positives = [SparseVector({0: float(i)}) for i in range(1, 4)]
        negatives = [SparseVector({1: float(i)}) for i in range(1, 4)]
        child = train_child(positives + negatives, [1, 1, 1, -1, -1, -1])
        only_pos = [
            sv for sv in child.support_vectors if sv.label == 1
        ]
        from repro.ml.kernel_svm import KernelSVMModel

        one_class = KernelSVMModel(
            support_vectors=only_pos, bias=0.0, gamma=0.5
        )
        cascaded = cascade_merge([one_class])
        assert cascaded is not None
        assert cascaded.svm.decision(SparseVector({5: 1.0})) >= 0

    def test_max_training_size_respected(self):
        children = self.separable_children()
        cascaded = cascade_merge(children, max_training_size=4)
        assert cascaded is not None
        assert cascaded.training_size <= 4

    def test_invalid_max_size(self):
        with pytest.raises(ConfigurationError):
            cascade_merge(self.separable_children(), max_training_size=0)

    def test_wire_size_positive(self):
        cascaded = cascade_merge(self.separable_children())
        assert cascaded.wire_size() > 16
