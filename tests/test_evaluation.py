"""Tests for threshold tuning and the PerTagThreshold policy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.multilabel import PerTagThreshold
from repro.errors import ConfigurationError
from repro.ml.evaluation import (
    best_f1_threshold,
    per_tag_thresholds,
    threshold_sweep,
)

PERFECT_SCORES = [0.9, 0.8, 0.7, 0.2, 0.1]
PERFECT_LABELS = [1, 1, 1, 0, 0]


class TestThresholdSweep:
    def test_points_cover_all_thresholds(self):
        points = threshold_sweep(PERFECT_SCORES, PERFECT_LABELS)
        assert len(points) == 5  # all scores distinct
        assert points[0].tp == 1 and points[0].fp == 0
        assert points[-1].tp == 3 and points[-1].fp == 2

    def test_ties_consumed_together(self):
        points = threshold_sweep([0.5, 0.5, 0.1], [1, 0, 0])
        assert len(points) == 2
        assert points[0].tp == 1 and points[0].fp == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            threshold_sweep([], [])
        with pytest.raises(ConfigurationError):
            threshold_sweep([0.5], [2])
        with pytest.raises(ConfigurationError):
            threshold_sweep([0.5], [1, 0])


class TestBestF1:
    def test_perfect_separation(self):
        threshold, f1 = best_f1_threshold(PERFECT_SCORES, PERFECT_LABELS)
        assert f1 == pytest.approx(1.0)
        assert 0.2 < threshold <= 0.7

    def test_all_negative_assigns_nothing(self):
        threshold, f1 = best_f1_threshold([0.3, 0.4], [0, 0])
        assert f1 == 0.0
        assert threshold > 0.4

    def test_all_positive(self):
        threshold, f1 = best_f1_threshold([0.3, 0.4], [1, 1])
        assert f1 == pytest.approx(1.0)
        assert threshold <= 0.3


class TestPerTagThresholds:
    def test_tuned_per_tag(self):
        score_maps = [
            {"a": 0.9, "b": 0.4},
            {"a": 0.8, "b": 0.3},
            {"a": 0.2, "b": 0.6},
            {"a": 0.1, "b": 0.7},
        ]
        true_sets = [{"a"}, {"a"}, {"b"}, {"b"}]
        thresholds = per_tag_thresholds(score_maps, true_sets, ["a", "b"])
        # tag a separates at ~0.8; tag b at ~0.6.
        assert thresholds["a"] > 0.5
        assert 0.3 < thresholds["b"] <= 0.6

    def test_unseen_tag_defaults(self):
        thresholds = per_tag_thresholds(
            [{"a": 0.9}], [{"a"}], ["a", "never-seen"]
        )
        assert thresholds["never-seen"] == 0.5

    def test_clamping(self):
        # A tag positive on every document would tune to near-zero threshold;
        # the floor keeps it sane.
        score_maps = [{"a": 0.01}, {"a": 0.02}, {"a": 0.9}]
        true_sets = [{"a"}, {"a"}, set()]
        thresholds = per_tag_thresholds(
            score_maps, true_sets, ["a"], floor=0.05
        )
        assert thresholds["a"] >= 0.05

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            per_tag_thresholds([{}], [], ["a"])


class TestPerTagThresholdPolicy:
    def test_uses_per_tag_values(self):
        policy = PerTagThreshold({"a": 0.9, "b": 0.2})
        assert policy.assign({"a": 0.5, "b": 0.5}) == {"b"}

    def test_default_for_unknown_tags(self):
        policy = PerTagThreshold({}, default=0.6)
        assert policy.assign({"x": 0.7, "y": 0.5}) == {"x"}

    def test_fallback_best(self):
        policy = PerTagThreshold({"a": 0.99, "b": 0.99})
        assert policy.assign({"a": 0.6, "b": 0.4}) == {"a"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PerTagThreshold({"a": 1.5})
        with pytest.raises(ConfigurationError):
            PerTagThreshold({}, default=-0.1)


scores_and_labels = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=2,
    max_size=50,
)


@given(scores_and_labels)
def test_best_f1_bounded(pairs):
    scores = [s for s, _ in pairs]
    labels = [l for _, l in pairs]
    _, f1 = best_f1_threshold(scores, labels)
    assert 0.0 <= f1 <= 1.0


@given(scores_and_labels)
def test_sweep_counts_consistent(pairs):
    scores = [s for s, _ in pairs]
    labels = [l for _, l in pairs]
    for point in threshold_sweep(scores, labels):
        assert point.tp + point.fn == sum(labels)
        assert point.fp + point.tn == len(labels) - sum(labels)
        assert point.tp >= 0 and point.fp >= 0
