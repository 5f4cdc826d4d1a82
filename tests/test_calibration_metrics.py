"""Tests for Platt calibration and multi-label metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import platt
from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.calibration import PlattCalibrator
from repro.ml.metrics import (
    MultiLabelReport,
    example_f1,
    hamming_loss,
    macro_f1,
    mean_precision_at_k,
    micro_f1,
    multilabel_confusion,
    precision_at_k,
    subset_accuracy,
)


def _hex_pair(pair):
    return tuple(float(value).hex() for value in pair)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-6.0, 6.0), st.sampled_from([-1, 1])),
                min_size=1, max_size=40))
def test_platt_fit_equals_the_loop_that_took_exp_twice(points):
    """The z >= 0 branch takes ``math.exp(-z)`` once now: the fitted A and
    B are the reference loop's, bit for bit."""
    decisions, labels = map(list, zip(*points))
    got = PlattCalibrator().fit(decisions, labels).parameters()
    assert _hex_pair(got) == _hex_pair(platt.fit(decisions, labels))


def test_platt_fit_equals_the_reference_on_both_sides_of_the_sigmoid():
    """Seeded fits, nearly all visiting both branches of the sigmoid, like
    the per-tag fits a PACE round makes over its training margins."""
    rng = np.random.default_rng(9)
    both = 0
    for case in range(60):
        n = int(rng.integers(4, 40))
        labels = rng.choice([-1, 1], size=n).tolist()
        labels[:2] = [-1, 1]
        shift = rng.uniform(-3.0, 3.0)
        decisions = (np.array(labels) * rng.uniform(0.0, 2.0, n)
                     + rng.normal(shift, 1.0, n)).tolist()
        branches = {"z >= 0": 0, "z < 0": 0}
        want = platt.fit(decisions, labels, branches=branches)
        both += min(branches.values()) > 0
        got = PlattCalibrator().fit(decisions, labels).parameters()
        assert _hex_pair(got) == _hex_pair(want)
    assert both >= 50


class TestPlattCalibrator:
    def test_monotone_in_decision_value(self):
        rng = np.random.default_rng(0)
        decisions = list(rng.normal(0, 2, 200))
        labels = [1 if d + rng.normal(0, 0.5) > 0 else -1 for d in decisions]
        cal = PlattCalibrator().fit(decisions, labels)
        probs = [cal.probability(d) for d in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_probabilities_in_unit_interval(self):
        cal = PlattCalibrator().fit([-1.0, 1.0, -2.0, 2.0], [-1, 1, -1, 1])
        for d in (-100.0, -1.0, 0.0, 1.0, 100.0):
            assert 0.0 <= cal.probability(d) <= 1.0

    def test_separable_data_confident(self):
        decisions = [-2.0] * 20 + [2.0] * 20
        labels = [-1] * 20 + [1] * 20
        cal = PlattCalibrator().fit(decisions, labels)
        assert cal.probability(3.0) > 0.8
        assert cal.probability(-3.0) < 0.2

    def test_one_class_fallback(self):
        cal = PlattCalibrator().fit([1.0, 2.0], [1, 1])
        assert cal.is_fitted
        assert cal.probability(1.0) > 0.5
        assert cal.probability(-1.0) < 0.5

    def test_unfitted_raises(self):
        with pytest.raises(NotTrainedError):
            PlattCalibrator().probability(0.0)
        with pytest.raises(NotTrainedError):
            PlattCalibrator().parameters()

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            PlattCalibrator().fit([1.0], [1, -1])

    def test_slope_is_negative(self):
        cal = PlattCalibrator().fit([-1.0, 1.0] * 10, [-1, 1] * 10)
        a, _ = cal.parameters()
        assert a < 0


TRUE = [{"a", "b"}, {"a"}, {"c"}, set()]
PRED = [{"a"}, {"a", "b"}, {"c"}, set()]


class TestConfusion:
    def test_counts(self):
        counts = multilabel_confusion(TRUE, PRED)
        assert counts["a"].tp == 2
        assert counts["a"].fp == 0
        assert counts["a"].fn == 0
        assert counts["b"].tp == 0
        assert counts["b"].fp == 1
        assert counts["b"].fn == 1
        assert counts["c"].tp == 1

    def test_explicit_tag_universe(self):
        counts = multilabel_confusion(TRUE, PRED, tags=["a", "zzz"])
        assert "zzz" in counts
        assert "b" not in counts

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            multilabel_confusion([{"a"}], [])


class TestAggregateMetrics:
    def test_perfect_prediction(self):
        assert micro_f1(TRUE, TRUE) == pytest.approx(1.0)
        assert macro_f1(TRUE, TRUE) == pytest.approx(1.0)
        assert hamming_loss(TRUE, TRUE) == 0.0
        assert subset_accuracy(TRUE, TRUE) == 1.0
        assert example_f1(TRUE, TRUE) == pytest.approx(1.0)

    def test_micro_f1_value(self):
        # tp=3 (a twice, c once), fp=1 (b), fn=1 (b) -> 2*3/(6+1+1)
        assert micro_f1(TRUE, PRED) == pytest.approx(6 / 8)

    def test_all_wrong(self):
        true = [{"a"}, {"a"}]
        pred = [{"b"}, {"b"}]
        assert micro_f1(true, pred) == 0.0
        assert subset_accuracy(true, pred) == 0.0

    def test_hamming_loss_range(self):
        assert 0.0 <= hamming_loss(TRUE, PRED) <= 1.0

    def test_empty_inputs(self):
        assert micro_f1([], []) == 0.0
        assert subset_accuracy([], []) == 0.0
        assert example_f1([], []) == 0.0

    def test_example_f1_empty_sets_count_as_correct(self):
        assert example_f1([set()], [set()]) == pytest.approx(1.0)


class TestRankedMetrics:
    def test_precision_at_k(self):
        assert precision_at_k({"a", "b"}, ["a", "x", "b"], 2) == pytest.approx(0.5)
        assert precision_at_k({"a"}, ["a"], 3) == pytest.approx(1.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k({"a"}, ["a"], 0)

    def test_mean_variants(self):
        true_sets = [{"a"}, {"b"}]
        ranked = [["a", "c"], ["c", "b"]]
        assert mean_precision_at_k(true_sets, ranked, 1) == pytest.approx(0.5)
        assert mean_precision_at_k([], [], 1) == 0.0


class TestReport:
    def test_compute_and_summary(self):
        report = MultiLabelReport.compute(TRUE, PRED)
        assert report.num_documents == 4
        assert report.num_tags == 3
        assert "microF1" in report.summary()
        assert report.micro_f1 == pytest.approx(6 / 8)


tag_sets = st.lists(
    st.sets(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
    min_size=1,
    max_size=10,
)


@given(tag_sets)
def test_metrics_perfect_on_self(sets):
    assert micro_f1(sets, sets) in (0.0, 1.0)  # 0.0 only if all sets empty
    assert hamming_loss(sets, sets) == 0.0
    assert subset_accuracy(sets, sets) == 1.0


@given(tag_sets, st.randoms())
def test_metric_bounds(sets, rnd):
    predicted = [set(rnd.sample(["a", "b", "c", "d"], rnd.randint(0, 4))) for _ in sets]
    assert 0.0 <= micro_f1(sets, predicted) <= 1.0
    assert 0.0 <= macro_f1(sets, predicted) <= 1.0
    assert 0.0 <= hamming_loss(sets, predicted) <= 1.0
    assert 0.0 <= subset_accuracy(sets, predicted) <= 1.0
    assert 0.0 <= example_f1(sets, predicted) <= 1.0
