"""Score-based threshold tuning.

The classifiers emit per-tag scores; the GUI's confidence slider and the
AutoTag threshold both need principled defaults.  This module sweeps the
thresholds over (score, label) pairs and picks the one maximizing F1 — the
per-tag thresholds of ``--tune-thresholds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass
class CurvePoint:
    """One operating point of a threshold sweep."""

    threshold: float
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def tpr(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 1.0

    @property
    def recall(self) -> float:
        return self.tpr

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def _validate(scores: Sequence[float], labels: Sequence[int]) -> None:
    if len(scores) != len(labels):
        raise ConfigurationError("scores and labels length mismatch")
    if not scores:
        raise ConfigurationError("cannot evaluate empty score list")
    if not set(labels) <= {0, 1}:
        raise ConfigurationError("labels must be binary 0/1")


def threshold_sweep(
    scores: Sequence[float], labels: Sequence[int]
) -> List[CurvePoint]:
    """Confusion counts at every distinct score threshold (descending).

    Point ``i`` classifies positive everything with score >= threshold_i.
    """
    _validate(scores, labels)
    pairs = sorted(zip(scores, labels), key=lambda p: -p[0])
    total_pos = sum(labels)
    total_neg = len(labels) - total_pos
    points: List[CurvePoint] = []
    tp = fp = 0
    index = 0
    n = len(pairs)
    while index < n:
        threshold = pairs[index][0]
        # Consume all pairs tied at this score.
        while index < n and pairs[index][0] == threshold:
            if pairs[index][1] == 1:
                tp += 1
            else:
                fp += 1
            index += 1
        points.append(
            CurvePoint(
                threshold=threshold,
                tp=tp,
                fp=fp,
                fn=total_pos - tp,
                tn=total_neg - fp,
            )
        )
    return points


def best_f1_threshold(
    scores: Sequence[float], labels: Sequence[int]
) -> Tuple[float, float]:
    """(threshold, F1) maximizing F1 over the sweep.

    One-class-positive inputs return (min score, 1.0); one-class-negative
    return (just above max score, 0.0) — assign nothing.
    """
    _validate(scores, labels)
    points = threshold_sweep(scores, labels)
    best = max(points, key=lambda p: (p.f1, p.threshold))
    if best.f1 == 0.0:
        return max(scores) + 1e-9, 0.0
    return best.threshold, best.f1


def per_tag_thresholds(
    score_maps: Sequence[Dict[str, float]],
    true_sets: Sequence[Iterable[str]],
    tags: Sequence[str],
    floor: float = 0.05,
    ceiling: float = 0.95,
) -> Dict[str, float]:
    """Per-tag F1-optimal thresholds from validation score maps.

    Tags never observed positive in validation fall back to 0.5.  Thresholds
    are clamped into [floor, ceiling] so a quirky validation slice cannot
    produce assign-always / assign-never behaviour.
    """
    if len(score_maps) != len(true_sets):
        raise ConfigurationError("score_maps and true_sets length mismatch")
    thresholds: Dict[str, float] = {}
    truth = [frozenset(t) for t in true_sets]
    for tag in tags:
        scores = [m.get(tag, 0.0) for m in score_maps]
        labels = [1 if tag in t else 0 for t in truth]
        if not scores or len(set(labels)) < 2:
            thresholds[tag] = 0.5
            continue
        threshold, _ = best_f1_threshold(scores, labels)
        thresholds[tag] = min(ceiling, max(floor, threshold))
    return thresholds
