"""Multi-label assignment policies: per-tag scores -> tag sets.

The classifiers answer per-tag scores (the one-vs-all decomposition of paper
§2); a policy decides which tags are *assigned*.  The GUI's confidence
slider corresponds to :class:`FixedThreshold`; :class:`TopKPolicy` mirrors
"assign the k best suggestions".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet

from repro.constraints import at_least, check_value, in_range, integer


class ThresholdPolicy(ABC):
    """Turns a per-tag score map into an assigned tag set."""

    @abstractmethod
    def assign(self, scores: Dict[str, float]) -> FrozenSet[str]:
        """Select the assigned tags."""


class FixedThreshold(ThresholdPolicy):
    """Assign every tag scoring at or above ``threshold`` — and never
    nothing: when no tag clears the bar the single best one is assigned,
    so AutoTag leaves no file untagged.
    """

    def __init__(self, threshold: float = 0.5) -> None:
        check_value("threshold", threshold, in_range(0, 1))
        self.threshold = threshold

    def _bar(self, tag: str) -> float:
        return self.threshold

    def assign(self, scores: Dict[str, float]) -> FrozenSet[str]:
        chosen = frozenset(t for t, s in scores.items() if s >= self._bar(t))
        if chosen or not scores:
            return chosen
        best = max(scores.items(), key=lambda kv: kv[1])
        return frozenset({best[0]})


class TopKPolicy(ThresholdPolicy):
    """Assign the ``k`` highest-scoring tags (above an optional floor)."""

    def __init__(self, k: int = 3, floor: float = 0.0) -> None:
        check_value("k", k, integer, at_least(1))
        check_value("floor", floor, in_range(0, 1))
        self.k = k
        self.floor = floor

    def assign(self, scores: Dict[str, float]) -> FrozenSet[str]:
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return frozenset(
            tag for tag, score in ranked[: self.k] if score >= self.floor
        )


class PerTagThreshold(FixedThreshold):
    """Per-tag thresholds (typically tuned on validation data).

    Built from :func:`repro.ml.evaluation.per_tag_thresholds`; tags without
    a tuned value use ``default``.  Never empty, as :class:`FixedThreshold`.
    """

    def __init__(
        self, thresholds: Dict[str, float], default: float = 0.5
    ) -> None:
        for tag, value in thresholds.items():
            check_value(f"the threshold for {tag!r}", value, in_range(0, 1))
        super().__init__(default)
        self.thresholds = dict(thresholds)

    def _bar(self, tag: str) -> float:
        return self.thresholds.get(tag, self.threshold)
