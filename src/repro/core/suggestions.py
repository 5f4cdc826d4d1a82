"""The Suggest-Tag operation and Suggestion Cloud (paper Fig. 3).

"Relevant tags will be shown in the 'Suggestion Cloud' panel, arranged in
alphabetical order, where tags with higher confidence will be in larger
font.  Low confidence tags can be filtered out (struck out, and placed last)
by adjusting the 'Confidence' slider."

:class:`SuggestionEngine` wraps a trained classifier and renders exactly
that: alphabetical suggestions with font buckets by confidence, and a
threshold that strikes low-confidence tags out rather than hiding them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.constraints import at_least, check_value, in_range, integer
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import P2PTagClassifier


@dataclass
class Suggestion:
    """One entry of the Suggestion Cloud."""

    tag: str
    confidence: float
    font_size: int  # 1..5 by confidence
    struck_out: bool  # below the confidence slider

    def render(self) -> str:
        text = self.tag.upper() if self.font_size >= 4 else self.tag
        return f"~~{text}~~" if self.struck_out else text


class SuggestionEngine:
    """Produces Suggestion Cloud content from a trained classifier."""

    def __init__(
        self, classifier: P2PTagClassifier, max_suggestions: int = 10
    ) -> None:
        check_value("max_suggestions", max_suggestions, integer, at_least(1))
        self.classifier = classifier
        self.max_suggestions = max_suggestions

    def suggest(
        self,
        origin: int,
        vector: SparseVector,
        confidence_threshold: float = 0.3,
    ) -> List[Suggestion]:
        """Suggestion Cloud entries for one document.

        Ordering matches the GUI: kept tags alphabetically first, struck-out
        tags alphabetically after ("filtered out, struck out, and placed
        last").
        """
        check_value("confidence_threshold", confidence_threshold, in_range(0, 1))
        ranked = self.classifier.rank_tags(origin, vector)[: self.max_suggestions]
        suggestions = [
            Suggestion(
                tag=tag,
                confidence=confidence,
                font_size=self._font_bucket(confidence),
                struck_out=confidence < confidence_threshold,
            )
            for tag, confidence in ranked
        ]
        kept = sorted(
            (s for s in suggestions if not s.struck_out), key=lambda s: s.tag
        )
        struck = sorted(
            (s for s in suggestions if s.struck_out), key=lambda s: s.tag
        )
        return kept + struck

    def top_tags(
        self, origin: int, vector: SparseVector, k: int
    ) -> List[str]:
        """The k highest-confidence tags (evaluation helper for E7)."""
        check_value("k", k, integer, at_least(1))
        ranked = self.classifier.rank_tags(origin, vector)
        return [tag for tag, _ in ranked[:k]]

    @staticmethod
    def _font_bucket(confidence: float) -> int:
        """Map confidence in [0, 1] to a 1..5 font bucket."""
        clamped = min(1.0, max(0.0, confidence))
        return 1 + min(4, int(clamped * 5))

    @staticmethod
    def render_cloud(suggestions: Sequence[Suggestion]) -> str:
        """One-line terminal rendering of the Suggestion Cloud."""
        return "  ".join(s.render() for s in suggestions)
