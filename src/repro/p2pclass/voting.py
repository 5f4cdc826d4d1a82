"""Vote combiner.

CEMPaR assigns tags "by (weighted) majority voting" over regional models:
each model's (score, weight) vote for a tag folds into one score here.
"""

from __future__ import annotations

from typing import Sequence, Tuple


def weighted_score(votes: Sequence[Tuple[float, float]]) -> float:
    """Weighted mean of (score in [0,1], weight >= 0) pairs.

    Returns 0.0 for an empty vote set — an unqueryable tag is "not assigned",
    never an error, because peers must keep working when regions are down.
    """
    numerator = 0.0
    denominator = 0.0
    for score, weight in votes:
        weight = max(0.0, weight)
        numerator += score * weight
        denominator += weight
    if denominator == 0.0:
        return 0.0
    return numerator / denominator
