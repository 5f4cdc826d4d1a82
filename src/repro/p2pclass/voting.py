"""Vote combiners.

CEMPaR assigns tags "by (weighted) majority voting" over regional models;
PACE weights votes "according to their accuracy and distance from the test
data".  Both reduce to the two functions here.
"""

from __future__ import annotations

from typing import Sequence, Tuple


def majority_vote(votes: Sequence[int]) -> int:
    """Unweighted majority over ±1 votes (ties break positive)."""
    if not votes:
        return -1
    return 1 if sum(votes) >= 0 else -1


def weighted_majority_vote(votes: Sequence[Tuple[int, float]]) -> int:
    """Majority over (±1 vote, weight >= 0) pairs (ties break positive)."""
    if not votes:
        return -1
    total = sum(vote * max(0.0, weight) for vote, weight in votes)
    return 1 if total >= 0 else -1


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
