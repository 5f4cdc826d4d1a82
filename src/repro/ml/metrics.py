"""Multi-label evaluation metrics.

Document tagging is multi-label: each document carries a *set* of tags.  The
metrics below are the standard ones for that setting — micro/macro precision,
recall and F1 over per-tag confusion counts, Hamming loss, subset (exact-set)
accuracy, and ranked precision@k for the suggestion experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Set


@dataclass
class ConfusionCounts:
    """Per-tag binary confusion counts."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    def f1(self) -> float:
        p, r = self.precision(), self.recall()
        return 2 * p * r / (p + r) if (p + r) else 0.0


def multilabel_confusion(
    true_sets: Sequence[Iterable[str]],
    predicted_sets: Sequence[Iterable[str]],
    tags: Iterable[str] | None = None,
) -> Dict[str, ConfusionCounts]:
    """Per-tag confusion counts over parallel true/predicted tag-set lists."""
    if len(true_sets) != len(predicted_sets):
        raise ValueError("true and predicted lists must have equal length")
    true_frozen = [frozenset(s) for s in true_sets]
    pred_frozen = [frozenset(s) for s in predicted_sets]
    if tags is None:
        universe: Set[str] = set()
        for s in true_frozen:
            universe |= s
        for s in pred_frozen:
            universe |= s
    else:
        universe = set(tags)
    counts = {tag: ConfusionCounts() for tag in sorted(universe)}
    for true, pred in zip(true_frozen, pred_frozen):
        for tag, cc in counts.items():
            in_true = tag in true
            in_pred = tag in pred
            if in_true and in_pred:
                cc.tp += 1
            elif in_pred:
                cc.fp += 1
            elif in_true:
                cc.fn += 1
            else:
                cc.tn += 1
    return counts


def micro_f1(
    true_sets: Sequence[Iterable[str]],
    predicted_sets: Sequence[Iterable[str]],
    tags: Iterable[str] | None = None,
) -> float:
    """Micro-averaged F1: pool all per-tag decisions, then compute F1."""
    counts = multilabel_confusion(true_sets, predicted_sets, tags)
    tp = sum(c.tp for c in counts.values())
    fp = sum(c.fp for c in counts.values())
    fn = sum(c.fn for c in counts.values())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def macro_f1(
    true_sets: Sequence[Iterable[str]],
    predicted_sets: Sequence[Iterable[str]],
    tags: Iterable[str] | None = None,
) -> float:
    """Macro-averaged F1: mean of per-tag F1 (tags weigh equally)."""
    counts = multilabel_confusion(true_sets, predicted_sets, tags)
    if not counts:
        return 0.0
    return sum(c.f1() for c in counts.values()) / len(counts)


def hamming_loss(
    true_sets: Sequence[Iterable[str]],
    predicted_sets: Sequence[Iterable[str]],
    tags: Iterable[str] | None = None,
) -> float:
    """Fraction of (document, tag) decisions that are wrong."""
    counts = multilabel_confusion(true_sets, predicted_sets, tags)
    if not counts or not true_sets:
        return 0.0
    wrong = sum(c.fp + c.fn for c in counts.values())
    total = len(true_sets) * len(counts)
    return wrong / total


def subset_accuracy(
    true_sets: Sequence[Iterable[str]],
    predicted_sets: Sequence[Iterable[str]],
) -> float:
    """Fraction of documents whose predicted tag set matches exactly."""
    if not true_sets:
        return 0.0
    correct = sum(
        1
        for t, p in zip(true_sets, predicted_sets)
        if frozenset(t) == frozenset(p)
    )
    return correct / len(true_sets)


def example_f1(
    true_sets: Sequence[Iterable[str]],
    predicted_sets: Sequence[Iterable[str]],
) -> float:
    """Example-based F1: mean per-document F1 of tag sets."""
    if not true_sets:
        return 0.0
    total = 0.0
    for t, p in zip(true_sets, predicted_sets):
        ts, ps = frozenset(t), frozenset(p)
        if not ts and not ps:
            total += 1.0
            continue
        inter = len(ts & ps)
        denom = len(ts) + len(ps)
        total += 2 * inter / denom if denom else 0.0
    return total / len(true_sets)


def precision_at_k(
    true_set: Iterable[str], ranked_tags: Sequence[str], k: int
) -> float:
    """Precision of the top-k ranked suggestions against the true tag set."""
    if k <= 0:
        raise ValueError("k must be positive")
    truth = frozenset(true_set)
    top = ranked_tags[:k]
    if not top:
        return 0.0
    return sum(1 for tag in top if tag in truth) / len(top)


def mean_precision_at_k(
    true_sets: Sequence[Iterable[str]],
    ranked_lists: Sequence[Sequence[str]],
    k: int,
) -> float:
    """Mean precision@k across documents."""
    if not true_sets:
        return 0.0
    return sum(
        precision_at_k(t, r, k) for t, r in zip(true_sets, ranked_lists)
    ) / len(true_sets)


@dataclass
class MultiLabelReport:
    """Bundle of the headline multi-label metrics for one evaluation run."""

    micro_f1: float
    macro_f1: float
    example_f1: float
    hamming_loss: float
    subset_accuracy: float
    num_documents: int
    num_tags: int
    per_tag: Dict[str, ConfusionCounts] = field(default_factory=dict)

    @classmethod
    def compute(
        cls,
        true_sets: Sequence[Iterable[str]],
        predicted_sets: Sequence[Iterable[str]],
        tags: Iterable[str] | None = None,
    ) -> "MultiLabelReport":
        counts = multilabel_confusion(true_sets, predicted_sets, tags)
        return cls(
            micro_f1=micro_f1(true_sets, predicted_sets, tags),
            macro_f1=macro_f1(true_sets, predicted_sets, tags),
            example_f1=example_f1(true_sets, predicted_sets),
            hamming_loss=hamming_loss(true_sets, predicted_sets, tags),
            subset_accuracy=subset_accuracy(true_sets, predicted_sets),
            num_documents=len(true_sets),
            num_tags=len(counts),
            per_tag=counts,
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"docs={self.num_documents} tags={self.num_tags} "
            f"microF1={self.micro_f1:.3f} macroF1={self.macro_f1:.3f} "
            f"exF1={self.example_f1:.3f} hamming={self.hamming_loss:.4f} "
            f"subset={self.subset_accuracy:.3f}"
        )
