"""Tag refinement (paper §2, "Tag Refinement").

"On the discovery of mismatched tags on documents, users can use the tagging
interface to modify the assigned tags ... Upon the refinement of tags,
P2PDocTagger will automatically update the classification model(s) in the
back-end, to adapt to their personal preference for future tagging."

:class:`RefinementLoop` collects corrections, folds them into the owning
peer's local training data, updates the metadata store, and retrains the
collaborative model.  Retraining is batched (``retrain_every``): rebuilding
the global model per keystroke would be absurd, and batching is what the
localized-conflict-resolution design implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.constraints import at_least, check_value, integer
from repro.core.metadata import TagMetadataStore, TagSource
from repro.errors import ConfigurationError
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import P2PTagClassifier, TaggedVector


@dataclass
class Refinement:
    """One user correction: the document and its corrected tag set."""

    doc_id: int
    owner: int
    vector: SparseVector
    corrected_tags: FrozenSet[str]


class RefinementLoop:
    """Applies corrections and keeps models in sync.

    Parameters
    ----------
    classifier:
        The trained collaborative classifier to update.
    store:
        The metadata store reflecting current tag assignments.
    retrain_every:
        Refinements accumulated before a model retrain is triggered.
    """

    def __init__(
        self,
        classifier: P2PTagClassifier,
        store: TagMetadataStore,
        retrain_every: int = 10,
    ) -> None:
        check_value("retrain_every", retrain_every, integer, at_least(1))
        self.classifier = classifier
        self.store = store
        self.retrain_every = retrain_every
        self.pending: List[Refinement] = []
        self.applied_count = 0
        self.retrain_count = 0
        self.incremental_count = 0

    def refine(self, refinement: Refinement) -> bool:
        """Record one correction.  Returns True if a retrain was triggered."""
        if not refinement.corrected_tags:
            raise ConfigurationError("a refinement must assign at least one tag")
        self.store.replace(
            refinement.doc_id,
            {tag: 1.0 for tag in refinement.corrected_tags},
            source=TagSource.REFINED,
        )
        self.pending.append(refinement)
        self.applied_count += 1
        if len(self.pending) >= self.retrain_every:
            self.flush()
            return True
        return False

    def flush(self) -> None:
        """Fold pending corrections into peer data and update the model.

        Classifiers advertising :attr:`supports_incremental` receive only the
        *delta* examples (cheap statistics uploads); everything else gets a
        full retrain.
        """
        if not self.pending:
            return
        by_owner: Dict[int, List[TaggedVector]] = {}
        for refinement in self.pending:
            item = TaggedVector(
                vector=refinement.vector, tags=refinement.corrected_tags
            )
            self.classifier.peer_data.setdefault(refinement.owner, []).append(item)
            by_owner.setdefault(refinement.owner, []).append(item)
        self.pending.clear()
        if self.classifier.supports_incremental:
            for owner, items in sorted(by_owner.items()):
                self.classifier.incremental_update(owner, items)
            self.incremental_count += 1
        else:
            self.classifier.train()
            self.retrain_count += 1

    @property
    def pending_count(self) -> int:
        return len(self.pending)
