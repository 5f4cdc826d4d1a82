"""Corpus datatypes: documents, user profiles, and the corpus container."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence


@dataclass(frozen=True)
class Document:
    """One (bookmarked) text document with its user-assigned tags.

    ``tags`` is a frozenset: tags are an open, unordered vocabulary.  The
    ``owner`` is the user/peer holding the document locally — documents never
    move between peers in P2PDocTagger.
    """

    doc_id: int
    text: str
    tags: FrozenSet[str]
    owner: int

    def with_tags(self, tags: Iterable[str]) -> "Document":
        """Copy of this document with a different tag set."""
        return Document(
            doc_id=self.doc_id,
            text=self.text,
            tags=frozenset(tags),
            owner=self.owner,
        )

    def untagged(self) -> "Document":
        """Copy with tags stripped (the paper's 80 % auto-tag pool)."""
        return self.with_tags(())


@dataclass
class UserProfile:
    """A user and the documents they hold."""

    user_id: int
    documents: List[Document] = field(default_factory=list)
    interests: List[str] = field(default_factory=list)

    @property
    def num_documents(self) -> int:
        return len(self.documents)

    def tag_counts(self) -> Counter:
        counts: Counter = Counter()
        for document in self.documents:
            counts.update(document.tags)
        return counts


class Corpus:
    """A collection of documents grouped by owner."""

    def __init__(self, documents: Sequence[Document]) -> None:
        self._documents = list(documents)
        self._by_owner: Dict[int, List[Document]] = {}
        for document in self._documents:
            self._by_owner.setdefault(document.owner, []).append(document)

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._documents)

    def __getitem__(self, index: int) -> Document:
        return self._documents[index]

    @property
    def documents(self) -> List[Document]:
        return list(self._documents)

    @property
    def owners(self) -> List[int]:
        return sorted(self._by_owner)

    def documents_of(self, owner: int) -> List[Document]:
        return list(self._by_owner.get(owner, []))

    def user_profile(self, owner: int) -> UserProfile:
        return UserProfile(user_id=owner, documents=self.documents_of(owner))

    # -- statistics ---------------------------------------------------------------

    def tag_universe(self) -> List[str]:
        """All distinct tags, sorted."""
        tags = set()
        for document in self._documents:
            tags |= document.tags
        return sorted(tags)

    def tag_counts(self) -> Counter:
        counts: Counter = Counter()
        for document in self._documents:
            counts.update(document.tags)
        return counts

    def mean_tags_per_document(self) -> float:
        if not self._documents:
            return 0.0
        return sum(len(d.tags) for d in self._documents) / len(self._documents)

    def filter_tags(self, keep: Iterable[str]) -> "Corpus":
        """Corpus with tag sets intersected against ``keep`` (rare-tag pruning)."""
        keep_set = frozenset(keep)
        return Corpus(
            [d.with_tags(d.tags & keep_set) for d in self._documents]
        )

    def restrict_to_min_tag_support(self, min_support: int) -> "Corpus":
        """Drop tags appearing on fewer than ``min_support`` documents."""
        counts = self.tag_counts()
        keep = {tag for tag, count in counts.items() if count >= min_support}
        return self.filter_tags(keep)

    def summary(self) -> str:
        return (
            f"Corpus(docs={len(self)}, users={len(self._by_owner)}, "
            f"tags={len(self.tag_universe())}, "
            f"tags/doc={self.mean_tags_per_document():.2f})"
        )
