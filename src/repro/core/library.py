"""The Library component (paper Fig. 4, left navigation).

"Library, where all tagged documents are tracked to allow users to browse or
search documents using tags."  Supports tag queries (all-of / any-of / none-
of), confidence filtering (the slider), and free-text search over tag names.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.metadata import TagMetadataStore


class Library:
    """Tag-centric view over a :class:`TagMetadataStore`."""

    def __init__(self, store: TagMetadataStore) -> None:
        self.store = store

    # -- browse -----------------------------------------------------------

    def browse_by_tag(
        self, tag: str, min_confidence: float = 0.0
    ) -> List[int]:
        """Documents carrying ``tag`` (at or above the confidence slider)."""
        return self.store.documents_with(tag, min_confidence)

    def tags(self) -> List[str]:
        return self.store.all_tags()

    def tag_frequencies(self) -> Dict[str, int]:
        """tag -> number of documents carrying it (tag cloud font sizes)."""
        return {tag: len(self.store.documents_with(tag)) for tag in self.tags()}

    # -- search ------------------------------------------------------------

    def search(
        self,
        all_of: Iterable[str] = (),
        any_of: Iterable[str] = (),
        none_of: Iterable[str] = (),
        min_confidence: float = 0.0,
    ) -> List[int]:
        """Documents matching a tag query.

        ``all_of`` tags must all be present, at least one ``any_of`` tag (if
        given), and no ``none_of`` tag.
        """
        all_set = frozenset(all_of)
        any_set = frozenset(any_of)
        none_set = frozenset(none_of)
        matches: List[int] = []
        for doc_id in self.store.documents():
            tags = self.store.tags_of(doc_id, min_confidence)
            if all_set and not all_set <= tags:
                continue
            if any_set and not any_set & tags:
                continue
            if none_set & tags:
                continue
            matches.append(doc_id)
        return matches

    def search_tag_names(self, query: str) -> List[str]:
        """Tags whose name contains ``query`` (case-insensitive)."""
        needle = query.lower()
        return [tag for tag in self.tags() if needle in tag.lower()]

    def summary(self) -> str:
        frequencies = self.tag_frequencies()
        top = sorted(frequencies.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        top_repr = ", ".join(f"{tag}({count})" for tag, count in top)
        return (
            f"Library(documents={len(self.store)}, tags={len(frequencies)}, "
            f"top: {top_repr})"
        )
