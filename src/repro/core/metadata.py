"""Tag metadata store.

"Once tags are assigned, they are saved as the files' meta-data, which are
supported by numerous operating systems ... other PIM systems can access
these tags" (paper §2).  This module is the xattr-equivalent: a per-peer
store mapping file identifiers to tag records with provenance (manual, auto,
refined), confidence, and assignment time, persistable as JSON so external
tools could read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Tuple, Union


class TagSource(str, Enum):
    """How a tag landed on a document."""

    MANUAL = "manual"
    AUTO = "auto"
    REFINED = "refined"


@dataclass
class TagRecord:
    """One tag on one document."""

    tag: str
    source: TagSource
    confidence: float = 1.0
    assigned_at: float = 0.0

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "source": self.source.value,
            "confidence": self.confidence,
            "assigned_at": self.assigned_at,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "TagRecord":
        return cls(
            tag=str(record["tag"]),
            source=TagSource(record["source"]),
            confidence=float(record.get("confidence", 1.0)),
            assigned_at=float(record.get("assigned_at", 0.0)),
        )


class TagMetadataStore:
    """Per-peer document -> tag records mapping with JSON persistence."""

    def __init__(self) -> None:
        self._records: Dict[int, Dict[str, TagRecord]] = {}

    # -- writing ----------------------------------------------------------

    def assign(
        self,
        doc_id: int,
        tag: str,
        source: TagSource = TagSource.MANUAL,
        confidence: float = 1.0,
        assigned_at: float = 0.0,
    ) -> None:
        """Add or overwrite one tag on a document."""
        self._records.setdefault(doc_id, {})[tag] = TagRecord(
            tag=tag, source=source, confidence=confidence, assigned_at=assigned_at
        )

    def assign_many(
        self,
        doc_id: int,
        tags_with_confidence: Dict[str, float],
        source: TagSource = TagSource.AUTO,
        assigned_at: float = 0.0,
    ) -> None:
        for tag, confidence in tags_with_confidence.items():
            self.assign(doc_id, tag, source, confidence, assigned_at)

    def remove(self, doc_id: int, tag: str) -> bool:
        """Remove one tag; True if it was present."""
        tags = self._records.get(doc_id)
        if tags and tag in tags:
            del tags[tag]
            if not tags:
                del self._records[doc_id]
            return True
        return False

    def replace(
        self,
        doc_id: int,
        tags: Dict[str, float],
        source: TagSource = TagSource.REFINED,
        assigned_at: float = 0.0,
    ) -> None:
        """Replace a document's whole tag set (the refinement operation)."""
        self._records[doc_id] = {
            tag: TagRecord(
                tag=tag, source=source, confidence=confidence,
                assigned_at=assigned_at,
            )
            for tag, confidence in tags.items()
        }

    def clear(self, doc_id: int) -> None:
        self._records.pop(doc_id, None)

    # -- reading -------------------------------------------------------------

    def tags_of(self, doc_id: int, min_confidence: float = 0.0) -> FrozenSet[str]:
        records = self._records.get(doc_id, {})
        return frozenset(
            tag for tag, rec in records.items() if rec.confidence >= min_confidence
        )

    def records_of(self, doc_id: int) -> List[TagRecord]:
        return sorted(self._records.get(doc_id, {}).values(), key=lambda r: r.tag)

    def documents(self) -> List[int]:
        return sorted(self._records)

    def documents_with(self, tag: str, min_confidence: float = 0.0) -> List[int]:
        return sorted(
            doc_id
            for doc_id, tags in self._records.items()
            if tag in tags and tags[tag].confidence >= min_confidence
        )

    def all_tags(self) -> List[str]:
        tags = set()
        for records in self._records.values():
            tags |= set(records)
        return sorted(tags)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._records

    def iter_assignments(self) -> Iterator[Tuple[int, TagRecord]]:
        for doc_id in sorted(self._records):
            for tag in sorted(self._records[doc_id]):
                yield doc_id, self._records[doc_id][tag]

    # -- persistence -----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            str(doc_id): [rec.to_dict() for rec in self.records_of(doc_id)]
            for doc_id in self.documents()
        }
        target.write_text(json.dumps(payload, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TagMetadataStore":
        store = cls()
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        for doc_id, records in payload.items():
            for record in records:
                rec = TagRecord.from_dict(record)
                store._records.setdefault(int(doc_id), {})[rec.tag] = rec
        return store
