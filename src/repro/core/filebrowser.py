"""The File Browser component (paper Fig. 3, left navigation).

"File Browser, which allows users to browse their file system to tag their
documents" and §2: "users select documents (or folders containing
documents) that they wish to tag.  This ensures that all files processed by
the system are approved by the users."

:class:`VirtualFileSystem` models a user's directory tree with documents at
paths; :class:`FileBrowser` supports navigation, selection of files *and
folders* (recursive), and yields exactly the approved document set that the
tagging pipeline is allowed to touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.constraints import at_least, check_value, integer
from repro.data.corpus import Document
from repro.errors import ConfigurationError


def _normalize(path: str) -> str:
    """Canonical form: leading slash, no trailing slash (except root)."""
    parts = [part for part in path.split("/") if part]
    return "/" + "/".join(parts)


def _parent(path: str) -> str:
    if path == "/":
        return "/"
    return _normalize(path.rsplit("/", 1)[0] or "/")


class VirtualFileSystem:
    """A directory tree holding documents at file paths."""

    def __init__(self) -> None:
        self._directories: Set[str] = {"/"}
        self._files: Dict[str, Document] = {}

    # -- building -----------------------------------------------------------

    def mkdir(self, path: str) -> str:
        """Create a directory (and its ancestors); returns the normal form."""
        normalized = _normalize(path)
        cursor = normalized
        to_add = []
        while cursor not in self._directories:
            to_add.append(cursor)
            cursor = _parent(cursor)
        self._directories.update(to_add)
        return normalized

    def add_document(self, path: str, document: Document) -> str:
        """Place ``document`` at ``path`` (parents auto-created)."""
        normalized = _normalize(path)
        if normalized in self._directories:
            raise ConfigurationError(f"{normalized} is a directory")
        self.mkdir(_parent(normalized))
        self._files[normalized] = document
        return normalized

    # -- queries ---------------------------------------------------------------

    def is_directory(self, path: str) -> bool:
        return _normalize(path) in self._directories

    def is_file(self, path: str) -> bool:
        return _normalize(path) in self._files

    def document_at(self, path: str) -> Document:
        normalized = _normalize(path)
        if normalized not in self._files:
            raise ConfigurationError(f"no document at {normalized}")
        return self._files[normalized]

    def list_directory(self, path: str) -> Tuple[List[str], List[str]]:
        """(subdirectories, files) directly under ``path``, sorted."""
        normalized = _normalize(path)
        if normalized not in self._directories:
            raise ConfigurationError(f"no directory {normalized}")
        prefix = normalized if normalized == "/" else normalized + "/"
        subdirs = sorted(
            d for d in self._directories
            if d != normalized and _parent(d) == normalized
        )
        files = sorted(
            f for f in self._files if f.startswith(prefix)
            and "/" not in f[len(prefix):]
        )
        return subdirs, files

    def walk(self, path: str = "/") -> List[str]:
        """Every file path at or under ``path``, sorted."""
        normalized = _normalize(path)
        if normalized in self._files:
            return [normalized]
        if normalized not in self._directories:
            raise ConfigurationError(f"no such path {normalized}")
        prefix = normalized if normalized == "/" else normalized + "/"
        return sorted(f for f in self._files if f.startswith(prefix))

    def __len__(self) -> int:
        return len(self._files)

    @classmethod
    def from_documents(
        cls,
        documents: Iterable[Document],
        folders: int = 3,
        prefix: str = "/home/user/documents",
    ) -> "VirtualFileSystem":
        """Lay documents out under ``folders`` subdirectories (round-robin).

        A convenience for demos: real deployments map actual file trees.
        """
        check_value("folders", folders, integer, at_least(1))
        fs = cls()
        for index, document in enumerate(documents):
            folder = f"{prefix}/folder{index % folders:02d}"
            fs.add_document(f"{folder}/doc{document.doc_id:05d}.txt", document)
        return fs


@dataclass
class FileBrowser:
    """Navigation + selection over a :class:`VirtualFileSystem`.

    The selection is the user-approval boundary: only selected documents may
    enter preprocessing/tagging.
    """

    fs: VirtualFileSystem
    cwd: str = "/"
    _selected: Set[str] = field(default_factory=set)

    # -- navigation ---------------------------------------------------------

    def cd(self, path: str) -> str:
        target = path if path.startswith("/") else f"{self.cwd}/{path}"
        normalized = _normalize(target)
        if not self.fs.is_directory(normalized):
            raise ConfigurationError(f"no directory {normalized}")
        self.cwd = normalized
        return self.cwd

    def ls(self) -> Tuple[List[str], List[str]]:
        return self.fs.list_directory(self.cwd)

    # -- selection (the approval boundary) -------------------------------------

    def select(self, path: str) -> int:
        """Select a file, or a folder recursively; returns files added."""
        target = path if path.startswith("/") else f"{self.cwd}/{path}"
        files = self.fs.walk(target)
        before = len(self._selected)
        self._selected.update(files)
        return len(self._selected) - before

    def deselect(self, path: str) -> int:
        target = path if path.startswith("/") else f"{self.cwd}/{path}"
        normalized = _normalize(target)
        if self.fs.is_file(normalized):
            files = [normalized]
        else:
            files = self.fs.walk(normalized)
        before = len(self._selected)
        self._selected.difference_update(files)
        return before - len(self._selected)

    def clear_selection(self) -> None:
        self._selected.clear()

    @property
    def selected_paths(self) -> List[str]:
        return sorted(self._selected)

    def selected_documents(self) -> List[Document]:
        """The approved documents, in path order — the tagging input set."""
        return [self.fs.document_at(path) for path in self.selected_paths]

    def __len__(self) -> int:
        return len(self._selected)
