"""User-specified sensitive-word filtering.

The paper's preprocessing removes, besides stop words, "user-specified
sensitive words" so they never enter the feature vectors that may be shared
with other peers.  :class:`SensitiveWordFilter` implements that contract:
exact words and simple ``*``-suffix patterns can be registered, and filtering
is applied *before* stemming so users can reason about surface forms.

Every :meth:`~SensitiveWordFilter.add` and :meth:`~SensitiveWordFilter.remove`
bumps :attr:`~SensitiveWordFilter.version`; a pipeline that memoises its
verdict per word drops the memo when the version it filled it under is no
longer current, so a word registered later never reaches a vector.
"""

from __future__ import annotations

from typing import Iterable, List, Set


class SensitiveWordFilter:
    """Removes user-registered sensitive words from token streams.

    Parameters
    ----------
    words:
        Initial iterable of sensitive words.  Words ending in ``*`` are
        treated as prefix patterns (``"salar*"`` blocks ``salary`` and
        ``salaries``).
    """

    def __init__(self, words: Iterable[str] = ()) -> None:
        self._exact: Set[str] = set()
        self._prefixes: List[str] = []
        #: bumped by every add / remove: what a memo of verdicts keys on
        self.version = 0
        for word in words:
            self.add(word)

    def add(self, word: str) -> None:
        """Register a sensitive word or ``prefix*`` pattern."""
        self.version += 1
        cleaned = word.strip().lower()
        if not cleaned:
            return
        if cleaned.endswith("*"):
            prefix = cleaned[:-1]
            if prefix and prefix not in self._prefixes:
                self._prefixes.append(prefix)
        else:
            self._exact.add(cleaned)

    def remove(self, word: str) -> None:
        """Unregister a previously added word or pattern (no-op if absent)."""
        self.version += 1
        cleaned = word.strip().lower()
        if cleaned.endswith("*"):
            prefix = cleaned[:-1]
            if prefix in self._prefixes:
                self._prefixes.remove(prefix)
        else:
            self._exact.discard(cleaned)

    def is_sensitive(self, token: str) -> bool:
        """Return True if ``token`` must not leave this peer."""
        if token in self._exact:
            return True
        return any(token.startswith(prefix) for prefix in self._prefixes)

    def filter(self, tokens: Iterable[str]) -> List[str]:
        """Return ``tokens`` with every sensitive token removed."""
        return [token for token in tokens if not self.is_sensitive(token)]

    def __len__(self) -> int:
        return len(self._exact) + len(self._prefixes)

    def __eq__(self, other: object) -> bool:
        """Same words and patterns (registration order and history aside)."""
        if not isinstance(other, SensitiveWordFilter):
            return NotImplemented
        return (
            self._exact == other._exact
            and set(self._prefixes) == set(other._prefixes)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SensitiveWordFilter(exact={len(self._exact)}, "
            f"prefixes={len(self._prefixes)})"
        )
