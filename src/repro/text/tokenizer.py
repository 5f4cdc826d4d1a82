"""Word tokenization for English text.

The tokenizer is intentionally simple and deterministic: lowercase, split on
non-alphanumeric boundaries, keep internal apostrophes and hyphens collapsed
away, and drop pure numbers or very short fragments.  This matches the
information-retrieval style preprocessing the paper describes.
"""

from __future__ import annotations

import re
from typing import List

_WORD_RE = re.compile(r"[a-z]+(?:'[a-z]+)?")


def tokenize(text: str, min_length: int = 2, max_length: int = 40) -> List[str]:
    """Split ``text`` into lowercase word tokens.

    Tokens shorter than ``min_length`` or longer than ``max_length`` are
    dropped — single letters carry almost no recognition value and extremely
    long tokens are usually markup noise.

    >>> tokenize("The QUICK brown-fox, jumps over 12 dogs!")
    ['the', 'quick', 'brown', 'fox', 'jumps', 'over', 'dogs']
    """
    if not text:
        return []
    lowered = text.lower()
    tokens = []
    for match in _WORD_RE.finditer(lowered):
        token = match.group(0)
        # Collapse possessives: "user's" -> "user".
        if "'" in token:
            token = token.split("'", 1)[0]
        if min_length <= len(token) <= max_length:
            tokens.append(token)
    return tokens
