"""Identifier space shared by the structured overlays.

A 64-bit circular id space.  Node ids and key ids are blake2b hashes, so any
peer can compute the id of any key (tag names, super-peer labels) locally —
the property CEMPaR's deterministic super-peer location relies on.
"""

from __future__ import annotations

import hashlib

ID_BITS = 64
ID_SPACE = 1 << ID_BITS


def _hash64(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


def node_id_for(address: int) -> int:
    """Overlay id of a physical node address."""
    return _hash64(f"node:{address}".encode("utf-8"))


def key_id_for(key: str) -> int:
    """Overlay id of an application key (e.g. a tag or super-peer label)."""
    return _hash64(f"key:{key}".encode("utf-8"))


def xor_distance(a: int, b: int) -> int:
    """Kademlia's XOR metric."""
    return a ^ b

