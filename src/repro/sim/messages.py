"""Network messages with honest wire-size accounting.

Every cost number an experiment reports (bytes sent, messages exchanged)
derives from :func:`payload_size`, one shared estimator.  Objects can opt in
by exposing ``wire_size() -> int``; plain Python structures are sized by
simple recursive rules that approximate a compact binary encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

_HEADER_BYTES = 40  # src + dst + type + msg id + overlay routing header


def payload_size(payload: Any) -> int:
    """Estimated serialized size of ``payload`` in bytes.

    Rules: None=0, bool=1 (a compact encoding needs one byte, not a word),
    int/float=8, str=len of its UTF-8 encoding, bytes=len, containers = sum
    of elements (+2 framing per list/tuple/set and per dict entry), and any
    object with ``wire_size()`` answers for itself.  Note ``bool`` is checked
    before ``int`` — ``True`` counts 1 byte even though it is an ``int``
    subclass.
    """
    if payload is None:
        return 0
    wire = getattr(payload, "wire_size", None)
    if callable(wire):
        return int(wire())
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, dict):
        return sum(
            payload_size(key) + payload_size(value) + 2
            for key, value in payload.items()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_size(item) for item in payload) + 2
    # Dataclass-like fallback: size the public attribute dict.
    attributes = getattr(payload, "__dict__", None)
    if attributes is not None:
        return payload_size(
            {k: v for k, v in attributes.items() if not k.startswith("_")}
        )
    return 8


@dataclass
class Message:
    """One simulated network message.

    ``size_bytes`` is the raw (pre-encoding) size, computed from the payload
    at construction unless given explicitly.  ``wire_bytes`` is the modelled
    post-encoding size — stamped by the transport's
    :class:`~repro.sim.codec.CodecTable` and defaulting to ``size_bytes``
    (identity encoding), so messages built outside the transport account
    raw == wire exactly as before codecs existed.
    """

    src: int
    dst: int
    msg_type: str
    payload: Any = None
    size_bytes: int = -1
    hops: int = 1
    wire_bytes: int = -1

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            self.size_bytes = _HEADER_BYTES + payload_size(self.payload)
        if self.wire_bytes < 0:
            self.wire_bytes = self.size_bytes

    def total_bytes(self) -> int:
        """Raw bytes on the wire including per-hop retransmission."""
        return self.size_bytes * max(1, self.hops)

    def total_wire_bytes(self) -> int:
        """Post-encoding bytes on the wire including per-hop retransmission."""
        return self.wire_bytes * max(1, self.hops)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message({self.msg_type} {self.src}->{self.dst} "
            f"{self.size_bytes}B hops={self.hops})"
        )
