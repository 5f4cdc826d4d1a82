"""Statistics collection (P2PDMT's "Visualize statistics" box).

:class:`StatsCollector` is the single sink every component reports into:
message counts and bytes by type, per-peer traffic, and named counters.
Experiments read their cost columns from here.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.sim.messages import Message

if TYPE_CHECKING:
    from repro.sim.network import SendBlock


class StatsCollector:
    """Named counters and per-message-type / per-peer traffic accounting."""

    def __init__(self) -> None:
        self.messages_by_type: Counter = Counter()
        self.bytes_by_type: Counter = Counter()
        self.wire_bytes_by_type: Counter = Counter()
        self.hops_by_type: Counter = Counter()
        self.counters: Counter = Counter()
        self.per_peer_bytes: Counter = Counter()
        self.per_peer_wire_bytes: Counter = Counter()
        self.per_peer_received: Counter = Counter()
        #: directory control-plane service traffic (snapshot/delta records a
        #: shard worker received and applied).  Deliberately a separate
        #: counter family, NOT ``counters``: directory traffic is an
        #: artifact of the execution shape (it scales with K and vanishes at
        #: K=1), while :meth:`fingerprint` — and therefore every golden
        #: digest — pins workload observables that must be identical across
        #: kernel shapes.  Merged by :meth:`merge`, never fingerprinted.
        self.directory: Counter = Counter()
        #: columnar shard-exchange accounting, credited by the worker
        #: channels: ``frames``/``records`` (SoA window frames and the
        #: records they carry), ``encoded_bytes`` (size of the encoded
        #: frames — every executor ships the same blobs) and
        #: ``pickled_records`` (payloads that needed the pickle sidecar).
        #: Same contract as
        #: :attr:`directory`: an artifact of the execution shape (it scales
        #: with K and the executor and vanishes unsharded), so it is merged
        #: by :meth:`merge` and reported via :meth:`exchange_summary` but
        #: NEVER joins :meth:`fingerprint` — golden digests pin workload
        #: observables that must be identical across kernel shapes.
        self.exchange: Counter = Counter()
        #: recovery accounting, counted coordinator-side by the fleet's
        #: supervision loop (repro.sim.tcpexec.Supervisor): worker deaths
        #: observed, slots respawned, WAL windows replayed into recovered
        #: workers, heartbeats serviced.  Same contract as
        #: :attr:`directory`/:attr:`exchange`: a death and its recovery
        #: are execution-shape artifacts — a recovered run lands on the
        #: never-faulted digest — so the family is merged by :meth:`merge`
        #: and never joins :meth:`fingerprint`.
        self.faults: Counter = Counter()
        #: True once any recorded message's wire size diverged from its raw
        #: size (i.e. a non-identity codec touched this collector).  Gates
        #: the compressed columns in :meth:`fingerprint` so identity-codec
        #: runs stay byte-identical to the pre-codec stack.
        self._compressed = False

    # -- traffic -----------------------------------------------------------

    def record_message(self, message: Message) -> None:
        total = message.total_bytes()
        wire_total = message.total_wire_bytes()
        self.messages_by_type[message.msg_type] += 1
        self.bytes_by_type[message.msg_type] += total
        self.wire_bytes_by_type[message.msg_type] += wire_total
        self.hops_by_type[message.msg_type] += message.hops
        self.per_peer_bytes[message.src] += total
        self.per_peer_wire_bytes[message.src] += wire_total
        self.per_peer_received[message.dst] += message.size_bytes
        if wire_total != total:
            self._compressed = True

    def record_traffic(
        self,
        msg_type: str,
        size_bytes: int,
        hops: int = 1,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        wire_bytes: Optional[int] = None,
    ) -> None:
        """Account one message's traffic without a :class:`Message` object.

        Same arithmetic as :meth:`record_message` — used for modelled-only
        costs (maintenance probes) so they need no per-probe allocation.
        ``wire_bytes`` is the post-encoding size; omitted means identity
        (wire == raw), matching :class:`~repro.sim.messages.Message`.
        """
        if wire_bytes is None:
            wire_bytes = size_bytes
        total = size_bytes * max(1, hops)
        wire_total = wire_bytes * max(1, hops)
        self.messages_by_type[msg_type] += 1
        self.bytes_by_type[msg_type] += total
        self.wire_bytes_by_type[msg_type] += wire_total
        self.hops_by_type[msg_type] += hops
        if src is not None:
            self.per_peer_bytes[src] += total
            self.per_peer_wire_bytes[src] += wire_total
        if dst is not None:
            self.per_peer_received[dst] += size_bytes
        if wire_total != total:
            self._compressed = True

    def record_message_block(
        self,
        msg_type: str,
        size_bytes: int,
        src: int,
        dsts: Sequence[int],
        hops: int = 1,
        wire_bytes: Optional[int] = None,
    ) -> None:
        """Account a one-source, one-shape block in bulk.

        Exactly equivalent to one :meth:`record_traffic` call per ``dsts``
        row, in row order, with the same ``msg_type``/``size_bytes``/
        ``src``/``hops``/``wire_bytes`` — the per-type and per-src counters
        are bumped with one arithmetic operation each, and each row credits
        its destination's received bytes, so ``dsts`` may repeat.
        """
        count = len(dsts)
        if count == 0:
            return
        if wire_bytes is None:
            wire_bytes = size_bytes
        total = size_bytes * max(1, hops)
        wire_total = wire_bytes * max(1, hops)
        self.messages_by_type[msg_type] += count
        self.bytes_by_type[msg_type] += total * count
        self.wire_bytes_by_type[msg_type] += wire_total * count
        self.hops_by_type[msg_type] += hops * count
        self.per_peer_bytes[src] += total * count
        self.per_peer_wire_bytes[src] += wire_total * count
        received = self.per_peer_received
        get = received.get  # a miss skips Counter.__missing__
        for dst in dsts:
            received[dst] = get(dst, 0) + size_bytes
        if wire_total != total:
            self._compressed = True

    def record_messages(self, block: "SendBlock") -> None:
        """Account a :class:`~repro.sim.network.SendBlock` in bulk.

        Exactly equivalent to :meth:`record_message` on each row in row
        order: every counter is an integer sum, and every family's keys are
        first touched in the order the rows first name them (so
        :meth:`delta_since` — and the WAL bytes pickled from it — cannot
        tell the two apart).  Consecutive rows that agree on everything but
        the destination are charged with one arithmetic operation per
        family; destinations may repeat.  A block with a scalar ``src``
        (the network keeps a one-source, one-shape block's five constant
        columns scalar) is :meth:`record_message_block`'s case and never
        expands a column.
        """
        if not isinstance(block.src, list):
            return self.record_message_block(
                block.msg_type, block.size_bytes, block.src, block.dst,
                block.hops, block.wire_bytes,
            )
        sizes = block.column("size_bytes")
        received = self.per_peer_received
        get = received.get  # a miss skips Counter.__missing__
        for dst, size in zip(block.column("dst"), sizes):
            received[dst] = get(dst, 0) + size
        runs = itertools.groupby(zip(
            block.column("msg_type"), block.column("src"), sizes,
            block.column("wire_bytes"), block.column("hops"),
        ))
        for (msg_type, src, size, wire, hops), run in runs:
            count = len(list(run))
            total = size * max(1, hops) * count
            wire_total = wire * max(1, hops) * count
            self.messages_by_type[msg_type] += count
            self.bytes_by_type[msg_type] += total
            self.wire_bytes_by_type[msg_type] += wire_total
            self.hops_by_type[msg_type] += hops * count
            self.per_peer_bytes[src] += total
            self.per_peer_wire_bytes[src] += wire_total
            if wire_total != total:
                self._compressed = True

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_type.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_type.values())

    @property
    def total_wire_bytes(self) -> int:
        """Post-encoding bytes: what actually crossed the modelled wire."""
        return sum(self.wire_bytes_by_type.values())

    @property
    def has_compressed_traffic(self) -> bool:
        """True once any wire size diverged from its raw size."""
        return self._compressed

    def bytes_for(self, *msg_types: str) -> int:
        return sum(self.bytes_by_type.get(t, 0) for t in msg_types)

    def wire_bytes_for(self, *msg_types: str) -> int:
        return sum(self.wire_bytes_by_type.get(t, 0) for t in msg_types)

    def messages_for(self, *msg_types: str) -> int:
        return sum(self.messages_by_type.get(t, 0) for t in msg_types)

    # -- directory control-plane accounting --------------------------------

    def record_directory(
        self, records: int, size_bytes: int, edits: int = 0
    ) -> None:
        """Account served control-plane traffic (outside the fingerprint)."""
        self.directory["control_records"] += records
        self.directory["control_bytes"] += size_bytes
        self.directory["control_edits"] += edits

    # -- shard-exchange accounting ------------------------------------------

    def exchange_summary(self) -> Dict[str, int]:
        """The shard-exchange counters (diagnostics; executor-dependent)."""
        return dict(sorted(self.exchange.items()))

    # -- counters ----------------------------------------------------------

    def increment(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # -- fingerprinting ----------------------------------------------------

    def fingerprint(self) -> Dict[str, Dict[str, int]]:
        """Canonical snapshot of every accounting observable.

        The determinism contract ("same seed → bit-identical stats") is
        checked against this structure: message/byte/hop counts by type,
        per-peer sent/received bytes, and named counters.  The
        :attr:`directory`, :attr:`exchange`, and :attr:`faults` counters
        are excluded — control-plane service traffic, shard-exchange
        framing, and recovery events scale with the shard count, the
        executor, and the worker deaths a run survived, while the
        fingerprint pins observables that must be identical across every
        kernel shape.
        Keys are stringified so the snapshot serializes to canonical JSON.

        The wire-byte counters appear only once compressed traffic exists:
        under the identity codec wire == raw everywhere, and the snapshot —
        hence every checked-in golden digest — is byte-identical to the
        pre-codec stack.  The moment a non-identity codec touches the run,
        both wire dimensions join the fingerprint and the determinism
        contract covers them too.
        """
        snapshot = {
            "messages_by_type": {k: v for k, v in sorted(self.messages_by_type.items())},
            "bytes_by_type": {k: v for k, v in sorted(self.bytes_by_type.items())},
            "hops_by_type": {k: v for k, v in sorted(self.hops_by_type.items())},
            "per_peer_bytes": {str(k): v for k, v in sorted(self.per_peer_bytes.items())},
            "per_peer_received": {str(k): v for k, v in sorted(self.per_peer_received.items())},
            "counters": {k: v for k, v in sorted(self.counters.items())},
        }
        if self._compressed:
            snapshot["wire_bytes_by_type"] = {
                k: v for k, v in sorted(self.wire_bytes_by_type.items())
            }
            snapshot["per_peer_wire_bytes"] = {
                str(k): v for k, v in sorted(self.per_peer_wire_bytes.items())
            }
        return snapshot

    def fingerprint_bytes(self) -> bytes:
        """The fingerprint as canonical JSON bytes (byte-identity checks)."""
        return json.dumps(
            self.fingerprint(), sort_keys=True, separators=(",", ":")
        ).encode("ascii")

    def merge(self, other: "StatsCollector") -> None:
        """Fold another collector's numbers into this one."""
        self.messages_by_type.update(other.messages_by_type)
        self.bytes_by_type.update(other.bytes_by_type)
        self.wire_bytes_by_type.update(other.wire_bytes_by_type)
        self.hops_by_type.update(other.hops_by_type)
        self.counters.update(other.counters)
        self.directory.update(other.directory)
        self.exchange.update(other.exchange)
        self.faults.update(other.faults)
        self.per_peer_bytes.update(other.per_peer_bytes)
        self.per_peer_wire_bytes.update(other.per_peer_wire_bytes)
        self.per_peer_received.update(other.per_peer_received)
        self._compressed = self._compressed or other._compressed

    # -- window deltas (simulation WAL) ------------------------------------

    #: the counter families :meth:`fingerprint` is built from — exactly the
    #: state the WAL must log per window for prefix replay to reproduce the
    #: final digest.  ``directory``/``exchange``/``faults``
    #: (execution-shape artifacts, see above) are deliberately excluded.
    _DELTA_FAMILIES = (
        "messages_by_type", "bytes_by_type", "wire_bytes_by_type",
        "hops_by_type", "counters", "per_peer_bytes",
        "per_peer_wire_bytes", "per_peer_received",
    )

    def delta_since(self, cursor: Dict[str, dict]) -> Dict[str, dict]:
        """Changed-key increments since ``cursor``'s last call, advancing
        ``cursor`` in place (an empty dict means "since the beginning").

        Counters only ever grow, so the delta is ``{key: new - old}`` over
        keys whose value moved; empty families are omitted.  Deltas compose:
        applying every window's delta (any order — the algebra is
        commutative, like :meth:`merge`) to a fresh collector reproduces the
        source collector's :meth:`fingerprint` exactly.  One fused pass per
        family: this runs on every worker's barrier critical path (WAL probe
        and trace store), so it touches each live counter entry once instead
        of recopying whole families.
        """
        delta: Dict[str, dict] = {}
        for name in self._DELTA_FAMILIES:
            base = cursor.setdefault(name, {})
            get = base.get
            changed = {}
            for key, value in getattr(self, name).items():
                old = get(key, 0)
                if value != old:
                    changed[key] = value - old
                    base[key] = value
            if changed:
                delta[name] = changed
        if self._compressed and not cursor.get("compressed"):
            delta["compressed"] = cursor["compressed"] = True
        return delta

    def apply_delta(self, delta: Dict[str, dict]) -> None:
        """Fold a :meth:`delta_since` increment into this collector."""
        for name in self._DELTA_FAMILIES:
            changed = delta.get(name)
            if changed:
                getattr(self, name).update(changed)
        if delta.get("compressed"):
            self._compressed = True
