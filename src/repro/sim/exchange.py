"""Columnar zero-copy shard exchange: SoA window frames + shm rings.

This module is the data plane of the sharded kernel's cross-shard
exchange (:mod:`repro.sim.shard`).  One pickled Python tuple per
cross-shard delivery costs a pickle round trip per message — at 200k
messages per storm that dominates the mp executor's wall clock — so a
window's records to one destination shard become a single
**struct-of-arrays** :class:`ExchangeFrame`:

- numeric columns ``(deliver_time f8, seq i8, src i8, dst i8,
  size_bytes i8, wire_bytes i8, hops i8)`` as numpy arrays (``src_shard``
  is constant per frame and rides the header),
- an interned ``msg_type`` id column (i4) plus a per-frame string table,
- a payload sidecar: ``None``-only frames (the common hot path — lazy
  delivery materializes payloads receiver-side) carry nothing; frames
  with real payload objects pickle just the payload list, counted as the
  ``pickled_records`` fallback.

Frames serialize to one length-prefixed binary blob
(:meth:`ExchangeFrame.encode` / :meth:`ExchangeFrame.decode` — the
LSN-prefixed delta-batch shape of a WAL, with the window barrier index as
the LSN) and ship through :class:`ShardRing`: a single-producer /
single-consumer byte ring in ``multiprocessing.shared_memory``, one
writer/reader pair per directed shard pair (:class:`RingExchange`), so
the mp executor's hot path does **zero per-record pickling** and the
receiver decodes columns with ``np.frombuffer`` views straight off the
copied frame bytes.

Receive-side injection is vectorized symmetrically:
:func:`merge_frames` concatenates the per-sender frames, orders the
union with one ``np.lexsort`` by ``(deliver_time, src_shard, seq)`` and
hands column lists to
:meth:`repro.sim.engine.Simulator.schedule_block`.

Synchronization leans on the window-barrier protocol: a writer only
writes frames *before* announcing its barrier sync, a reader only reads
frames its window decision told it to expect, and a sender can run at
most one barrier ahead — so ring occupancy is bounded by two windows of
traffic.  The pointer handshake is the classic SPSC publish: the writer
copies payload bytes first and advances the write cursor last; aligned
8-byte cursor loads/stores are single memcpy operations.  A frame that
does not fit the ring is **never** waited on (a blocked writer inside the
barrier handshake would deadlock the fleet) — its sender relays the same
blob through the coordinator instead (up in the sync message, down in the
receiver's decision: the route every tcp frame takes), counted loudly in
``StatsCollector.exchange["queue_fallbacks"]``.
"""

from __future__ import annotations

import pickle
import struct
import time
from typing import Any, List, MutableMapping, Optional, Sequence, Tuple

import numpy as np

from repro.envutil import env_float
from repro.errors import SimulationError

_MAGIC = 0x536F4131  # "SoA1"
_HEADER = struct.Struct("<IIIiiq")  # magic, barrier, count, src_shard, flags, payload_len
_U32 = struct.Struct("<I")
_FLAG_PAYLOADS = 1

#: numeric column order inside an encoded frame (all i8 except deliver f8)
_INT_COLUMNS = ("seq", "src", "dst", "size_bytes", "wire_bytes", "hops")


#: encoded bytes per record: the f8 deliver column, six i8 columns, and
#: the i4 type-id column
_ROW_BYTES = 8 + 8 * len(_INT_COLUMNS) + 4

#: ring sizing: a fixed total budget split across the K×K ring grid, with
#: a per-ring floor
_RING_TOTAL_BYTES = 32 * 1024 * 1024
_RING_MIN_BYTES = 128 * 1024


def ring_capacity_bytes(num_shards: int) -> int:
    """Per-ring byte capacity for a ``num_shards``-way exchange.

    Few-shard runs get deep rings (cross-shard windows are big), many-shard
    runs get many shallow ones (per-pair windows shrink as 1/K²).  Oversized
    frames are not an error — they take the loud relay fallback.
    """
    per_ring = _RING_TOTAL_BYTES // max(1, num_shards * num_shards)
    return max(_RING_MIN_BYTES, per_ring)


def exchange_timeout_seconds() -> float:
    """How long a reader polls a ring before declaring the sender dead."""
    return env_float(
        "REPRO_EXCHANGE_TIMEOUT_S", 60.0, exclusive_minimum=0.0,
        error=SimulationError,
    )


class ExchangeFrame:
    """One window's cross-shard deliveries to one destination, as columns.

    Built from the tuple records the shard runtime accumulates
    (:data:`repro.sim.shard.ExchangeRecord` layout) via
    :meth:`from_records`; every executor round-trips them through
    :meth:`encode`/:meth:`decode`.
    """

    __slots__ = (
        "count",
        "src_shard",
        "deliver_time",
        "seq",
        "src",
        "dst",
        "size_bytes",
        "wire_bytes",
        "hops",
        "type_ids",
        "type_table",
        "payloads",
        "payload_count",
        "min_time",
    )

    def __init__(
        self,
        src_shard: int,
        deliver_time: np.ndarray,
        seq: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        size_bytes: np.ndarray,
        wire_bytes: np.ndarray,
        hops: np.ndarray,
        type_ids: np.ndarray,
        type_table: List[str],
        payloads: Optional[List[Any]],
        payload_count: int = 0,
    ) -> None:
        self.count = len(deliver_time)
        self.src_shard = src_shard
        self.deliver_time = deliver_time
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.wire_bytes = wire_bytes
        self.hops = hops
        self.type_ids = type_ids
        self.type_table = type_table
        #: None for all-``None`` payload frames (no sidecar); otherwise the
        #: per-record payload list, pickled on encode
        self.payloads = payloads
        self.payload_count = payload_count
        self.min_time = float(deliver_time.min())

    @classmethod
    def from_records(cls, records: Sequence[tuple]) -> "ExchangeFrame":
        """Columnarize one outbox's records (all from one source shard)."""
        columns = list(zip(*records))
        deliver = np.asarray(columns[0], dtype=np.float64)
        src_shard = columns[1][0]
        seq = np.asarray(columns[2], dtype=np.int64)
        src = np.asarray(columns[3], dtype=np.int64)
        dst = np.asarray(columns[4], dtype=np.int64)
        table, inverse = np.unique(
            np.asarray(columns[5], dtype=object), return_inverse=True
        )
        size_bytes = np.asarray(columns[7], dtype=np.int64)
        wire_bytes = np.asarray(columns[8], dtype=np.int64)
        hops = np.asarray(columns[9], dtype=np.int64)
        payloads: Optional[List[Any]] = list(columns[6])
        payload_count = sum(1 for p in payloads if p is not None)
        if payload_count == 0:
            payloads = None
        return cls(
            src_shard=src_shard,
            deliver_time=deliver,
            seq=seq,
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            wire_bytes=wire_bytes,
            hops=hops,
            type_ids=inverse.astype(np.int32),
            type_table=[str(t) for t in table.tolist()],
            payloads=payloads,
            payload_count=payload_count,
        )

    def to_records(self) -> List[tuple]:
        """The frame back as :data:`ExchangeRecord` tuples (tests/debug)."""
        payloads = self.payloads or [None] * self.count
        return [
            (
                deliver, self.src_shard, seq, src, dst,
                self.type_table[type_id], payload, size, wire, hops,
            )
            for deliver, seq, src, dst, type_id, payload, size, wire, hops
            in zip(
                self.deliver_time.tolist(), self.seq.tolist(),
                self.src.tolist(), self.dst.tolist(),
                self.type_ids.tolist(), payloads,
                self.size_bytes.tolist(), self.wire_bytes.tolist(),
                self.hops.tolist(),
            )
        ]

    # -- wire format --------------------------------------------------------

    def encode(self, barrier: int) -> bytes:
        """Serialize to one blob: header, numeric columns, type table,
        payload sidecar.  ``barrier`` tags the frame with its window index
        (the LSN of the exchange log)."""
        payload_blob = b""
        flags = 0
        if self.payloads is not None:
            flags |= _FLAG_PAYLOADS
            payload_blob = pickle.dumps(
                self.payloads, protocol=pickle.HIGHEST_PROTOCOL
            )
        parts = [
            _HEADER.pack(
                _MAGIC, barrier, self.count, self.src_shard, flags,
                len(payload_blob),
            ),
            self.deliver_time.tobytes(),
            self.seq.tobytes(),
            self.src.tobytes(),
            self.dst.tobytes(),
            self.size_bytes.tobytes(),
            self.wire_bytes.tobytes(),
            self.hops.tobytes(),
            self.type_ids.tobytes(),
            _U32.pack(len(self.type_table)),
        ]
        for name in self.type_table:
            raw = name.encode("utf-8")
            parts.append(_U32.pack(len(raw)))
            parts.append(raw)
        parts.append(payload_blob)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["ExchangeFrame", int]:
        """Deserialize one frame blob; returns ``(frame, barrier)``.

        Numeric columns come back as ``np.frombuffer`` views over the blob
        (no copy); only the type table and the optional payload sidecar
        allocate.  This is the single receive-side gate for rings, relayed
        blobs, tcp decisions and WAL replay, so ``count``, the type-table
        lengths and ``payload_len`` are untrusted: each is checked against
        ``len(data)`` before it sizes a view or a slice, and short or
        lying input raises a :class:`SimulationError` naming the field.
        """
        size = len(data)
        if size < _HEADER.size:
            raise SimulationError(
                f"exchange frame truncated: header needs {_HEADER.size} "
                f"bytes, blob has {size}"
            )
        magic, barrier, count, src_shard, flags, payload_len = (
            _HEADER.unpack_from(data, 0)
        )
        if magic != _MAGIC:
            raise SimulationError(
                f"exchange frame magic mismatch (0x{magic:08x})"
            )
        offset = _HEADER.size
        if count == 0 or count * _ROW_BYTES + _U32.size > size - offset:
            raise SimulationError(
                f"exchange frame count {count} needs "
                f"{count * _ROW_BYTES + _U32.size} column bytes (and frames "
                f"are never empty), blob has {size - offset}"
            )
        deliver = np.frombuffer(data, np.float64, count, offset)
        offset += count * 8
        ints = []
        for _ in _INT_COLUMNS:
            ints.append(np.frombuffer(data, np.int64, count, offset))
            offset += count * 8
        type_ids = np.frombuffer(data, np.int32, count, offset)
        offset += count * 4
        (n_types,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        if n_types * _U32.size > size - offset:
            raise SimulationError(
                f"exchange frame type table claims {n_types} entries, only "
                f"{size - offset} bytes follow"
            )
        table = []
        for index in range(n_types):
            length = -1
            if size - offset >= _U32.size:
                (length,) = _U32.unpack_from(data, offset)
                offset += _U32.size
            if not 0 <= length <= size - offset:
                raise SimulationError(
                    f"exchange frame type name {index} truncated (length "
                    f"{length}, {size - offset} bytes left)"
                )
            table.append(bytes(data[offset:offset + length]).decode("utf-8"))
            offset += length
        if payload_len != size - offset:
            raise SimulationError(
                f"exchange frame payload_len {payload_len} but "
                f"{size - offset} bytes follow the type table"
            )
        payloads = None
        payload_count = 0
        if flags & _FLAG_PAYLOADS:
            payloads = pickle.loads(data[offset:])
            if not isinstance(payloads, list) or len(payloads) != count:
                raise SimulationError(
                    f"exchange frame payload sidecar does not hold {count} "
                    "records"
                )
            payload_count = sum(1 for p in payloads if p is not None)
        seq, src, dst, size_bytes, wire_bytes, hops = ints
        frame = cls(
            src_shard=src_shard,
            deliver_time=deliver,
            seq=seq,
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            wire_bytes=wire_bytes,
            hops=hops,
            type_ids=type_ids,
            type_table=table,
            payloads=payloads,
            payload_count=payload_count,
        )
        return frame, barrier


def merge_frames(
    frames: Sequence[ExchangeFrame],
) -> Tuple[List[float], Tuple[Sequence[Any], ...]]:
    """Merge one barrier's inbound frames into sorted injection columns.

    Returns ``(times, columns)`` ready for
    ``Simulator.schedule_block(times, network._deliver_lazy, columns)``:
    the union of all frames ordered by ``(deliver_time, src_shard, seq)``
    with one ``np.lexsort`` and columns
    ``(src, dst, msg_type, payload, size_bytes, wire_bytes, hops)`` as
    plain Python lists (``.tolist()`` bulk-converts, so downstream stats
    arithmetic sees native ints/floats, never numpy scalars).
    """
    if len(frames) == 1:
        frame = frames[0]
        deliver = frame.deliver_time
        # One sender: src_shard is constant, seq strictly increases in
        # record order — a stable sort on time alone is the full key.
        order = np.lexsort((frame.seq, deliver))
        type_table = frame.type_table
        type_ids = frame.type_ids
        src, dst = frame.src, frame.dst
        size_bytes, wire_bytes, hops = (
            frame.size_bytes, frame.wire_bytes, frame.hops,
        )
        payloads = frame.payloads
    else:
        deliver = np.concatenate([f.deliver_time for f in frames])
        seq = np.concatenate([f.seq for f in frames])
        src_shard = np.concatenate(
            [np.full(f.count, f.src_shard, dtype=np.int64) for f in frames]
        )
        order = np.lexsort((seq, src_shard, deliver))
        type_table = []
        type_index: dict = {}
        remapped = []
        for frame in frames:
            remap = np.empty(len(frame.type_table), dtype=np.int32)
            for local_id, name in enumerate(frame.type_table):
                global_id = type_index.get(name)
                if global_id is None:
                    global_id = len(type_table)
                    type_index[name] = global_id
                    type_table.append(name)
                remap[local_id] = global_id
            remapped.append(remap[frame.type_ids])
        type_ids = np.concatenate(remapped)
        src = np.concatenate([f.src for f in frames])
        dst = np.concatenate([f.dst for f in frames])
        size_bytes = np.concatenate([f.size_bytes for f in frames])
        wire_bytes = np.concatenate([f.wire_bytes for f in frames])
        hops = np.concatenate([f.hops for f in frames])
        if any(f.payloads is not None for f in frames):
            payloads = []
            for frame in frames:
                payloads.extend(frame.payloads or [None] * frame.count)
        else:
            payloads = None

    times = deliver[order].tolist()
    msg_types = [type_table[i] for i in type_ids[order].tolist()]
    if payloads is None:
        payload_column: Sequence[Any] = [None] * len(times)
    else:
        payload_column = [payloads[i] for i in order.tolist()]
    columns = (
        src[order].tolist(),
        dst[order].tolist(),
        msg_types,
        payload_column,
        size_bytes[order].tolist(),
        wire_bytes[order].tolist(),
        hops[order].tolist(),
    )
    return times, columns


def encode_outbound_blobs(
    outbound: Sequence[Sequence[tuple]],
    barrier: int,
    exchange: Optional[MutableMapping[str, int]] = None,
) -> Tuple[List[Tuple[int, bytes]], float]:
    """Columnarize and encode one window's outboxes, one frame per
    non-empty box, tagged with ``barrier``.

    Returns ``(blobs, min_outbound)``: ``(dst_shard, blob)`` pairs — the
    bytes every executor routes, the mp rings carry and the WAL logs —
    plus the minimum outbound delivery time (``inf`` when the window sent
    nothing).  ``exchange`` (a Counter) is credited per frame — the same
    way on every executor, so stats merge byte-equal.
    """
    blobs: List[Tuple[int, bytes]] = []
    min_outbound = float("inf")
    for dst_shard, box in enumerate(outbound):
        if not box:
            continue
        frame = ExchangeFrame.from_records(box)
        min_outbound = min(min_outbound, frame.min_time)
        blob = frame.encode(barrier)
        if exchange is not None:
            exchange["frames"] += 1
            exchange["records"] += frame.count
            exchange["pickled_records"] += frame.payload_count
            exchange["encoded_bytes"] += len(blob)
        blobs.append((dst_shard, blob))
    return blobs, min_outbound


# ---------------------------------------------------------------------------
# Shared-memory SPSC rings.
# ---------------------------------------------------------------------------

#: per-ring control block: write cursor (u64) then read cursor (u64)
_CURSORS = struct.Struct("<QQ")
_CTRL = _CURSORS.size
_LEN = struct.Struct("<I")


class ShardRing:
    """Single-producer / single-consumer byte ring over a buffer slice.

    Cursors are absolute (monotone u64 byte offsets; data position is
    ``cursor % capacity``), stored in the slice's first 16 bytes.  The
    writer publishes a frame by copying ``[u32 length][payload]`` into the
    data region *first* and advancing the write cursor *last*; the reader
    mirrors this, so each side only ever trusts fully published state.
    Frames wrap byte-wise around the region end.  Non-blocking by design:
    :meth:`try_push` refuses (returns False) rather than wait for space —
    inside the window-barrier handshake a blocked writer would deadlock
    the whole fleet — and :meth:`try_pop` returns None when no complete
    frame is published.
    """

    def __init__(self, buffer: memoryview) -> None:
        self._buf = buffer
        self.capacity = len(buffer) - _CTRL

    # -- cursors ------------------------------------------------------------

    def _cursors(self) -> Tuple[int, int]:
        return _CURSORS.unpack_from(self._buf, 0)

    def _publish_write(self, value: int) -> None:
        struct.pack_into("<Q", self._buf, 0, value)

    def _publish_read(self, value: int) -> None:
        struct.pack_into("<Q", self._buf, 8, value)

    # -- byte copies with wraparound ----------------------------------------

    def _copy_in(self, cursor: int, data: bytes) -> None:
        position = cursor % self.capacity
        first = min(len(data), self.capacity - position)
        start = _CTRL + position
        self._buf[start:start + first] = data[:first]
        if first < len(data):
            self._buf[_CTRL:_CTRL + len(data) - first] = data[first:]

    def _copy_out(self, cursor: int, length: int) -> bytes:
        position = cursor % self.capacity
        first = min(length, self.capacity - position)
        start = _CTRL + position
        chunk = bytes(self._buf[start:start + first])
        if first < length:
            chunk += bytes(self._buf[_CTRL:_CTRL + length - first])
        return chunk

    # -- SPSC protocol ------------------------------------------------------

    def try_push(self, payload: bytes) -> bool:
        """Publish one frame; False when it does not (currently) fit."""
        needed = _LEN.size + len(payload)
        write, read = self._cursors()
        if needed > self.capacity - (write - read):
            return False
        self._copy_in(write, _LEN.pack(len(payload)))
        self._copy_in(write + _LEN.size, payload)
        self._publish_write(write + needed)
        return True

    def try_pop(self) -> Optional[bytes]:
        """Consume the next published frame, or None when the ring is dry."""
        write, read = self._cursors()
        if write - read < _LEN.size:
            return None
        (length,) = _LEN.unpack(self._copy_out(read, _LEN.size))
        payload = self._copy_out(read + _LEN.size, length)
        self._publish_read(read + _LEN.size + length)
        return payload

    def pop_wait(self, timeout: float, context: str = "") -> bytes:
        """Poll :meth:`try_pop` until a frame lands; raise after `timeout`.

        The barrier protocol guarantees the expected frame was pushed
        before the window decision arrived, so under healthy
        workers this returns almost immediately; the deadline exists so a
        sender that died mid-window surfaces as a loud error, never a
        hang.
        """
        deadline = time.monotonic() + timeout
        spins = 0
        while True:
            data = self.try_pop()
            if data is not None:
                return data
            spins += 1
            if spins % 256 == 0:
                if time.monotonic() > deadline:
                    raise SimulationError(
                        f"shard exchange ring starved for {timeout:.0f}s "
                        f"({context}); a sender likely died mid-window"
                    )
                time.sleep(0.0001)

    def release(self) -> None:
        """Drop the memoryview reference (required before shm close)."""
        self._buf.release()


class RingExchange:
    """The K×K grid of :class:`ShardRing`s in one shared-memory segment.

    Created by the mp coordinator *before* forking — workers inherit the
    mapping through fork and attach :class:`ShardRing` views lazily, so no
    names, fds, or handshakes cross the process boundary.  Slot ``(i, j)``
    is the ring written by shard ``i`` and read by shard ``j``; the
    diagonal is unused (intra-shard traffic never leaves its heap).
    """

    def __init__(self, num_shards: int, capacity: Optional[int] = None) -> None:
        from multiprocessing import shared_memory

        self.num_shards = num_shards
        self.capacity = (
            capacity if capacity is not None
            else ring_capacity_bytes(num_shards)
        )
        self._slot = self.capacity + _CTRL
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, num_shards * num_shards * self._slot)
        )
        self._rings: dict = {}

    def ring(self, src_shard: int, dst_shard: int) -> ShardRing:
        key = (src_shard, dst_shard)
        ring = self._rings.get(key)
        if ring is None:
            start = (src_shard * self.num_shards + dst_shard) * self._slot
            ring = ShardRing(self.shm.buf[start:start + self._slot])
            self._rings[key] = ring
        return ring

    def destroy(self) -> None:
        """Release views, close the mapping, and unlink the segment.

        Parent-side teardown; forked workers exit via ``os._exit`` and
        never unlink (the parent owns the segment's lifetime).
        """
        for ring in self._rings.values():
            ring.release()
        self._rings.clear()
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double teardown
            pass
