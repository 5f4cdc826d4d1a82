"""The simulation write-ahead log: checkpoint and resume.

The sharded kernel already funnels *everything* that crosses a shard
boundary through one chokepoint — the window barrier.  Per barrier the
coordinator sees the columnar exchange frames (``repro.sim.exchange``
wire format), the directory plane's control records, and each worker's
window status; the workers can cheaply export their kernel cursors
(:meth:`repro.sim.engine.Simulator.export_cursors`), RNG cursors
(:meth:`repro.sim.network.PeerStreams.export_cursors`), and
:class:`~repro.sim.stats.StatsCollector` window deltas (the commutative
merge algebra makes per-window deltas composable).  This module appends
exactly that, one CRC-framed record per window, to a log file — in the
spirit of GnitzDB's unified WAL: *any prefix of the WAL can be replayed
to reach a consistent state baseline*.

Two operations build on the log:

- **checkpoint** (``ScenarioConfig.wal``): every
  barrier appends one window record; a commit record with the final
  digest seals a completed run.  Each record is flushed, so a crash at
  window W leaves windows ``0..W-1`` durable (a torn tail is detected by
  length/CRC and ignored).
- **resume** (``ScenarioConfig.resume``):
  *verified prefix replay*.  Worker heaps hold closures (churn timers,
  protocol callbacks) that cannot be pickled, so the WAL deliberately
  does not snapshot heap state; instead the deterministic workload is
  re-executed and every barrier inside the logged prefix is **verified**
  against the log — statuses, frame bytes, control records, stats
  deltas, kernel and RNG cursors must match exactly, else a loud
  :class:`SimulationError` reports the first divergent window.  Past the
  log end the session switches to appending live windows.  The final
  fingerprint is byte-identical to the uninterrupted run *by
  construction* (same event stream) and *checked* (cursor + delta
  verification at every logged barrier, digest verification against a
  sealed commit).

What is *not* logged, and why: worker event heaps (unpicklable closures;
redundant given deterministic re-execution), the
``directory``/``exchange`` counter families (execution-shape artifacts,
excluded from golden digests by contract), and per-window RNG cursors at
every barrier (reading ~3N generator states per window would dominate
the <10% overhead budget at large N — they are sampled every
:data:`CURSORS_EVERY` windows, and always at commit).
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError

_MAGIC = 0x4C415752  # "RWAL"
_VERSION = 1
#: magic, version, num_shards, meta_len, lookahead
_FILE_HEADER = struct.Struct("<IHHId")
#: kind, payload_len, crc32(payload)
_RECORD_HEADER = struct.Struct("<BII")

_K_WINDOW = 1
_K_COMMIT = 2

#: windows between full RNG-cursor snapshots in a fresh log; a resumed
#: run keeps the cadence its log was written with
CURSORS_EVERY = 16


def config_fingerprint(config: Any) -> Dict[str, Any]:
    """The scenario-identity fields a WAL is bound to.

    Everything that shapes the event stream participates (the executor
    is no field: serial, mp, and tcp runs are byte-equivalent, so
    cross-executor resume is legal); ``wal``/``resume`` (log plumbing,
    not physics) and ``control_plane`` (a spelling, not a choice: shards
    imply the plane) are excluded.
    """
    fields = asdict(config)
    for key in ("wal", "resume", "control_plane"):
        fields.pop(key, None)
    return fields


# ---------------------------------------------------------------------------
# Records and file framing.
# ---------------------------------------------------------------------------


@dataclass
class WindowRecord:
    """Everything one barrier contributed to the run."""

    barrier: int
    window_start: float
    global_last: float
    total_executed: int
    #: per shard: (next_time, last_time, executed, requests, extras) where
    #: extras is the worker's WAL probe output — a pickled dict of stats
    #: delta, kernel cursors, and RNG cursors on cadence windows, kept as
    #: bytes so the coordinator embeds it without parsing — or None when
    #: probing is off
    statuses: List[Tuple[float, float, int, list, Optional[bytes]]]
    #: encoded :class:`~repro.sim.exchange.ExchangeFrame` blobs keyed (src_shard, dst_shard)
    frames: Dict[Tuple[int, int], bytes]
    #: directory-plane control records served with this window's decision
    control: List[tuple] = field(default_factory=list)


def _header_bytes(num_shards: int, lookahead: float, meta: dict) -> bytes:
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    return (
        _FILE_HEADER.pack(_MAGIC, _VERSION, num_shards, len(blob), lookahead)
        + blob
    )


class WalWriter:
    """Append-only record writer; every append is flushed to disk."""

    def __init__(self, fh) -> None:
        self._fh = fh

    @classmethod
    def create(
        cls, path: str, num_shards: int, lookahead: float, meta: dict
    ) -> "WalWriter":
        fh = open(path, "wb")
        fh.write(_header_bytes(num_shards, lookahead, meta))
        fh.flush()
        return cls(fh)

    @classmethod
    def appending(cls, path: str, offset: int) -> "WalWriter":
        """Continue an existing log, truncating any torn tail past
        ``offset`` (the last complete record boundary)."""
        fh = open(path, "r+b")
        fh.truncate(offset)
        fh.seek(offset)
        return cls(fh)

    def _append(self, kind: int, payload: Any) -> None:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._fh.write(_RECORD_HEADER.pack(kind, len(blob), zlib.crc32(blob)))
        self._fh.write(blob)
        self._fh.flush()

    def append_window(self, record: WindowRecord) -> None:
        self._append(
            _K_WINDOW,
            (
                record.barrier, record.window_start, record.global_last,
                record.total_executed, record.statuses, record.frames,
                record.control,
            ),
        )

    def append_commit(self, commit: dict) -> None:
        self._append(_K_COMMIT, commit)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class WalReader:
    """Parse a log file, tolerating a torn tail.

    The first record that is short, CRC-corrupt, or unparseable marks the
    end of the usable log: everything before it is the durable prefix
    (``windows``/``commit``), :attr:`valid_offset` is the byte boundary a
    resume writer continues from, and :attr:`truncated` reports whether
    anything was discarded.
    """

    def __init__(self, path: str) -> None:
        if not os.path.exists(path):
            raise ConfigurationError(f"simulation WAL not found: {path}")
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < _FILE_HEADER.size:
            raise SimulationError(f"{path} is not a simulation WAL (too short)")
        magic, version, num_shards, meta_len, lookahead = _FILE_HEADER.unpack(
            data[: _FILE_HEADER.size]
        )
        if magic != _MAGIC:
            raise SimulationError(f"{path} is not a simulation WAL (bad magic)")
        if version != _VERSION:
            raise SimulationError(
                f"{path}: unsupported WAL version {version} "
                f"(this build reads version {_VERSION})"
            )
        self.path = path
        self.num_shards = num_shards
        self.lookahead = lookahead
        header_end = _FILE_HEADER.size + meta_len
        if len(data) < header_end:
            raise SimulationError(f"{path}: truncated WAL header")
        self.meta: dict = json.loads(data[_FILE_HEADER.size:header_end])
        self.header_end = header_end

        self.windows: List[WindowRecord] = []
        #: byte offset just past each window record (prefix-truncation points)
        self.window_offsets: List[int] = []
        self.commit: Optional[dict] = None
        self.truncated = False
        offset = header_end
        while offset < len(data):
            end = offset + _RECORD_HEADER.size
            if end > len(data):
                self.truncated = True
                break
            kind, length, crc = _RECORD_HEADER.unpack(data[offset:end])
            blob = data[end:end + length]
            if len(blob) < length or zlib.crc32(blob) != crc:
                self.truncated = True
                break
            try:
                payload = pickle.loads(blob)
            except Exception:
                self.truncated = True
                break
            offset = end + length
            if kind == _K_WINDOW:
                (barrier, window_start, global_last, total_executed,
                 statuses, frames, control) = payload
                self.windows.append(WindowRecord(
                    barrier=barrier, window_start=window_start,
                    global_last=global_last, total_executed=total_executed,
                    statuses=statuses, frames=frames, control=control,
                ))
                self.window_offsets.append(offset)
            elif kind == _K_COMMIT:
                self.commit = payload
            else:
                raise SimulationError(
                    f"{path}: unknown WAL record kind {kind}"
                )
        self.valid_offset = offset if not self.truncated else (
            self.window_offsets[-1] if self.window_offsets else header_end
        )



# ---------------------------------------------------------------------------
# Worker-side probe.
# ---------------------------------------------------------------------------


class WalProbe:
    """Per-worker cursor/delta exporter, called once per barrier.

    Stats deltas and kernel cursors are cheap and captured every window;
    RNG cursors walk every instantiated generator and are sampled every
    ``cadence`` windows (and in the final :meth:`tail`).
    """

    def __init__(self, scenario: Any, cadence: int) -> None:
        self._scenario = scenario
        self._cadence = cadence
        self._cursor: dict = {}
        scenario.stats.delta_since(self._cursor)  # deltas start from here
        self._barrier = 0

    def __call__(self) -> bytes:
        """The barrier hook: returns the window extras *pre-pickled*.

        The blob crosses the worker→coordinator channel as bytes and is
        embedded in the window record verbatim — the coordinator never
        parses it (checkpointing), and resume verification compares blobs
        byte-for-byte (pickling the same deterministic dicts from the same
        code revision is itself deterministic), unpickling only to name a
        divergence.  This keeps the per-window serialization cost to one
        encode in the worker instead of encode → decode → re-encode."""
        barrier = self._barrier
        self._barrier += 1
        extras = {
            "stats": self._scenario.stats.delta_since(self._cursor),
            "kernel": self._scenario.simulator.export_cursors(),
        }
        if barrier % self._cadence == 0:
            extras["rng"] = self._scenario.streams.export_cursors()
        return pickle.dumps(extras, protocol=pickle.HIGHEST_PROTOCOL)

    def tail(self) -> dict:
        """Post-workload remainder: stats recorded after the last barrier
        plus the final kernel/RNG cursors — sealed into the commit record
        so Σ(window deltas) + tail == the worker's final fingerprint."""
        return {
            "stats": self._scenario.stats.delta_since(self._cursor),
            "kernel": self._scenario.simulator.export_cursors(),
            "rng": self._scenario.streams.export_cursors(),
        }


# ---------------------------------------------------------------------------
# Coordinator-side session.
# ---------------------------------------------------------------------------


def _divergence(
    barrier: int, what: str, logged: Any, live: Any, prefix: str = "WAL"
) -> SimulationError:
    return SimulationError(
        f"{prefix} divergence at window {barrier}: {what} differs from the "
        f"log (logged {logged!r}, live {live!r}) — replaying a WAL requires "
        "the identical scenario, workload, and code revision that wrote it"
    )


def verify_shard_window(
    logged: WindowRecord,
    shard_id: int,
    status: Tuple[float, float, int, list, Optional[bytes]],
    frames: Sequence[Tuple[int, bytes]],
    prefix: str = "WAL",
) -> None:
    """Check what one shard sent at a logged barrier against the record:
    its status fields, its probe extras (byte-for-byte, unpickled only to
    name the part that moved) and its outbound ``(dst_shard, blob)``
    frames.  Resume verifies every shard of a window through here; the
    tcp coordinator verifies a recovered worker's replayed syncs
    (``prefix="RECOVER"``)."""
    barrier = logged.barrier
    logged_status = logged.statuses[shard_id]
    for index, name in enumerate((
        "next event time", "last event time", "executed count",
        "control requests",
    )):
        if logged_status[index] != status[index]:
            raise _divergence(
                barrier, f"shard {shard_id} {name}",
                logged_status[index], status[index], prefix,
            )
    logged_extras, live_extras = logged_status[4], status[4]
    if (logged_extras is None) != (live_extras is None):
        raise _divergence(
            barrier, f"shard {shard_id} probe presence",
            logged_extras is not None, live_extras is not None, prefix,
        )
    if logged_extras != live_extras:
        logged_parts = pickle.loads(logged_extras)
        live_parts = pickle.loads(live_extras)
        for part in ("stats", "kernel", "rng"):
            if logged_parts.get(part) != live_parts.get(part):
                raise _divergence(
                    barrier, f"shard {shard_id} {part} cursors",
                    logged_parts.get(part), live_parts.get(part), prefix,
                )
        raise _divergence(
            barrier, f"shard {shard_id} probe extras",
            f"{len(logged_extras)}B blob", f"{len(live_extras)}B blob",
            prefix,
        )
    logged_frames = {
        dst: blob for (src, dst), blob in logged.frames.items()
        if src == shard_id
    }
    live_dsts = sorted(dst for dst, _ in frames)
    if sorted(logged_frames) != live_dsts:
        raise _divergence(
            barrier, f"shard {shard_id} exchange frame set",
            sorted(logged_frames), live_dsts, prefix,
        )
    for dst, blob in frames:
        if logged_frames[dst] != blob:
            raise _divergence(
                barrier,
                f"exchange frame bytes (shard {shard_id} -> {dst})",
                f"{len(logged_frames[dst])}B blob", f"{len(blob)}B blob",
                prefix,
            )


class WalSession:
    """One run's WAL endpoint, driven by the shard coordinator.

    Modes (decided from ``config.wal``/``config.resume``):

    - checkpoint only — fresh log at ``wal``, every window appended;
    - resume in place — verified prefix replay against ``resume``, then
      live appends continue the same file (torn tail truncated);
    - resume + re-log — ``resume=OLD, wal=NEW`` verifies against OLD
      while writing the full (verified + live) stream to NEW;
    - verify only — resuming a *committed* log runs the whole workload in
      verify mode and checks the final digest against the commit record.
    """

    def __init__(
        self,
        config: Any,
        num_shards: int,
        lookahead: float,
    ) -> None:
        wal_path = config.wal
        resume_path = config.resume
        if not wal_path and not resume_path:
            raise ConfigurationError(
                "WalSession needs config.wal and/or config.resume"
            )
        self.cursor_every = CURSORS_EVERY
        self.logged: List[WindowRecord] = []
        self.commit: Optional[dict] = None
        self.writer: Optional[WalWriter] = None
        self._verified = 0
        self._appended = 0
        #: the log this run appends to — read back by :meth:`window_records`
        self._appending_to: Optional[str] = None

        fingerprint = config_fingerprint(config)
        if resume_path:
            reader = WalReader(resume_path)
            if reader.num_shards != num_shards:
                raise ConfigurationError(
                    f"cannot resume {resume_path}: logged for "
                    f"{reader.num_shards} shards, this run uses {num_shards}"
                )
            if reader.lookahead != lookahead:
                raise ConfigurationError(
                    f"cannot resume {resume_path}: logged lookahead "
                    f"{reader.lookahead!r} != this run's {lookahead!r}"
                )
            logged_config = reader.meta.get("config")
            if logged_config != fingerprint:
                diff = sorted(
                    key
                    for key in set(logged_config or {}) | set(fingerprint)
                    if (logged_config or {}).get(key) != fingerprint.get(key)
                )
                raise ConfigurationError(
                    f"cannot resume {resume_path}: scenario config differs "
                    f"from the one that wrote the WAL (fields: {diff})"
                )
            # The cadence the log was written with wins: extras presence
            # must line up window for window during verification.
            self.cursor_every = int(
                reader.meta.get("cursor_every", self.cursor_every)
            )
            self.logged = reader.windows
            self.commit = reader.commit

        meta = {"config": fingerprint, "cursor_every": self.cursor_every}
        fresh_target = bool(wal_path) and (
            not resume_path
            or os.path.abspath(wal_path) != os.path.abspath(resume_path)
        )
        if fresh_target:
            self.writer = WalWriter.create(
                wal_path, num_shards, lookahead, meta
            )
            self._appending_to = wal_path
            self._rewrite_prefix = True
        elif resume_path and self.commit is None:
            # Continue the same file past its last complete window.
            self.writer = WalWriter.appending(resume_path, reader.valid_offset)
            self._appending_to = resume_path
            self._rewrite_prefix = False
        else:
            # Committed log, no new target: pure verification.
            self._rewrite_prefix = False

    # -- per-barrier hook ---------------------------------------------------

    def on_window(
        self,
        barrier: int,
        window_start: float,
        global_last: float,
        total_executed: int,
        statuses: List[Tuple[float, float, int, list, Optional[dict]]],
        frames: Dict[Tuple[int, int], bytes],
        control: List[tuple],
    ) -> None:
        record = WindowRecord(
            barrier=barrier, window_start=window_start,
            global_last=global_last, total_executed=total_executed,
            statuses=statuses, frames=frames, control=list(control),
        )
        if barrier < len(self.logged):
            self._verify(record)
            self._verified += 1
            if self._rewrite_prefix and self.writer is not None:
                self.writer.append_window(record)
                self._appended += 1
        elif self.writer is not None:
            self.writer.append_window(record)
            self._appended += 1
        else:
            raise _divergence(
                barrier, "window count",
                f"{len(self.logged)} windows (committed)",
                "a run that kept going",
            )

    def _verify(self, live: WindowRecord) -> None:
        logged = self.logged[live.barrier]
        barrier = live.barrier
        if logged.barrier != barrier:
            raise _divergence(barrier, "barrier index", logged.barrier, barrier)
        if logged.window_start != live.window_start:
            raise _divergence(
                barrier, "window start", logged.window_start, live.window_start
            )
        if logged.global_last != live.global_last:
            raise _divergence(
                barrier, "global last-event time",
                logged.global_last, live.global_last,
            )
        if logged.total_executed != live.total_executed:
            raise _divergence(
                barrier, "executed-event total",
                logged.total_executed, live.total_executed,
            )
        if logged.control != live.control:
            raise _divergence(
                barrier, "control records", logged.control, live.control
            )
        for shard_id, status in enumerate(live.statuses):
            verify_shard_window(
                logged, shard_id, status,
                [(dst, blob) for (src, dst), blob in live.frames.items()
                 if src == shard_id],
            )

    def window_records(self, stop: int) -> List[WindowRecord]:
        """The records this run logged (or verified) at barriers
        ``0..stop-1`` — the replay source for in-run worker recovery.

        A verified prefix is the resume log's own records; past it they
        are read back from the log being appended, whose every record is
        flushed — any prefix of the log replays, so the coordinator keeps
        no second copy of the run in memory.
        """
        records = self.logged[:stop]
        if len(records) < stop and self._appending_to is not None:
            records = WalReader(self._appending_to).windows[:stop]
        if len(records) < stop:
            raise SimulationError(
                f"no WAL record for window {len(records)} "
                f"({len(records)} windows logged this run)"
            )
        return records

    # -- run end ------------------------------------------------------------

    def finish(
        self, digest: str, now: float, windows: int, tails: List[Optional[dict]]
    ) -> None:
        """Seal (or verify) the run outcome.

        Raises if the resumed run stopped short of the logged prefix or,
        on a committed log, if the final digest/clock/tails moved.
        """
        if windows < len(self.logged):
            raise SimulationError(
                f"WAL divergence: the resumed run finished after {windows} "
                f"windows but the log holds {len(self.logged)} — the "
                "workload does not match the one that wrote the WAL"
            )
        commit = {
            "digest": digest, "now": now, "windows": windows, "tails": tails,
        }
        if self.commit is not None:
            for key in ("digest", "now", "windows", "tails"):
                if self.commit.get(key) != commit[key]:
                    raise _divergence(
                        windows, f"commit {key}", self.commit.get(key),
                        commit[key],
                    )
        if self.writer is not None:
            self.writer.append_commit(commit)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None
