"""Queryable trace store: columnar message/stats event ingest + SQL analytics.

The analytical tier beside the operational path (the Polynesia discipline):
a :class:`TraceStore` registers as a *block listener*
(:meth:`~repro.sim.network.PhysicalNetwork.add_block_listener`), so ingest

- never touches the event stream or any simulation RNG — golden
  fingerprints are byte-identical with a store attached, and
- never forces :meth:`~repro.sim.transport.Transport.broadcast` off its
  vectorized path — a 10k-recipient fan-out arrives as ONE callback whose
  constant columns are still scalars.

Records accumulate as raw SoA blocks (a block's shared source, type and
sizes stay scalars beside its destination column) and flush — at every
window barrier on the sharded kernel (:meth:`attach_scenario` registers a
barrier hook), or every
``batch_records`` rows otherwise, plus a final flush on :meth:`close` — by
building the seven row columns once per flush and inserting them inside
**one explicit transaction per flush** (and one per :meth:`record_stats`).
The connection itself stays in autocommit mode so :func:`merge_stores` can
``ATTACH`` at any time, which also means nothing is batched unless it is
bracketed: left to autocommit, every row of an ``executemany`` is its own
transaction (60 000 rows: 0.6–0.8 s, against 0.06–0.09 s inside one
``BEGIN``/``COMMIT``).  The crash contract follows: a run that dies leaves
whole committed batches only — every barrier flushed before the death,
nothing of the batch in flight, nothing still buffered.  (The rollback
journal lives in memory, so the one exception is a process killed *while a
commit writes its pages*: that can damage the file.  The store is derived
data; rerun to rebuild it.)

The store is a SQLite file (stdlib).  Opening a new file lays out the schema
and its ``meta`` rows; opening an existing store writes nothing, and an
existing SQLite file with no ``meta`` table or ``schema_version`` row is
refused before any write.  Per-shard stores written by sharded
runs merge with :func:`merge_stores` (``ATTACH`` + append, mirroring
:meth:`StatsCollector.merge` — type ids are remapped by name, so shards may
intern types in different orders).

The store records send *attempts* — including attempts from down
sources — so under churn its row counts exceed the post-liveness stats.
``TraceStore(":memory:")`` is the in-process trace: attach, run, query.

Schema::

    meta(key TEXT PRIMARY KEY, value TEXT)
    msg_types(type_id INTEGER PRIMARY KEY, name TEXT UNIQUE NOT NULL)
    messages(time DOUBLE, src BIGINT, dst BIGINT, type_id INTEGER,
             size_bytes BIGINT, wire_bytes BIGINT, hops INTEGER,
             shard INTEGER)             -- one row per send attempt
    window_stats(win INTEGER, shard INTEGER, family TEXT, key TEXT,
                 delta BIGINT)          -- per-window StatsCollector deltas
    traffic                              -- view: messages JOIN msg_types
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.constraints import check_value, finite, positive
from repro.errors import ConfigurationError
from repro.sim.codec import TRAFFIC_CLASSES, traffic_class_of
from repro.sim.network import PhysicalNetwork, SendBlock
from repro.sim.stats import StatsCollector

__all__ = [
    "TraceStore",
    "merge_stores",
    "DEFAULT_BATCH_RECORDS",
]

#: flush threshold for unsharded runs (sharded runs flush at barriers too)
DEFAULT_BATCH_RECORDS = 50_000

Headers = Tuple[str, ...]
Rows = List[tuple]
Report = Tuple[Headers, Rows]


_SCHEMA = (
    "CREATE TABLE meta ("
    " key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE msg_types ("
    " type_id INTEGER PRIMARY KEY, name TEXT UNIQUE NOT NULL)",
    "CREATE TABLE messages ("
    " time DOUBLE NOT NULL,"
    " src BIGINT NOT NULL,"
    " dst BIGINT NOT NULL,"
    " type_id INTEGER NOT NULL,"
    " size_bytes BIGINT NOT NULL,"
    " wire_bytes BIGINT NOT NULL,"
    " hops INTEGER NOT NULL,"
    " shard INTEGER NOT NULL)",
    "CREATE TABLE window_stats ("
    " win INTEGER NOT NULL,"
    " shard INTEGER NOT NULL,"
    " family TEXT NOT NULL,"
    " key TEXT NOT NULL,"
    " delta BIGINT NOT NULL)",
    "CREATE VIEW traffic AS"
    " SELECT m.time, m.src, m.dst, t.name AS msg_type, m.size_bytes,"
    " m.wire_bytes, m.hops, m.shard"
    " FROM messages m JOIN msg_types t ON t.type_id = m.type_id",
)

_INSERT_MESSAGES = (
    "INSERT INTO messages"
    " (time, src, dst, type_id, size_bytes, wire_bytes, hops, shard)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
)

_INSERT_STATS = (
    "INSERT INTO window_stats (win, shard, family, key, delta)"
    " VALUES (?, ?, ?, ?, ?)"
)


class TraceStore:
    """Streaming columnar store for message sends and per-window stats.

    Open one per output file; a sharded run opens one per shard (name the
    files by :attr:`Scenario.shard_id`) and merges them afterwards with
    :func:`merge_stores`.  Reopening an existing store file *appends* —
    delete the file first for a fresh run.  An existing SQLite file that
    is not a store raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        batch_records: int = DEFAULT_BATCH_RECORDS,
        shard: int = 0,
    ) -> None:
        self.path = str(path)
        self.batch_records = batch_records
        self.shard = shard
        self._blocks: List[tuple] = []
        self._pending = 0
        self._rows_written = 0
        self._network: Optional[PhysicalNetwork] = None
        self._scenario = None
        self._stats_cursor: dict = {}
        self._stats_window = 0
        self._closed = False
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # Autocommit (isolation_level=None: the module never issues BEGIN
        # by itself) keeps ATTACH legal at any time; every bulk write goes
        # through _transaction(), which brackets it explicitly.  The store
        # is derived data — a crash loses the batch in flight and what was
        # still buffered — so fsync-per-commit and an on-disk journal buy
        # nothing.
        self._conn = sqlite3.connect(self.path, isolation_level=None)
        try:
            self._conn.execute("PRAGMA synchronous=OFF")
            self._conn.execute("PRAGMA journal_mode=MEMORY")
            self._open_or_lay_out()
        except BaseException:
            self._conn.close()
            raise
        self._type_ids = self._stored_type_ids()

    def _open_or_lay_out(self) -> None:
        """Lay out the schema in a database with no tables; refuse, before
        any write, a database whose tables are not a store's."""
        execute = self._conn.execute
        tables = {
            name for (name,) in execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if not tables:
            for statement in _SCHEMA:
                execute(statement)
            execute(
                "INSERT INTO meta (key, value)"
                " VALUES ('backend', 'sqlite'), ('schema_version', '1')"
            )
        elif "meta" not in tables or not execute(
            "SELECT 1 FROM meta WHERE key = 'schema_version'"
        ).fetchone():
            raise ConfigurationError(
                f"{self.path} is not a trace store: it has no meta table"
                " with a schema_version row"
            )

    # -- lifecycle -----------------------------------------------------------

    def attach(self, network: PhysicalNetwork) -> "TraceStore":
        """Start ingesting ``network``'s send attempts (block listener)."""
        if self._network is not None:
            raise RuntimeError("trace store is already attached")
        self._network = network
        network.add_block_listener(self._on_block)
        return self

    def detach(self) -> None:
        if self._network is not None:
            self._network.remove_block_listener(self._on_block)
        self._network = None
        self._scenario = None

    def attach_scenario(self, scenario) -> "TraceStore":
        """Attach to a scenario's network with its shard identity.

        On the sharded kernel this additionally registers a window-barrier
        hook that flushes the buffer and records the window's
        :class:`StatsCollector` delta, so per-shard stores gain a
        ``window_stats`` timeline for free.  On the single-heap kernel
        (:meth:`Scenario.add_barrier_hook` returns False) ingest flushes by
        record count; call :meth:`record_stats` manually for stats rows.
        """
        self.shard = scenario.shard_id
        self.attach(scenario.network)
        if scenario.add_barrier_hook(self._on_barrier):
            self._scenario = scenario
        return self

    def _on_barrier(self, window: int) -> None:
        self.flush()
        if self._scenario is not None:
            self.record_stats(self._scenario.stats, window=window)

    def close(self) -> None:
        """Flush, build query indexes, and release the connection."""
        if self._closed:
            return
        self.detach()
        self.flush()
        for statement in (
            "CREATE INDEX IF NOT EXISTS idx_messages_type"
            " ON messages(type_id)",
            "CREATE INDEX IF NOT EXISTS idx_messages_src ON messages(src)",
        ):
            self._conn.execute(statement)
        self._conn.close()
        self._closed = True

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingest --------------------------------------------------------------

    def _on_block(self, block: SendBlock) -> None:
        # Keep the listener O(1) amortized: stash the raw SoA columns
        # (scalars stay scalars) and defer all expansion to flush().
        self._blocks.append(
            (block.time, block.count, block.src, block.dst, block.msg_type,
             block.size_bytes, block.wire_bytes, block.hops)
        )
        self._pending += block.count
        if self._pending >= self.batch_records:
            self.flush()

    def _stored_type_ids(self) -> Dict[str, int]:
        return {
            name: type_id
            for type_id, name in self._conn.execute(
                "SELECT type_id, name FROM msg_types"
            ).fetchall()
        }

    def _type_id(self, name: str) -> int:
        type_id = self._type_ids.get(name)
        if type_id is None:
            type_id = len(self._type_ids) + 1
            self._conn.execute(
                "INSERT INTO msg_types (type_id, name) VALUES (?, ?)",
                (type_id, name),
            )
            self._type_ids[name] = type_id
        return type_id

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """Bracket a bulk write in one explicit transaction."""
        execute = self._conn.execute
        execute("BEGIN")
        try:
            yield
        except BaseException:
            execute("ROLLBACK")
            # types interned by the lost batch are not in the file
            self._type_ids = self._stored_type_ids()
            raise
        execute("COMMIT")

    def _columns(self, blocks: List[tuple], count: int) -> List[list]:
        """The seven row columns of ``blocks``, each built once: one pass
        gathers every column's parts (a block's shared values are a
        ``repeat``, never an array per block), then one ``fromiter`` per
        column."""
        type_id = self._type_id
        parts: Tuple[List[Iterable], ...] = tuple([] for _ in range(7))
        for time, n, src, dst, msg_type, size_bytes, wire_bytes, hops \
                in blocks:
            for part, values in zip(parts, (
                repeat(time, n), repeat(src, n), dst,
                repeat(type_id(msg_type), n), repeat(size_bytes, n),
                repeat(wire_bytes, n), repeat(hops, n),
            )):
                part.append(values)
        return [
            np.fromiter(
                chain.from_iterable(part), count=count,
                dtype=np.float64 if index == 0 else np.int64,
            ).tolist()
            for index, part in enumerate(parts)
        ]

    def flush(self) -> int:
        """Write buffered blocks; returns the number of rows inserted."""
        if not self._blocks:
            return 0
        blocks, self._blocks = self._blocks, []
        count, self._pending = self._pending, 0
        with self._transaction():  # newly interned msg_types rows included
            columns = self._columns(blocks, count)
            self._conn.executemany(
                _INSERT_MESSAGES, list(zip(*columns, repeat(self.shard)))
            )
        self._rows_written += count
        return count

    @property
    def rows_written(self) -> int:
        return self._rows_written

    def record_stats(
        self, stats: StatsCollector, window: Optional[int] = None
    ) -> int:
        """Append ``stats``'s delta since the last call as window rows.

        Deltas compose like :meth:`StatsCollector.apply_delta`: replaying
        every window's rows onto a fresh collector reproduces the source
        fingerprint.  ``window`` defaults to an auto-incrementing index.
        """
        delta = stats.delta_since(self._stats_cursor)
        if window is None:
            window = self._stats_window
        self._stats_window = window + 1
        rows = [
            (window, self.shard, family, str(key), int(value))
            for family, changed in delta.items()
            if isinstance(changed, dict)  # skip the "compressed" marker
            for key, value in changed.items()
        ]
        if rows:
            with self._transaction():
                self._conn.executemany(_INSERT_STATS, rows)
        return len(rows)

    # -- queries -------------------------------------------------------------

    def sql(self, query: str, params: Sequence = ()) -> Report:
        """Run ``query`` (flushing first) and return (headers, rows)."""
        self.flush()
        cursor = self._conn.execute(query, tuple(params))
        headers = tuple(
            column[0] for column in (cursor.description or ())
        )
        return headers, cursor.fetchall()

    def summary(self) -> Report:
        """One-row store overview."""
        return self.sql(
            "SELECT COUNT(*) AS messages,"
            " COUNT(DISTINCT src) AS senders,"
            " COUNT(DISTINCT dst) AS receivers,"
            " COUNT(DISTINCT type_id) AS types,"
            " COALESCE(SUM(size_bytes), 0) AS bytes,"
            " COALESCE(SUM(wire_bytes), 0) AS wire_bytes,"
            " COALESCE(MIN(time), 0.0) AS t_min,"
            " COALESCE(MAX(time), 0.0) AS t_max,"
            " COUNT(DISTINCT shard) AS shards"
            " FROM messages"
        )

    def report_traffic(self) -> Report:
        """Per-message-type traffic totals and raw-vs-wire ratios."""
        return self.sql(
            "SELECT t.name AS msg_type,"
            " COUNT(*) AS msgs,"
            " SUM(m.size_bytes) AS bytes,"
            " SUM(m.wire_bytes) AS wire_bytes,"
            " SUM(m.size_bytes *"
            "     (CASE WHEN m.hops > 1 THEN m.hops ELSE 1 END))"
            "   AS total_bytes,"
            " ROUND(SUM(m.wire_bytes) * 1.0"
            "       / NULLIF(SUM(m.size_bytes), 0), 4) AS wire_ratio"
            " FROM messages m JOIN msg_types t ON t.type_id = m.type_id"
            " GROUP BY t.name ORDER BY bytes DESC, t.name"
        )

    def report_peers(self) -> Report:
        """Per-peer sent-traffic percentiles (p50 / p90 / p99 / max).

        The heavy lifting is one window-function scan — ``CUME_DIST`` over
        per-peer byte totals — so the answer is the same whether the store
        holds 10k or 10^9 rows; Python only picks the landmark rows.
        """
        headers, rows = self.sql(
            "WITH per_peer AS ("
            " SELECT src AS peer, COUNT(*) AS msgs,"
            " SUM(size_bytes) AS bytes, SUM(wire_bytes) AS wire_bytes"
            " FROM messages GROUP BY src)"
            " SELECT peer, msgs, bytes, wire_bytes,"
            " CUME_DIST() OVER (ORDER BY bytes, peer) AS pct"
            " FROM per_peer ORDER BY bytes, peer"
        )
        out_headers = ("percentile", "peer", "msgs", "bytes", "wire_bytes")
        if not rows:
            return out_headers, []
        picked: Rows = []
        for percentile, target in (
            ("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("max", 1.00),
        ):
            row = next(r for r in rows if r[4] >= target - 1e-12)
            if percentile == "max":
                row = rows[-1]
            picked.append((percentile,) + tuple(row[:4]))
        return out_headers, picked

    def report_routes(self, bucket: float = 1.0) -> Report:
        """Route-length (hop-count) distribution over virtual time.

        Rows are (bucket start, hops, msgs, cumulative msgs at that hop
        count) — the cumulative column is a per-hops running ``SUM() OVER``
        so multi-hop growth is visible window by window.
        """
        check_value("bucket", bucket, finite, positive)
        return self.sql(
            "WITH buckets AS ("
            " SELECT CAST(time / ? AS INTEGER) AS bucket, hops,"
            " COUNT(*) AS msgs, SUM(size_bytes) AS bytes"
            " FROM messages GROUP BY 1, 2)"
            " SELECT bucket * ? AS t_start, hops, msgs, bytes,"
            " SUM(msgs) OVER (PARTITION BY hops ORDER BY bucket)"
            "   AS msgs_cum"
            " FROM buckets ORDER BY bucket, hops",
            (bucket, bucket),
        )

    def report_churn(self) -> Report:
        """Per-window churn-phase breakdown from the stats deltas.

        Requires ``window_stats`` rows (sharded runs record them at every
        barrier; unsharded callers use :meth:`record_stats`).  Phases are
        labelled from the window's own churn counters; the cumulative churn
        column is a running ``SUM() OVER`` the window timeline.
        """
        return self.sql(
            "WITH per_window AS ("
            " SELECT win,"
            " SUM(CASE WHEN family = 'counters' AND key = 'churn_leaves'"
            "     THEN delta ELSE 0 END) AS leaves,"
            " SUM(CASE WHEN family = 'counters' AND key = 'churn_joins'"
            "     THEN delta ELSE 0 END) AS joins,"
            " SUM(CASE WHEN family = 'messages_by_type'"
            "     THEN delta ELSE 0 END) AS msgs,"
            " SUM(CASE WHEN family = 'bytes_by_type'"
            "     THEN delta ELSE 0 END) AS bytes"
            " FROM window_stats GROUP BY win)"
            " SELECT win,"
            " CASE WHEN leaves + joins > 0 THEN 'churn' ELSE 'steady' END"
            "   AS phase,"
            " leaves, joins, msgs, bytes,"
            " SUM(leaves + joins) OVER (ORDER BY win) AS churn_cum"
            " FROM per_window ORDER BY win"
        )

    def report_codec(self) -> Report:
        """Raw-vs-wire compression ratios folded by declared traffic class.

        SQL aggregates per message type; the type → class mapping lives in
        :mod:`repro.sim.codec` (Python), so unclassified types land in
        ``(unclassified)``.
        """
        _, per_type = self.sql(
            "SELECT t.name, COUNT(*), SUM(m.size_bytes), SUM(m.wire_bytes)"
            " FROM messages m JOIN msg_types t ON t.type_id = m.type_id"
            " GROUP BY t.name"
        )
        totals: Dict[str, List[int]] = {}
        for name, msgs, size_bytes, wire_bytes in per_type:
            traffic_class = traffic_class_of(name) or "(unclassified)"
            entry = totals.setdefault(traffic_class, [0, 0, 0])
            entry[0] += msgs
            entry[1] += size_bytes
            entry[2] += wire_bytes
        ordered = [c for c in TRAFFIC_CLASSES if c in totals]
        ordered += sorted(set(totals) - set(TRAFFIC_CLASSES))
        rows = [
            (
                traffic_class,
                totals[traffic_class][0],
                totals[traffic_class][1],
                totals[traffic_class][2],
                round(
                    totals[traffic_class][2]
                    / max(1, totals[traffic_class][1]),
                    4,
                ),
            )
            for traffic_class in ordered
        ]
        return ("class", "msgs", "bytes", "wire_bytes", "wire_ratio"), rows


def _quote_path(path: str) -> str:
    return "'" + path.replace("'", "''") + "'"


def merge_stores(
    target: Union[str, Path],
    sources: Sequence[Union[str, Path]],
) -> TraceStore:
    """Merge per-shard store files into ``target`` (returned open).

    ``ATTACH`` + append, the SQL analogue of :meth:`StatsCollector.merge`:
    message rows are copied with type ids remapped through the target's
    ``msg_types`` interning (shards may have interned types in different
    orders), and ``window_stats`` rows are copied verbatim — their shard
    column already disambiguates.  The merged row multiset equals the
    unsharded store's because ShardNetwork gates block observation on
    source ownership.
    """
    store = TraceStore(target)
    conn = store._conn
    for source in sources:
        # ATTACH/DETACH are illegal inside a transaction (what autocommit
        # is kept for); the copy between them is one.
        conn.execute(f"ATTACH {_quote_path(str(source))} AS src")
        with store._transaction():
            remap = [
                (type_id, store._type_id(name))
                for type_id, name in conn.execute(
                    "SELECT type_id, name FROM src.msg_types"
                ).fetchall()
            ]
            conn.execute(
                "CREATE TEMPORARY TABLE _remap (old INTEGER, new INTEGER)"
            )
            if remap:
                conn.executemany(
                    "INSERT INTO _remap (old, new) VALUES (?, ?)", remap
                )
            conn.execute(
                "INSERT INTO messages"
                " SELECT m.time, m.src, m.dst, r.new, m.size_bytes,"
                " m.wire_bytes, m.hops, m.shard"
                " FROM src.messages m JOIN _remap r ON r.old = m.type_id"
            )
            conn.execute(
                "INSERT INTO window_stats SELECT * FROM src.window_stats"
            )
            conn.execute("DROP TABLE _remap")
        conn.execute("DETACH src")
    return store
