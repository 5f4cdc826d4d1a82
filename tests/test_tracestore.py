"""Tests for the block-listener API and the queryable trace store
(`repro.sim.tracestore`).

The invariants under test:

- block listeners observe every send attempt on all three network paths
  without forcing any of them off their fast path (the old per-message
  send-listener gate disabled the vectorized broadcast);
- ``wire_bytes`` reaches the store end to end;
- trace-store ingest is accounting-only: golden digests are byte-identical
  with a store attached, across the sharded fuzz sample;
- K per-shard stores merge to exactly the unsharded store's row set;
- ingest is one explicit transaction per ``flush()`` and per
  ``record_stats()``, so a store whose run died holds whole batches only.
"""

import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

from determinism_fixtures import (
    SHARD_JITTER_FLOOR,
    TrainingWorkload,
    build_scenario_config,
    digest_of,
    run_training_perpeer,
    run_training_sharded,
)
from repro.cli import main
from repro.sim.codec import make_codec_table
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import PhysicalNetwork, SendBlock
from repro.sim.scenario import Scenario
from repro.sim.shard import ShardedScenario
from repro.sim.stats import StatsCollector
from repro.sim.tracestore import TraceStore, merge_stores
from repro.sim.transport import Transport

from reference import install_per_message_broadcast


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_stack(num_nodes=6, seed=0, codec=None):
    simulator = Simulator(seed=seed)
    stats = StatsCollector()
    network = PhysicalNetwork(simulator, stats=stats)
    transport = Transport(
        network, stats=stats,
        codec=make_codec_table(codec) if codec else None,
    )
    for node in range(num_nodes):
        network.register(node, lambda message: None)
    return simulator, stats, network, transport


ROW_QUERY = (
    "SELECT time, src, dst, msg_type, size_bytes, wire_bytes, hops"
    " FROM traffic"
)


def store_rows(path):
    with TraceStore(path) as store:
        _, rows = store.sql(ROW_QUERY)
    return sorted(rows)


# ---------------------------------------------------------------------------
# Block-listener API.
# ---------------------------------------------------------------------------


class TestBlockListeners:
    def test_blocks_cover_all_three_send_paths(self):
        simulator, stats, network, transport = make_stack()
        blocks = []
        network.add_block_listener(blocks.append)
        network.send(Message(src=0, dst=1, msg_type="uni", payload="x"))
        network.send_batch([
            Message(src=1, dst=2, msg_type="bat", size_bytes=10),
            Message(src=2, dst=3, msg_type="bat", size_bytes=11),
        ])
        network.broadcast_block(4, [0, 1, 2], "cast", None, 50,
                                wire_bytes=30)
        assert [b.count for b in blocks] == [1, 2, 3]
        unicast, batch, cast = blocks
        assert list(unicast.rows())[0][2] == "uni"
        assert [row[3] for row in batch.rows()] == [10, 11]
        # Broadcast columns stay scalar — no per-recipient expansion.
        assert cast.src == 4 and cast.msg_type == "cast"
        assert cast.size_bytes == 50 and cast.wire_bytes == 30
        assert [row[1] for row in cast.rows()] == [0, 1, 2]

    def test_attempts_recorded_before_liveness(self):
        simulator, stats, network, transport = make_stack()
        network.set_down(0)
        blocks = []
        network.add_block_listener(blocks.append)
        sent = network.send(Message(src=0, dst=1, msg_type="a"))
        assert not sent  # down source: dropped...
        assert blocks and blocks[0].count == 1  # ...but the attempt is seen

    def test_remove_block_listener(self):
        simulator, stats, network, transport = make_stack()
        blocks = []
        network.add_block_listener(blocks.append)
        network.remove_block_listener(blocks.append)
        assert not network.has_block_listeners
        network.send(Message(src=0, dst=1, msg_type="a"))
        assert blocks == []

    def test_block_listener_does_not_force_scalar_broadcast(self):
        """The satellite-2 fix: a trace rides the vectorized fast path."""
        simulator, stats, network, transport = make_stack(num_nodes=20)
        calls = []
        original = network.broadcast_block

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        network.broadcast_block = spy
        with TraceStore(":memory:").attach(network) as store:
            assert network.has_block_listeners
            transport.broadcast(
                0, "cast", "y" * 64, recipients=list(range(1, 20))
            )
            assert len(store.sql(ROW_QUERY)[1]) == 19
        assert calls == [1], "trace attached forced the scalar fallback"

    def test_digest_invariant_and_scalar_trace_equal(self):
        """Same digest with/without trace; same records scalar/vectorized."""

        def run(traced=False, scalar=False, codec="gzip-model"):
            simulator, stats, network, transport = make_stack(
                num_nodes=12, codec=codec
            )
            if scalar:
                install_per_message_broadcast(transport)
            store = TraceStore(":memory:").attach(network) if traced else None
            for origin in (0, 1):
                transport.broadcast(
                    origin, "cast", "z" * 100,
                    recipients=[n for n in range(12) if n != origin],
                )
            simulator.run()
            rows = store.sql(ROW_QUERY)[1] if traced else None
            return stats, rows

        bare, _ = run()
        traced, traced_rows = run(traced=True)
        assert bare.fingerprint_bytes() == traced.fingerprint_bytes()

        scalar_stats, scalar_rows = run(traced=True, scalar=True)
        assert scalar_stats.fingerprint_bytes() == bare.fingerprint_bytes()
        assert scalar_rows == traced_rows and len(traced_rows) == 22
        # The codec dimension is captured, not defaulted (columns:
        # ... size_bytes, wire_bytes, hops).
        assert all(row[5] < row[4] for row in traced_rows)


# ---------------------------------------------------------------------------
# TraceStore ingest + analytics.
# ---------------------------------------------------------------------------


class TestTraceStore:
    def test_ingest_counts_and_batching(self, tmp_path):
        path = tmp_path / "s.db"
        simulator, stats, network, transport = make_stack(num_nodes=10)
        with TraceStore(path, batch_records=16).attach(network) as store:
            for origin in range(3):
                transport.broadcast(
                    origin, "cast", "p" * 32,
                    recipients=[n for n in range(10) if n != origin],
                )
            simulator.run()
            assert store.rows_written >= 16  # mid-run flush happened
            store.record_stats(stats)
        with TraceStore(path) as reopened:
            _, rows = reopened.sql("SELECT COUNT(*) FROM messages")
            assert rows[0][0] == 27 == stats.total_messages
            _, types = reopened.sql("SELECT name FROM msg_types")
            assert [t[0] for t in types] == ["cast"]
            _, meta = reopened.sql("SELECT key, value FROM meta ORDER BY key")
            assert meta == [("backend", "sqlite"), ("schema_version", "1")]

    def test_store_counts_attempts_like_the_tracer(self, tmp_path):
        """Down-source sends land in the store (tracer convention), not in
        the stats (post-liveness)."""
        path = tmp_path / "s.db"
        simulator, stats, network, transport = make_stack()
        network.set_down(0)
        with TraceStore(path).attach(network) as store:
            network.send(Message(src=0, dst=1, msg_type="a"))
            network.send(Message(src=1, dst=2, msg_type="a"))
        assert stats.total_messages == 1
        assert len(store_rows(path)) == 2

    def test_window_stats_deltas_compose(self, tmp_path):
        path = tmp_path / "s.db"
        stats = StatsCollector()
        with TraceStore(path) as store:
            stats.record_message_block(
                "cast", 100, src=7, dsts=[1, 2, 3], wire_bytes=60
            )
            store.record_stats(stats)
            stats.increment("churn_leaves")
            stats.record_message_block(
                "cast", 100, src=8, dsts=[1, 2], wire_bytes=40
            )
            store.record_stats(stats)
            # Replaying every window's rows reproduces the totals.
            _, rows = store.sql(
                "SELECT family, key, SUM(delta) FROM window_stats"
                " GROUP BY family, key"
            )
        totals = {(family, key): delta for family, key, delta in rows}
        assert totals[("messages_by_type", "cast")] == 5
        assert totals[("counters", "churn_leaves")] == 1
        assert totals[("bytes_by_type", "cast")] == 500
        with TraceStore(path) as store:
            _, churn = store.report_churn()
        assert [row[1] for row in churn] == ["steady", "churn"]
        assert churn[-1][6] == 1  # cumulative churn events

    def test_analyze_cli(self, tmp_path, capsys):
        path = str(tmp_path / "s.db")
        simulator, stats, network, transport = make_stack(num_nodes=8)
        with TraceStore(path).attach(network):
            transport.broadcast(0, "cast", "c" * 48,
                                recipients=list(range(1, 8)))
            simulator.run()
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "Store summary" in out and "Traffic by message type" in out
        assert main([
            "analyze", path, "--report", "peers", "--report", "routes",
            "--report", "codec",
        ]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p99" in out
        assert main([
            "analyze", path, "--sql",
            "SELECT COUNT(*) AS n FROM messages",
        ]) == 0
        assert "7" in capsys.readouterr().out
        assert main(["analyze", str(tmp_path / "missing.db")]) == 2

    def test_reporting_from_store_matches_stats(self, tmp_path):
        path = str(tmp_path / "s.db")
        simulator, stats, network, transport = make_stack(
            num_nodes=9, codec="gzip-model"
        )
        with TraceStore(path).attach(network):
            transport.broadcast(0, "cast", "r" * 64,
                                recipients=list(range(1, 9)))
            network.send(Message(src=1, dst=2, msg_type="uni",
                                 size_bytes=33))
            simulator.run()
        with TraceStore(path) as store:
            headers, rows = store.report_traffic()
        by_type = {row[0]: row for row in rows}
        assert by_type["cast"][1] == stats.messages_by_type["cast"]
        assert by_type["cast"][2] == stats.bytes_by_type["cast"]
        assert by_type["cast"][3] == stats.wire_bytes_by_type["cast"]
        assert by_type["uni"][2] == 33


# ---------------------------------------------------------------------------
# The ingest transaction contract.
# ---------------------------------------------------------------------------


def _ingest_some(network, transport):
    """One send_batch block, one broadcast block, one scalar send."""
    transport.send_batch([
        Message(src=0, dst=1, msg_type="uni"),
        Message(src=0, dst=2, msg_type="other"),
        Message(src=3, dst=1, msg_type="uni"),
    ])
    transport.broadcast(2, "cast", "p" * 16, recipients=[0, 1, 3, 4])
    network.send(Message(src=4, dst=5, msg_type="uni"))
    return 3 + 4 + 1


def _orphan_rows(store):
    """Message rows whose type id names no ``msg_types`` row."""
    _, rows = store.sql(
        "SELECT COUNT(*) FROM messages m LEFT JOIN msg_types t"
        " ON t.type_id = m.type_id WHERE t.name IS NULL"
    )
    return rows[0][0]


class TestIngestTransactions:
    def _traced(self, path):
        simulator, stats, network, transport = make_stack()
        store = TraceStore(path).attach(network)
        statements = []
        store._conn.set_trace_callback(statements.append)
        return store, statements, stats, network, transport

    @staticmethod
    def _brackets(statements):
        return [s for s in statements if s in ("BEGIN", "COMMIT", "ROLLBACK")]

    def test_each_flush_and_each_record_stats_is_one_transaction(
        self, tmp_path
    ):
        store, statements, stats, network, transport = self._traced(
            tmp_path / "s.db"
        )
        for barrier in range(3):
            del statements[:]
            rows = _ingest_some(network, transport)
            assert statements == []  # buffering touches no SQL
            assert store.flush() == rows
            assert self._brackets(statements) == ["BEGIN", "COMMIT"]
            assert (statements[0], statements[-1]) == ("BEGIN", "COMMIT")
            assert sum("INTO messages" in s for s in statements) == rows
            # newly interned types ride the same transaction
            assert sum("INTO msg_types" in s for s in statements) == (
                3 if barrier == 0 else 0
            )
            del statements[:]
            assert store.record_stats(stats, window=barrier) > 0
            assert (statements[0], statements[-1]) == ("BEGIN", "COMMIT")
            assert self._brackets(statements) == ["BEGIN", "COMMIT"]
            assert all(
                "INTO window_stats" in s for s in statements[1:-1]
            )
            assert not store._conn.in_transaction
        del statements[:]
        assert store.flush() == 0 and store.record_stats(stats) == 0
        assert statements == []  # nothing to write, nothing bracketed
        store.close()

    def test_a_failed_flush_rolls_its_batch_back(self, tmp_path):
        store, statements, stats, network, transport = self._traced(
            tmp_path / "s.db"
        )
        store._blocks.append((0.0, 2, [1, 2], [3, 4], "uni", [1, "x"], 1, 1))
        store._pending = 2
        with pytest.raises(ValueError):
            store.flush()
        assert self._brackets(statements) == ["BEGIN", "ROLLBACK"]
        assert not store._conn.in_transaction
        assert store.sql("SELECT COUNT(*) FROM messages")[1] == [(0,)]
        # the type the lost batch interned is forgotten with it, so the
        # next batch interns it again instead of pointing at nothing
        assert _ingest_some(network, transport) == store.flush()
        assert _orphan_rows(store) == 0
        store.close()

    def test_attach_is_legal_right_after_an_ingest(self, tmp_path):
        """What autocommit is kept for: no transaction is ever left open,
        so merge_stores can ATTACH into a store that has just ingested."""
        paths = []
        for index in range(2):
            path = tmp_path / f"shard.{index}"
            simulator, stats, network, transport = make_stack()
            with TraceStore(path, shard=index).attach(network) as store:
                rows = _ingest_some(network, transport)
                store.record_stats(stats)
            paths.append(path)
        target = tmp_path / "merged.db"
        simulator, stats, network, transport = make_stack()
        with TraceStore(target).attach(network) as store:
            _ingest_some(network, transport)
            store.flush()
            store.record_stats(stats)
            store._conn.execute("ATTACH ':memory:' AS probe")
            store._conn.execute("DETACH probe")
        merged = merge_stores(target, paths)
        try:
            assert not merged._conn.in_transaction
            _, shards = merged.sql(
                "SELECT shard, COUNT(*) FROM messages GROUP BY shard"
                " ORDER BY shard"
            )
            assert shards == [(0, 2 * rows), (1, rows)]
            _, stats_rows = merged.sql(
                "SELECT shard, COUNT(*) > 0 FROM window_stats GROUP BY shard"
                " ORDER BY shard"
            )
            assert stats_rows == [(0, 1), (1, 1)]
        finally:
            merged.close()

    def test_a_dropped_store_holds_exactly_the_committed_flushes(
        self, tmp_path
    ):
        """Two barriers' worth of blocks flushed, a third buffered, the
        object dropped without close(): the file has the two batches."""
        path = tmp_path / "s.db"
        simulator, stats, network, transport = make_stack()
        store = TraceStore(path).attach(network)
        committed = 0
        for barrier in range(2):
            committed += _ingest_some(network, transport)
            store._on_barrier(barrier)
            store.record_stats(stats, window=barrier)
        _ingest_some(network, transport)  # buffered, never flushed
        network.remove_block_listener(store._on_block)
        del store
        gc.collect()
        with TraceStore(path) as reopened:
            assert reopened.sql("SELECT COUNT(*) FROM messages")[1] == [
                (committed,)
            ]
            _, windows = reopened.sql(
                "SELECT DISTINCT win FROM window_stats ORDER BY win"
            )
            assert windows == [(0,), (1,)]
            # the type table is consistent with the rows that made it
            assert _orphan_rows(reopened) == 0

    def test_a_killed_process_leaves_whole_batches(self, tmp_path):
        """The same contract under a real death: the writer process
        ``os._exit``s mid-run — no close(), no destructor, no atexit."""
        path = tmp_path / "killed.db"
        script = (
            "import os, sys\n"
            "from repro.sim.network import SendBlock\n"
            "from repro.sim.tracestore import TraceStore\n"
            "store = TraceStore(sys.argv[1])\n"
            "def block(t):\n"
            "    store._on_block(SendBlock(t, 50, 7, list(range(50)),\n"
            "                              'storm', 200, 200, 1))\n"
            "for barrier in range(3):\n"
            "    for _ in range(4):\n"
            "        block(float(barrier))\n"
            "    store.flush()\n"
            "block(9.0)\n"
            "os._exit(0)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        subprocess.run(
            [sys.executable, "-c", script, str(path)], check=True, env=env,
            timeout=120,
        )
        with TraceStore(path) as reopened:
            _, per_time = reopened.sql(
                "SELECT time, COUNT(*) FROM messages GROUP BY time"
                " ORDER BY time"
            )
        assert per_time == [(0.0, 200), (1.0, 200), (2.0, 200)]


# ---------------------------------------------------------------------------
# Sharded ingest: digest invariance, merge equality, barrier flushing.
# ---------------------------------------------------------------------------


class TracingTrainingWorkload(TrainingWorkload):
    """The golden training workload with a per-shard TraceStore attached.

    Module-level (not a closure) so the mp executor can pickle it into
    worker processes; each worker opens ``{store_base}.{shard_id}``.
    """

    def __init__(self, protocol, variant, store_base, codec="identity"):
        super().__init__(protocol, variant, codec)
        self.store_base = store_base

    def __call__(self, scenario):
        store = TraceStore(
            f"{self.store_base}.{scenario.shard_id}",
            shard=scenario.shard_id,
        ).attach_scenario(scenario)
        try:
            return super().__call__(scenario)
        finally:
            store.record_stats(scenario.stats)
            store.close()


def run_unsharded_with_store(protocol, overlay, variant, store_base):
    config = build_scenario_config(
        overlay, variant, rng_mode="perpeer",
    )
    scenario = Scenario(config)
    TracingTrainingWorkload(protocol, variant, store_base)(scenario)
    return digest_of(scenario.stats, scenario.simulator.now)


def run_sharded_with_store(protocol, overlay, variant, shards, executor,
                           control_plane, store_base):
    config = build_scenario_config(
        overlay, variant, rng_mode="perpeer", shards=shards,
        control_plane=control_plane,
    )
    run = ShardedScenario(config, executor=executor).run(
        TracingTrainingWorkload(protocol, variant, str(store_base))
    )
    return run.digest()


#: the sharded fuzz sample from the ISSUE: serial/mp x replicated/directory
STORE_FUZZ = (
    ("pace", "chord", "churn", 2, "serial", "replicated"),
    ("nbagg", "superpeer", "none", 2, "serial", "directory"),
    ("pace", "chord", "none", 2, "mp", "replicated"),
    ("centralized", "superpeer", "churn", 4, "mp", "directory"),
)


class TestShardedStore:
    @pytest.mark.parametrize(
        "protocol,overlay,variant,shards,executor,plane", STORE_FUZZ
    )
    def test_golden_digest_invariant_with_store(
        self, tmp_path, protocol, overlay, variant, shards, executor, plane
    ):
        """Fingerprints byte-identical with and without ingest."""
        bare = run_training_sharded(
            protocol, overlay, variant, shards, executor=executor,
            control_plane=plane,
        ).digest()
        stored = run_sharded_with_store(
            protocol, overlay, variant, shards, executor, plane,
            tmp_path / "shard",
        )
        assert stored == bare
        # And both equal the unsharded per-peer reference.
        stats, now = run_training_perpeer(protocol, overlay, variant)
        assert digest_of(stats, now) == bare

    def test_merge_equals_unsharded_rows(self, tmp_path):
        """K per-shard stores merged == the unsharded store's row set."""
        protocol, overlay, variant = "pace", "chord", "churn"
        unsharded_digest = run_unsharded_with_store(
            protocol, overlay, variant, tmp_path / "flat"
        )
        reference = store_rows(tmp_path / "flat.0")
        assert reference, "unsharded store captured nothing"
        for shards in (2, 4):
            base = tmp_path / f"k{shards}"
            sharded_digest = run_sharded_with_store(
                protocol, overlay, variant, shards, "serial", "replicated",
                base,
            )
            assert sharded_digest == unsharded_digest
            sources = sorted(
                tmp_path.glob(f"k{shards}.*"), key=lambda p: p.suffix
            )
            assert len(sources) == shards
            merged_path = tmp_path / f"merged{shards}.db"
            merge_stores(merged_path, sources).close()
            assert store_rows(merged_path) == reference

    def test_smoke_storm_merge_and_reports_are_the_pinned_bytes(
        self, tmp_path
    ):
        """The benchmark's own durable leg at smoke size (K=2, mp): the
        merged row multiset, the window_stats rows and all five canned
        reports hash to the value the per-row autocommit ingest produced
        (pinned at 28a26e9, before flush became one transaction)."""
        perf = os.path.join(ROOT, "benchmarks", "perf")
        if perf not in sys.path:
            sys.path.insert(0, perf)
        workloads = importlib.import_module("workloads")
        shape = workloads.StormSharded.SMOKE
        base = str(tmp_path / "trace")
        storm = workloads.StormWorkload(
            shape["peers"], shape["rounds"], shape["fanout"], store_base=base
        )
        ShardedScenario(
            workloads.storm_config(shape["peers"], 0, shards=2),
            executor="mp",
        ).run(storm)
        merged = merge_stores(
            tmp_path / "merged.db", [f"{base}.{shard}" for shard in (0, 1)]
        )
        try:
            _, rows = merged.sql(
                "SELECT time, src, dst, msg_type, size_bytes, wire_bytes,"
                " hops, shard FROM traffic"
            )
            _, window_stats = merged.sql(
                "SELECT win, shard, family, key, delta FROM window_stats"
            )
            reports = {
                name: getattr(merged, name)()
                for name in workloads.StormSharded.REPORTS
            }
        finally:
            merged.close()
        assert len(rows) == storm.messages
        document = json.dumps(
            {"rows": sorted(rows), "window_stats": sorted(window_stats),
             "reports": reports},
            sort_keys=True,
        )
        assert hashlib.sha256(document.encode()).hexdigest() == (
            "ea38e1ff3008b72eafbd8226c344a99b0f990be557ac1a9e966253076493a938"
        )

    def test_barrier_hook_flushes_per_window(self, tmp_path):
        """Sharded ingest records a window_stats timeline, one delta set
        per barrier, composable back to the merged totals."""
        base = tmp_path / "w"
        run = ShardedScenario(
            build_scenario_config(
                "chord", "churn", rng_mode="perpeer", shards=2,
            ),
            executor="serial",
        ).run(TracingTrainingWorkload("pace", "churn", str(base)))
        assert run.windows > 1
        merged = tmp_path / "w.db"
        merge_stores(merged, sorted(tmp_path.glob("w.*"))).close()
        with TraceStore(merged) as store:
            _, windows = store.sql(
                "SELECT COUNT(DISTINCT win) FROM window_stats"
            )
            _, totals = store.sql(
                "SELECT SUM(delta) FROM window_stats"
                " WHERE family = 'messages_by_type'"
            )
        assert windows[0][0] > 1, "expected per-window stats deltas"
        assert totals[0][0] == run.stats.total_messages

    def test_base_scenario_hooks(self):
        scenario = Scenario(
            build_scenario_config("chord", "none", rng_mode="perpeer")
        )
        assert scenario.shard_id == 0
        assert scenario.num_shards == 1
        assert scenario.add_barrier_hook(lambda window: None) is False
