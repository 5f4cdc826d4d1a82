"""Tests for message tracing and the command-line interface."""

import functools
import hashlib
import sqlite3

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core.tagger import SystemConfig
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import PhysicalNetwork, SharedStream
from repro.sim.tracestore import TraceStore


def make_network():
    simulator = Simulator(seed=0)
    network = PhysicalNetwork(simulator, SharedStream(simulator.rng))
    network.register(1, lambda m: None)
    network.register(2, lambda m: None)
    network.register(3, lambda m: None)
    return simulator, network


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def closed_store(path):
    """A store a traced run wrote and closed."""
    simulator, network = make_network()
    with TraceStore(path).attach(network) as store:
        network.send(Message(src=1, dst=2, msg_type="a"))
        network.send(Message(src=2, dst=3, msg_type="b"))
        store.record_stats(network.stats)
    return str(path)


def traffic(store, where="1=1", params=()):
    """(time, src, dst, msg_type, size_bytes) rows in ingest order."""
    return store.sql(
        "SELECT time, src, dst, msg_type, size_bytes FROM traffic"
        f" WHERE {where}", params,
    )[1]


class TestMessageTrace:
    """The in-process trace is ``TraceStore(":memory:")``."""

    def test_records_sent_messages(self):
        simulator, network = make_network()
        store = TraceStore(":memory:").attach(network)
        network.send(Message(src=1, dst=2, msg_type="a", payload="xx"))
        network.send(Message(src=2, dst=3, msg_type="b"))
        simulator.run()
        rows = traffic(store)
        assert len(rows) == 2
        assert rows[0][3] == "a"
        assert rows[0][4] == 42

    def test_detach_restores_send(self):
        simulator, network = make_network()
        store = TraceStore(":memory:").attach(network)
        store.detach()
        network.send(Message(src=1, dst=2, msg_type="a"))
        assert traffic(store) == []

    def test_double_attach_rejected(self):
        _, network = make_network()
        store = TraceStore(":memory:").attach(network)
        with pytest.raises(RuntimeError):
            store.attach(network)
        store.detach()

    def test_filters(self):
        simulator, network = make_network()
        store = TraceStore(":memory:").attach(network)
        network.send(Message(src=1, dst=2, msg_type="a"))
        network.send(Message(src=1, dst=3, msg_type="b"))
        network.send(Message(src=2, dst=3, msg_type="a"))
        store.detach()
        assert len(traffic(store, "msg_type = 'a'")) == 2
        assert len(traffic(store, "src = 1")) == 2
        assert len(traffic(store, "dst = 3")) == 2
        assert len(traffic(store, "msg_type = ? AND src = ?", ("a", 2))) == 1

    def test_time_window_filter(self):
        simulator, network = make_network()
        store = TraceStore(":memory:").attach(network)
        network.send(Message(src=1, dst=2, msg_type="early"))
        simulator.run()
        simulator.schedule(10.0, lambda: network.send(
            Message(src=1, dst=2, msg_type="late")
        ))
        simulator.run()
        store.detach()
        assert [r[3] for r in traffic(store, "time >= 5.0")] == ["late"]

    def test_timeline_buckets(self):
        simulator, network = make_network()
        store = TraceStore(":memory:").attach(network)
        network.send(Message(src=1, dst=2, msg_type="a"))
        network.send(Message(src=1, dst=2, msg_type="a"))
        store.detach()
        _, timeline = store.report_routes(bucket=1.0)
        assert timeline[0][:3] == (0.0, 1, 2)  # both at t=0, one hop
        with pytest.raises(ConfigurationError):
            store.report_routes(bucket=0)

    def test_conversation_matrix(self):
        simulator, network = make_network()
        store = TraceStore(":memory:").attach(network)
        network.send(Message(src=1, dst=2, msg_type="a"))
        network.send(Message(src=1, dst=2, msg_type="a"))
        network.send(Message(src=2, dst=1, msg_type="a"))
        store.detach()
        _, rows = store.sql(
            "SELECT src, dst, COUNT(*) FROM messages GROUP BY src, dst"
        )
        assert sorted(rows) == [(1, 2, 2), (2, 1, 1)]


SMALL = ["--users", "5", "--docs", "14", "--tags", "6", "--seed", "1"]


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--algorithm", "local"])
        assert args.algorithm == "local"

    def test_corpus_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        code = main(["corpus", path, "--users", "3", "--docs", "5"])
        assert code == 0
        assert "wrote 15 documents" in capsys.readouterr().out
        code = main(
            ["run", "--algorithm", "local", "--load", path, "--max-eval", "10"]
        )
        assert code == 0

    def test_run_local(self, capsys):
        code = main(["run", "--algorithm", "local", "--max-eval", "10"] + SMALL)
        assert code == 0
        out = capsys.readouterr().out
        assert "[local]" in out and "microF1" in out

    def test_run_with_tuned_thresholds(self, capsys):
        code = main(
            ["run", "--algorithm", "local", "--tune-thresholds",
             "--max-eval", "10"] + SMALL
        )
        assert code == 0

    def test_compare_subset(self, capsys):
        code = main(
            ["compare", "--algorithms", "local", "popularity",
             "--max-eval", "10"] + SMALL
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "local" in out and "popularity" in out

    def test_suggest(self, capsys):
        code = main(
            ["suggest", "--algorithm", "local", "--count", "2"] + SMALL
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "doc" in out and "true:" in out

    def test_overlay_chord(self, capsys):
        code = main(["overlay", "--type", "chord", "--size", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chord" in out and "success 100/100" in out

    def test_overlay_kademlia_and_unstructured(self, capsys):
        assert main(["overlay", "--type", "kademlia", "--size", "16"]) == 0
        assert main(["overlay", "--type", "unstructured", "--size", "16"]) == 0

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="default"),
        *(pytest.param(["--report", name], id=name)
          for name in cli._ANALYZE_TITLES),
        pytest.param(
            ["--sql", "SELECT msg_type, COUNT(*) FROM traffic GROUP BY 1"],
            id="sql",
        ),
    ])
    def test_analyze_leaves_a_closed_store_unchanged(
        self, capsys, tmp_path, argv
    ):
        store = closed_store(tmp_path / "trace.db")
        before = sha256(store)
        assert main(["analyze", store, *argv]) == 0
        assert capsys.readouterr().out
        assert sha256(store) == before

    def test_replay_is_not_a_subcommand(self, capsys):
        """The WAL's one reader is resume; ``repro replay`` is refused by
        the parser like any unknown subcommand."""
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", "run.wal"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'replay'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, options, names", [
        (["analyze", "/nonexistent/run.db"], None, "/nonexistent/run.db"),
        # sqlite3's "file is not a database" traceback, status 1
        (["analyze", "{text}"], None, "not a trace store"),
        # the trace schema added to it and reported on, status 0
        (["analyze", "{other}"], None, "no meta table"),
        # sqlite3's syntax-error traceback, status 1
        (["analyze", "{store}", "--sql", "SELEC 1"], None, "syntax error"),
        # deleted every row, status 0
        (["analyze", "{store}", "--sql", "DELETE FROM messages"], None,
         "readonly"),
        (["overlay", "--size", "0"], None, "--size must be >= 1"),
        # numpy's "expected non-negative integer" traceback, status 1
        (["run"] + SMALL + ["--seed", "-1"], None, "seed must be"),
        (["corpus", "/nonexistent/c.jsonl", "--seed", "-1"], None,
         "seed must be"),
        # a report over every held-out document but the last, status 0
        (["run", "--algorithm", "local", "--max-eval", "-1"] + SMALL, None,
         "max_documents must be"),
        (["suggest", "--algorithm", "local", "--count", "-1"] + SMALL, None,
         "--count must be"),
        # PaceConfig.__init__'s TypeError, status 1
        (["run", "--algorithm", "pace"] + SMALL, {"bogus": 1}, "'bogus'"),
    ], ids=["analyze-missing-store", "analyze-not-a-store",
            "analyze-sqlite-not-a-store", "analyze-bad-sql",
            "analyze-write-sql", "overlay-size-0", "run-seed-negative",
            "corpus-seed-negative", "run-max-eval-negative",
            "suggest-count-negative", "run-unknown-algorithm-option"])
    def test_a_user_error_is_one_line_and_status_2(
        self, capsys, monkeypatch, tmp_path, argv, options, names
    ):
        if options is not None:  # the CLI has no flag for algorithm_options
            monkeypatch.setattr(
                cli, "SystemConfig",
                functools.partial(SystemConfig, algorithm_options=options),
            )
        text = tmp_path / "notes.txt"
        text.write_text("not a trace store\n")
        other = tmp_path / "other.db"  # a SQLite database, not a store
        with sqlite3.connect(other) as conn:
            conn.execute("CREATE TABLE notes (body TEXT)")
            conn.execute("INSERT INTO notes VALUES ('kept as it is')")
        conn.close()
        store = closed_store(tmp_path / "trace.db")
        before = {path: sha256(path) for path in (text, other, store)}
        argv = [arg.format(text=text, other=other, store=store)
                for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and names in line
        assert "Traceback" not in captured.err + captured.out
        assert {path: sha256(path) for path in before} == before
        with TraceStore(store) as after:  # nothing was written
            assert after.sql("SELECT COUNT(*) FROM messages")[1] == [(2,)]
