"""Tests for message tracing and the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.network import PhysicalNetwork
from repro.sim.tracestore import TraceStore


def make_network():
    simulator = Simulator(seed=0)
    network = PhysicalNetwork(simulator)
    network.register(1, lambda m: None)
    network.register(2, lambda m: None)
    network.register(3, lambda m: None)
    return simulator, network


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
