"""The four benchmark workloads.

Each workload is a class with ``setup()``, ``load()``, ``query()`` and
``finish()``; ``run.py`` builds a fresh instance per repetition and reads
the first three off a :class:`stopwatch.Stopwatch`.  Each of the three ends
by closing its last lap, and closes one at every boundary of its own loops
in between (``self.lap(label)``): a lap is the unit the stopwatch can
correct for the machine's drift.  A workload drives ``repro`` only through its
public constructors and leaves every setting it does not depend on at its
default.  ``--seed`` seeds corpus generation and the scenarios; the program
sees only the generated inputs.

This must stay an importable module (never ``__main__``): the tcp executor
pickles :class:`StormWorkload` into worker processes, which resolve it
through the coordinator's ``sys.path``.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Dict, List, Optional

from repro.core.tagger import P2PDocTaggerSystem
from repro.data import DeliciousGenerator
from repro.ml.metrics import MultiLabelReport
from repro.sim.codec import register_traffic_class
from repro.sim.distribution import ShardSpec
from repro.sim.messages import Message
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.shard import ShardedScenario, scenario_digest
from repro.sim.tracestore import TraceStore, merge_stores
from repro.sim.wal import WalReader

_clock = time.perf_counter
#: AutoTag calls per stopwatch lap
AUTOTAG_LAP = 32

LOOKUP_MSG_TYPE = "perf.lookup"
BROADCAST_MSG_TYPE = "perf.model_broadcast"


class Checks:
    """Operations attempted and failed; every correctness check is one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def equal(self, got: Any, want: Any, what: str) -> bool:
        return self.record(got == want, f"{what}: {got!r} != {want!r}")


class StormWorkload:
    """SPMD storm: every node fires one batched fan-out block per round.

    A copy of E3e's storm (``benchmarks/bench_e3_scalability.py``) so later
    edits there cannot change this benchmark.  Runs identically on the
    single-heap kernel and in every shard worker; each node's fire event is
    scheduled only on its owning shard.  ``store_base`` attaches a
    per-shard :class:`TraceStore` (only the path string is pickled).
    Returns ``(delivered, events executed, construction cost)``.
    """

    def __init__(self, num_nodes: int, rounds: int, fanout: int,
                 payload_bytes: int = 200,
                 store_base: Optional[str] = None) -> None:
        self.num_nodes = num_nodes
        self.rounds = rounds
        self.fanout = fanout
        self.payload_bytes = payload_bytes
        self.store_base = store_base

    @property
    def messages(self) -> int:
        return self.num_nodes * self.rounds * self.fanout

    def _fire(self, transport, src: int, round_index: int) -> None:
        num_nodes = self.num_nodes
        fanout = self.fanout
        block = []
        for k in range(fanout):
            dst = (src + 1 + (round_index * fanout + k) * 7) % num_nodes
            if dst == src:
                dst = (dst + 1) % num_nodes
            block.append(
                Message(src=src, dst=dst, msg_type="storm", payload=None,
                        size_bytes=self.payload_bytes)
            )
        transport.send_batch(block)

    def __call__(self, scenario):
        store = None
        if self.store_base is not None:
            store = TraceStore(
                f"{self.store_base}.{scenario.shard_id}",
                shard=scenario.shard_id,
            ).attach_scenario(scenario)
        delivered = [0]

        def handler(message):
            delivered[0] += 1

        for node in range(self.num_nodes):
            scenario.register_peer(node, handler)
        transport = scenario.transport
        simulator = scenario.simulator
        owns = scenario.owns
        fire = self._fire
        for round_index in range(self.rounds):
            at = float(round_index)
            for src in range(self.num_nodes):
                if owns(src):
                    simulator.schedule_at(
                        at, fire, args=(transport, src, round_index)
                    )
        executed = simulator.run_until_idle(max_events=5_000_000)
        if store is not None:
            store.record_stats(scenario.stats)
            store.close()
        return delivered[0], executed, scenario.construction_cost()


def storm_config(num_nodes: int, seed: int, shards: int = 0,
                 wal: Optional[str] = None) -> ScenarioConfig:
    return ScenarioConfig(
        num_peers=num_nodes,
        overlay="fullmesh",
        rng_mode="perpeer",
        jitter_floor=0.5,
        shards=shards,
        shard=ShardSpec(num_peers=num_nodes),
        control_plane="directory" if shards else "replicated",
        wal=wal,
        seed=seed,
    )


class Workload:
    """One repetition of a workload; see the module docstring."""

    name = ""
    FULL: Dict[str, Any] = {}
    SMOKE: Dict[str, Any] = {}

    def __init__(self, shape: Dict[str, Any], seed: int, scratch: str,
                 checks: Checks, watch) -> None:
        self.shape = shape
        self.seed = seed
        self.scratch = scratch
        self.checks = checks
        self.lap = watch.lap
        #: seconds per lap label; labels are the per-layer (P) metrics
        self.phases: Dict[str, float] = watch.phases
        #: exact per-layer (C) values read from public result objects
        self.counts: Dict[str, float] = {}
        #: values that must repeat across repetitions and match the pins
        self.exact: Dict[str, Any] = {}
        self.latencies_ms: List[float] = []
        self.load_messages = 0
        self.sim_bytes_per_peer = 0

    def setup(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def query(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed: verify outputs, read counts."""

    def prepare_unit(self) -> None:
        """Untimed, untraced work the unit needs done first."""

    def unit(self) -> None:
        """What the traced run times once untraced and once traced."""
        self.setup()
        self.load()
        self.query()

    def micro_inputs(self) -> Dict[str, Any]:
        """Generated data ``micro.py`` samples its inputs from."""
        return {}


class TagWorkload(Workload):
    """train, then AutoTag held-out docs from their owners' peers, then
    suggest_tags (and the global tag cloud where the shape asks for it)."""

    def setup(self) -> None:
        shape = self.shape
        docs = shape["docs_per_user"]
        generator = DeliciousGenerator(
            num_users=shape["peers"], seed=self.seed, num_tags=shape["tags"],
            docs_per_user_range=(docs, docs),
        )
        corpus = generator.generate()
        self.lap("data.generate_s")
        self.system = P2PDocTaggerSystem.from_corpus(
            corpus, algorithm=shape["algorithm"], seed=self.seed,
            overlay="chord", churn=shape["churn"],
        )
        self.lap()

    def load(self) -> None:
        self.system.train()
        self.lap("phase.train_s")
        self.load_messages = self.system.scenario.stats.total_messages

    def query(self) -> None:
        system = self.system
        held_out = system.test_corpus.documents
        # a stride through the held-out set, so every owner's peer is asked
        step = max(1, len(held_out) // self.shape["autotag"])
        self._tagged = held_out[::step][: self.shape["autotag"]]
        self._predicted = []
        record = self.checks.record
        latencies: List[float] = []
        for index, document in enumerate(self._tagged, start=1):
            began = _clock()
            try:
                tags = system.peer_of(document).auto_tag(document.untagged())
            except Exception as exc:  # counted, the loop goes on
                record(False, f"auto_tag({document.doc_id}): {exc!r}")
                tags = frozenset()
            else:
                record(True, "auto_tag")
            latencies.append((_clock() - began) * 1e3)
            self._predicted.append(tags)
            if index % AUTOTAG_LAP == 0 or index == len(self._tagged):
                slowdown = self.lap("phase.autotag_s")
                self.latencies_ms += [ms / slowdown for ms in latencies]
                latencies.clear()

        for document in held_out[step // 2::step][: self.shape["suggest"]]:
            try:
                system.peer_of(document).suggest_tags(document.untagged())
            except Exception as exc:
                record(False, f"suggest_tags({document.doc_id}): {exc!r}")
            else:
                record(True, "suggest_tags")
        self.lap("phase.suggest_s")

        if self.shape["tagcloud"]:
            try:
                system.global_tag_cloud().entries()
            except Exception as exc:
                record(False, f"global_tag_cloud: {exc!r}")
            else:
                record(True, "global_tag_cloud")
            self.lap("core.tagcloud_s")

    def finish(self) -> None:
        system = self.system
        scenario = system.scenario
        report = MultiLabelReport.compute(
            [document.tags for document in self._tagged], self._predicted,
            tags=system.corpus.tag_universe(),
        )
        self.sim_bytes_per_peer = (
            scenario.stats.total_bytes // self.shape["peers"]
        )
        self.exact = {
            "digest": scenario_digest(scenario.stats, scenario.simulator.now),
            "micro_f1": round(report.micro_f1, 12),
            "sim_bytes_per_peer": self.sim_bytes_per_peer,
        }
        driver = scenario.churn_driver
        self.counts = {
            "sim.stats.bytes_per_peer": self.sim_bytes_per_peer,
            "core.micro_f1": report.micro_f1,
            "sim.engine.events": scenario.simulator.events_processed,
            "sim.churn.events": driver.leave_count + driver.join_count,
            "sim.churn.undeliverable_share": (
                scenario.stats.counters["messages_undeliverable"]
                / max(1, scenario.stats.total_messages)
            ),
        }

    def micro_inputs(self) -> Dict[str, Any]:
        system = self.system
        return {"vectors": [
            system.vector_of(document)
            for document in system.train_corpus.documents[:256]
        ]}


class TagCempar(TagWorkload):
    name = "tag-cempar"
    FULL = dict(algorithm="cempar", churn="none", peers=32, docs_per_user=40,
                tags=12, autotag=160, suggest=32, tagcloud=False)
    SMOKE = dict(FULL, peers=8, docs_per_user=12, autotag=24, suggest=6)


class TagPaceChurn(TagWorkload):
    name = "tag-pace-churn"
    FULL = dict(algorithm="pace", churn="exponential", peers=60,
                docs_per_user=40, tags=12, autotag=400, suggest=50,
                tagcloud=True)
    SMOKE = dict(FULL, peers=8, docs_per_user=12, autotag=24, suggest=6)


class StormFlat(Workload):
    """The storm on the single-heap kernel, then a mixed phase that uses the
    same transport through its scalar, routed, broadcast and liveness paths."""

    name = "storm-flat"
    FULL = dict(peers=1000, fanout=10, rounds=6, lookup_rounds=10,
                broadcast_origins=60, broadcast_bytes=256)
    SMOKE = dict(FULL, peers=100, rounds=3, lookup_rounds=3,
                 broadcast_origins=5)

    def setup(self) -> None:
        shape = self.shape
        peers = shape["peers"]
        self.workload = StormWorkload(peers, shape["rounds"], shape["fanout"])
        self.storm = Scenario(storm_config(peers, self.seed))
        # the tuned codec table dispatches on the declared traffic class
        register_traffic_class(BROADCAST_MSG_TYPE, "model")
        self.mixed = Scenario(ScenarioConfig(
            num_peers=peers, overlay="chord", churn="exponential",
            mean_session=60.0, mean_downtime=10.0, codec="tuned",
            shard=ShardSpec(num_peers=peers), seed=self.seed,
        ))
        self.lap()

    def load(self) -> None:
        self._delivered, self._events, _ = self.workload(self.storm)
        self.lap("phase.storm_s")
        self.load_messages = self.storm.stats.total_messages

    def query(self) -> None:
        shape = self.shape
        scenario = self.mixed
        transport = scenario.transport
        self._mixed_delivered = [0]

        def handler(message, counter=self._mixed_delivered):
            counter[0] += 1

        for address in scenario.peer_addresses:
            scenario.register_peer(address, handler)
        scenario.start_churn()

        lookups = failed = hops = 0
        for round_index in range(shape["lookup_rounds"]):
            for origin in scenario.live_peers():
                key = (origin * 2654435761 + round_index * 40503) << 20
                outcome = transport.route_and_send(
                    origin, key, LOOKUP_MSG_TYPE, None, size_bytes=64
                )
                lookups += 1
                hops += outcome.route.hops
                failed += outcome.lookup_failed
            scenario.run(5.0)
            self.lap("phase.mixed_lookup_s")

        payload = "w" * shape["broadcast_bytes"]
        members = scenario.peer_addresses
        for origin in scenario.live_peers()[: shape["broadcast_origins"]]:
            transport.broadcast(
                origin, BROADCAST_MSG_TYPE, payload, recipients=members
            )
        scenario.run(5.0)
        self.lap("phase.mixed_broadcast_s")
        self._lookups, self._lookup_failed, self._hops = lookups, failed, hops

    def finish(self) -> None:
        checks = self.checks
        storm, mixed = self.storm.stats, self.mixed.stats
        sent = self.workload.messages
        checks.equal(storm.total_messages, sent, "storm sent")
        checks.equal(self._delivered, sent, "storm delivered")
        checks.equal(storm.counters["messages_undeliverable"], 0,
                     "storm undeliverable")
        # under churn every scheduled delivery either lands or is counted
        # undeliverable; maintenance probes are charged, never delivered
        undeliverable = mixed.counters["messages_undeliverable"]
        on_the_wire = mixed.total_messages - mixed.messages_for(
            Scenario.MAINTENANCE_MSG_TYPE
        )
        checks.equal(self._mixed_delivered[0] + undeliverable, on_the_wire,
                     "mixed delivered + undeliverable")
        self.sim_bytes_per_peer = storm.total_bytes // self.shape["peers"]
        self.exact = {
            "digest": scenario_digest(storm, self.storm.simulator.now),
            "mixed_digest": scenario_digest(mixed, self.mixed.simulator.now),
            "sim_bytes_per_peer": self.sim_bytes_per_peer,
        }
        driver = self.mixed.churn_driver
        self.counts = {
            "sim.stats.bytes_per_peer": self.sim_bytes_per_peer,
            "sim.engine.events": self._events,
            "sim.engine.ns_per_event": (
                self.phases["phase.storm_s"] * 1e9 / max(1, self._events)
            ),
            "overlay.route_hops_mean": self._hops / max(1, self._lookups),
            "overlay.route_failed_share": (
                self._lookup_failed / max(1, self._lookups)
            ),
            "sim.churn.events": driver.leave_count + driver.join_count,
            "sim.churn.undeliverable_share": (
                undeliverable / max(1, on_the_wire)
            ),
        }

    def micro_inputs(self) -> Dict[str, Any]:
        return {"storm": self.workload, "codec": self.mixed.codec_table,
                "latency": self.storm.network.latency}


class StormSharded(Workload):
    """The same storm through ``ShardedScenario`` (K = 2, directory control
    plane): plain mp, plain tcp, mp with WAL and per-shard trace stores,
    then merge + reports + one WAL read."""

    name = "storm-sharded"
    SHARDS = 2
    FULL = dict(peers=1000, fanout=10, rounds=6)
    SMOKE = dict(FULL, peers=100, rounds=3)
    REPORTS = ("summary", "report_traffic", "report_peers", "report_routes",
               "report_codec")

    def setup(self) -> None:
        shape = self.shape
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)
        self.wal_path = os.path.join(self.scratch, "storm.wal")
        self.store_base = os.path.join(self.scratch, "trace")
        self.workload = StormWorkload(
            shape["peers"], shape["rounds"], shape["fanout"]
        )
        self.lap()
        # the reference every leg must reproduce byte for byte
        flat = Scenario(storm_config(shape["peers"], self.seed))
        self.workload(flat)
        self.lap("sim.shard.flat_reference_s")
        self._reference = scenario_digest(flat.stats, flat.simulator.now)
        self.sim_bytes_per_peer = flat.stats.total_bytes // shape["peers"]
        self._runs: Dict[str, Any] = {}

    def _leg(self, label: str, executor: str, durable: bool = False) -> None:
        workload = self.workload
        if durable:
            workload = StormWorkload(
                workload.num_nodes, workload.rounds, workload.fanout,
                store_base=self.store_base,
            )
        config = storm_config(
            workload.num_nodes, self.seed, shards=self.SHARDS,
            wal=self.wal_path if durable else None,
        )
        run = ShardedScenario(config, executor=executor).run(workload)
        self.lap(f"phase.{label}_wall_s")
        self._runs[label] = run
        self.load_messages += run.stats.total_messages

    def load(self) -> None:
        self._leg("mp", "mp")
        self._leg("tcp", "tcp")
        self._leg("durable", "mp", durable=True)

    def query(self) -> None:
        merged_path = os.path.join(self.scratch, "merged.db")
        sources = [f"{self.store_base}.{shard}" for shard in range(self.SHARDS)]
        merged = merge_stores(merged_path, sources)
        self.lap("sim.tracestore.merge_s")
        try:
            self._reports = {
                name: getattr(merged, name)() for name in self.REPORTS
            }
        finally:
            merged.close()
        self.lap("sim.tracestore.report_s")
        self._wal = WalReader(self.wal_path)
        self.lap("sim.wal.read_s")
        self.phases["phase.analyze_s"] = sum(
            self.phases[key] for key in (
                "sim.tracestore.merge_s", "sim.tracestore.report_s",
                "sim.wal.read_s",
            )
        )
        self._db_bytes = os.path.getsize(merged_path)

    def finish(self) -> None:
        checks = self.checks
        sent = self.workload.messages
        for label, run in self._runs.items():
            checks.equal(run.digest(), self._reference, f"{label} digest")
            checks.equal(sum(result[0] for result in run.results), sent,
                         f"{label} delivered")
            checks.equal(run.stats.counters["messages_undeliverable"], 0,
                         f"{label} undeliverable")
            checks.equal(run.stats.exchange_summary().get("queue_fallbacks", 0), 0,
                         f"{label} queue fallbacks")
        durable = self._runs["durable"]
        wal = self._wal
        checks.record(wal.commit is not None, "WAL has no commit record")
        checks.equal(len(wal.windows), durable.windows, "WAL windows")
        rows = self._reports["summary"][1][0][0]
        checks.equal(rows, sent, "merged store rows")
        self.exact = {
            "digest": self._reference,
            "store_rows": rows,
            "sim_bytes_per_peer": self.sim_bytes_per_peer,
        }
        mp = self._runs["mp"]
        exchange = mp.stats.exchange_summary()
        phases = self.phases
        self.counts = {
            "sim.stats.bytes_per_peer": self.sim_bytes_per_peer,
            "sim.exchange.records": exchange.get("records", 0),
            "sim.exchange.encoded_bytes": exchange.get("encoded_bytes", 0),
            "sim.exchange.queue_fallbacks": exchange.get("queue_fallbacks", 0),
            "sim.shard.windows": mp.windows,
            "sim.shard.peers_materialized_max": max(
                result[2]["peers_materialized"] for result in mp.results
            ),
            "sim.shard.overlay_entries_built_max": max(
                result[2]["overlay_entries_built"] for result in mp.results
            ),
            "sim.shard.control_records": mp.control_records,
            "sim.wal.bytes": os.path.getsize(self.wal_path),
            "sim.wal.windows": len(wal.windows),
            "sim.tracestore.rows": rows,
            "sim.tracestore.db_bytes": self._db_bytes,
            "sim.tcpexec.vs_mp_share": (
                phases["phase.tcp_wall_s"] / phases["phase.mp_wall_s"] - 1.0
            ),
            "sim.tracestore.overhead_share": (
                phases["phase.durable_wall_s"] / phases["phase.mp_wall_s"] - 1.0
            ),
        }

    def prepare_unit(self) -> None:
        self.setup()

    def unit(self) -> None:
        """A serial + WAL + store leg: every shard is a thread of this
        process, so the wrappers see the shard kernel too."""
        self._leg("serial", "serial", durable=True)
        self.checks.equal(self._runs["serial"].digest(), self._reference,
                          "serial digest")
        self.phases["sim.shard.serial_leg_s"] = self.phases.pop(
            "phase.serial_wall_s"
        )

    def micro_inputs(self) -> Dict[str, Any]:
        return {"storm": self.workload, "shards": self.SHARDS}


WORKLOADS = {
    cls.name: cls for cls in (TagCempar, TagPaceChurn, StormFlat, StormSharded)
}
