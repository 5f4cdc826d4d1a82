"""The ledger as data: workloads, end-to-end metrics, per-layer metrics and
the entry points the traced run wraps.

``BENCHMARK.json`` carries the part of this the driver reads (names, units,
directions, bounds); everything the driver's schema has no key for — what a
metric means on each workload, where a per-layer number comes from and
which end-to-end metric it should move — lives here, and
``test_perf_contract.py`` keeps the two in step.

Source tags of a per-layer metric:

- ``T`` — self time (``*_self_s``), inclusive time (``*_s``) or call count
  (``*_calls``) of a span in the traced run;
- ``M`` — micro-timing of a public function in isolation (``micro.py``);
- ``P`` — a timed phase or leg of the untraced repetitions, or a ratio of two;
- ``C`` — an exact count read from a public result object.

A per-layer metric reads 0 on a workload that never enters the layer; that
zero is the "should not move" prediction, measured.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS: Dict[str, str] = {
    "tag-cempar": (
        "paper E1/E3 shape: CEMPaR train then AutoTag; kernel-SVM fit/decision "
        "and sparse distance do ~90% of the work, sim.* ~3%; read-heavy on the model"
    ),
    "tag-pace-churn": (
        "same ml layer used the other way: PACE under exponential churn is "
        "write-heavy (lsh.insert, linear_svm.fit), reads are cheap and local"
    ),
    "storm-flat": (
        "no ml at all: the SPMD send_batch storm then routed lookups and "
        "broadcasts under churn, so sim.engine/network/transport/stats do all the work"
    ),
    "storm-sharded": (
        "the same storm through ShardedScenario K=2 (mp, tcp, mp+WAL+trace "
        "store) then merge and reports: shard/exchange/tcpexec/wal/tracestore only work here"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: Dict[str, str]  # workload family -> what the number is there


_ALL = "all"

END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, {
        "tag-*": "corpus generate + preprocess + P2PDocTaggerSystem build",
        "storm-flat": "both Scenario constructions (fullmesh storm, chord mixed)",
        "storm-sharded": "scratch dir + configs + the single-heap reference "
                         "storm whose digest every leg must reproduce",
    }),
    EndToEnd("wall_s", "s", "lower", 0.25, {
        _ALL: "load_s + query_s of one repetition, set-up excluded",
    }),
    EndToEnd("load_s", "s", "lower", 0.25, {
        "tag-*": "system.train()",
        "storm-flat": "the storm phase (SPMD send_batch fan-out, all peers up)",
        "storm-sharded": "the mp, tcp and durable legs (worker spawn included)",
    }),
    EndToEnd("query_s", "s", "lower", 0.25, {
        "tag-*": "AutoTag + suggest_tags (+ global_tag_cloud on pace)",
        "storm-flat": "the mixed phase (route_and_send rounds, then broadcasts, under churn)",
        "storm-sharded": "the analyze leg (merge_stores, canned reports, WalReader)",
    }),
    EndToEnd("cpu_s", "s", "lower", 0.25, {
        _ALL: "user+system CPU of the process and its reaped children over "
              "load+query (differs from wall_s where workers run in parallel)",
    }),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, {
        _ALL: "max of RUSAGE_SELF and RUSAGE_CHILDREN ru_maxrss at exit",
    }),
    EndToEnd("sim_msgs_per_s", "msgs/s", "higher", 0.25, {
        _ALL: "simulated messages charged during load ÷ load_s (host seconds)",
    }),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str  # T / M / P / C
    moves: str   # end-to-end metric -> workload it should move


def _layer(name, unit, source, moves, better="lower") -> PerLayer:
    return PerLayer(name, unit, better, source, moves)


#: span name -> (module, qualname).  A span name may list several entry
#: points (a base method and the shard override of it).
TARGETS: List[Tuple[str, str, str]] = [
    ("data.generate", "repro.data.delicious", "DeliciousGenerator.generate"),
    ("text.process", "repro.text.vectorizer", "PreprocessingPipeline.process"),
    ("ml.kernel_svm.fit", "repro.ml.kernel_svm", "KernelSVM.fit"),
    ("ml.kernel_svm.decision", "repro.ml.kernel_svm", "KernelSVMModel.decision"),
    ("ml.kernels.gram_matrix", "repro.ml.kernels", "gram_matrix"),
    ("ml.linear_svm.fit", "repro.ml.linear_svm", "LinearSVM.fit"),
    ("ml.linear_svm.decision", "repro.ml.linear_svm", "LinearSVMModel.decision"),
    ("ml.kmeans.fit", "repro.ml.kmeans", "KMeans.fit"),
    ("ml.lsh.insert", "repro.ml.lsh", "RandomHyperplaneLSH.insert"),
    ("ml.lsh.query", "repro.ml.lsh", "RandomHyperplaneLSH.query"),
    ("p2pclass.cempar.train", "repro.p2pclass.cempar", "CemparClassifier.train"),
    ("p2pclass.cempar.predict", "repro.p2pclass.cempar",
     "CemparClassifier.predict_scores"),
    ("p2pclass.cascade.merge", "repro.p2pclass.cascade", "cascade_merge"),
    ("p2pclass.pace.train", "repro.p2pclass.pace", "PaceClassifier.train"),
    ("p2pclass.pace.predict", "repro.p2pclass.pace",
     "PaceClassifier.predict_scores"),
    ("core.system_init", "repro.core.tagger", "P2PDocTaggerSystem.__init__"),
    ("core.autotag", "repro.core.tagger", "P2PDocTaggerPeer.auto_tag"),
    ("core.suggest", "repro.core.tagger", "P2PDocTaggerPeer.suggest_tags"),
    ("core.tagcloud", "repro.core.tagger", "P2PDocTaggerSystem.global_tag_cloud"),
    ("overlay.route", "repro.overlay.chord", "ChordOverlay.route"),
    ("overlay.stabilize", "repro.overlay.chord", "ChordOverlay.stabilize"),
    ("sim.scenario.init", "repro.sim.scenario", "Scenario.__init__"),
    ("sim.engine.run", "repro.sim.engine", "Simulator.run"),
    ("sim.network.send_batch", "repro.sim.network", "PhysicalNetwork.send_batch"),
    ("sim.network.send_batch", "repro.sim.shard", "ShardNetwork.send_batch"),
    ("sim.network.broadcast_block", "repro.sim.network",
     "PhysicalNetwork.broadcast_block"),
    ("sim.network.broadcast_block", "repro.sim.shard",
     "ShardNetwork.broadcast_block"),
    ("sim.network.send", "repro.sim.network", "PhysicalNetwork.send"),
    ("sim.network.send", "repro.sim.shard", "ShardNetwork.send"),
    ("sim.transport.send_batch", "repro.sim.transport", "Transport.send_batch"),
    ("sim.transport.broadcast", "repro.sim.transport", "Transport.broadcast"),
    ("sim.transport.route_and_send", "repro.sim.transport",
     "Transport.route_and_send"),
    ("sim.transport.send", "repro.sim.transport", "Transport.send"),
    ("sim.stats.digest", "repro.sim.stats", "StatsCollector.fingerprint_bytes"),
    ("sim.stats.merge", "repro.sim.stats", "StatsCollector.merge"),
    ("sim.stats.delta_since", "repro.sim.stats", "StatsCollector.delta_since"),
    ("sim.exchange.merge_frames", "repro.sim.exchange", "merge_frames"),
    ("sim.shard.run", "repro.sim.shard", "ShardedScenario.run"),
    ("sim.shard.window_loop", "repro.sim.shard", "ShardSimulator.run"),
    ("sim.shard.barrier_wait", "repro.sim.shard", "_ThreadChannel.sync"),
    ("sim.wal.on_window", "repro.sim.wal", "WalSession.on_window"),
    ("sim.wal.append_window", "repro.sim.wal", "WalWriter.append_window"),
    ("sim.tracestore.on_block", "repro.sim.tracestore", "TraceStore._on_block"),
    ("sim.tracestore.flush", "repro.sim.tracestore", "TraceStore.flush"),
    ("sim.tracestore.record_stats", "repro.sim.tracestore",
     "TraceStore.record_stats"),
    ("bench.storm.call", "workloads", "StormWorkload.__call__"),
    ("bench.storm.fire", "workloads", "StormWorkload._fire"),
]

#: spans whose self time is a thread waiting for other threads: the serial
#: executor's coordinator joining its workers, a worker at the window barrier
WAIT_SPANS = ("sim.shard.run", "sim.shard.barrier_wait")

_TAG = "tag-*"
_CEMPAR = "tag-cempar"
_PACE = "tag-pace-churn"
_FLAT = "storm-flat"
_SHARD = "storm-sharded"

PER_LAYER: List[PerLayer] = [
    # -- phases and legs of the untraced repetitions -------------------------
    _layer("phase.train_s", "s", "P", f"load_s -> {_TAG}"),
    _layer("phase.autotag_s", "s", "P", f"query_s -> {_TAG}"),
    _layer("phase.suggest_s", "s", "P", f"query_s -> {_TAG}"),
    _layer("phase.storm_s", "s", "P", f"load_s -> {_FLAT}"),
    _layer("phase.mixed_lookup_s", "s", "P", f"query_s -> {_FLAT}"),
    _layer("phase.mixed_broadcast_s", "s", "P", f"query_s -> {_FLAT}"),
    _layer("phase.mp_wall_s", "s", "P", f"load_s -> {_SHARD}"),
    _layer("phase.tcp_wall_s", "s", "P", f"load_s -> {_SHARD}"),
    _layer("phase.durable_wall_s", "s", "P", f"load_s -> {_SHARD}"),
    _layer("phase.analyze_s", "s", "P", f"query_s -> {_SHARD}"),
    # -- data / text ---------------------------------------------------------
    _layer("data.generate_s", "s", "P", f"setup_s -> {_TAG}"),
    _layer("text.process_s", "s", "T", f"setup_s, query_s (first touch) -> {_TAG}"),
    _layer("text.process_calls", "count", "T", f"setup_s -> {_TAG}"),
    # -- ml ------------------------------------------------------------------
    _layer("ml.kernel_svm.fit_s", "s", "T", f"load_s -> {_CEMPAR}"),
    _layer("ml.kernel_svm.fit_calls", "count", "T", f"load_s -> {_CEMPAR}"),
    _layer("ml.kernel_svm.decision_s", "s", "T", f"query_s -> {_CEMPAR}"),
    _layer("ml.kernel_svm.decision_calls", "count", "T", f"query_s -> {_CEMPAR}"),
    _layer("ml.kernels.gram_matrix_s", "s", "T", f"load_s -> {_CEMPAR}"),
    _layer("ml.sparse.dot_ns", "ns", "M", f"load_s, query_s -> {_CEMPAR}"),
    _layer("ml.sparse.distance_squared_ns", "ns", "M",
           f"load_s, query_s -> {_CEMPAR}"),
    _layer("ml.linear_svm.fit_s", "s", "T", f"load_s -> {_PACE}"),
    _layer("ml.linear_svm.fit_calls", "count", "T", f"load_s -> {_PACE}"),
    _layer("ml.linear_svm.decision_s", "s", "T", f"query_s -> {_PACE}"),
    _layer("ml.kmeans.fit_s", "s", "T", f"load_s -> {_PACE}"),
    _layer("ml.lsh.insert_s", "s", "T", f"load_s -> {_PACE}"),
    _layer("ml.lsh.insert_calls", "count", "T", f"load_s -> {_PACE}"),
    _layer("ml.lsh.query_s", "s", "T", f"query_s -> {_PACE}"),
    _layer("ml.lsh.query_calls", "count", "T", f"query_s -> {_PACE}"),
    _layer("ml.lsh.signature_us", "us", "M", f"load_s -> {_PACE}"),
    # -- p2pclass / core -----------------------------------------------------
    _layer("p2pclass.cempar.train_self_s", "s", "T", f"load_s -> {_CEMPAR}"),
    _layer("p2pclass.cempar.predict_self_s", "s", "T", f"query_s -> {_CEMPAR}"),
    _layer("p2pclass.cascade.merge_self_s", "s", "T", f"load_s -> {_CEMPAR}"),
    _layer("p2pclass.pace.train_self_s", "s", "T", f"load_s -> {_PACE}"),
    _layer("p2pclass.pace.predict_self_s", "s", "T", f"query_s -> {_PACE}"),
    _layer("core.system_init_self_s", "s", "T", f"setup_s -> {_TAG}"),
    _layer("core.autotag_self_s", "s", "T", f"query_s -> {_TAG}"),
    _layer("core.autotag_ms_p50", "ms", "P", f"query_s -> {_TAG}"),
    _layer("core.autotag_ms_p95", "ms", "P", f"query_s -> {_TAG}"),
    _layer("core.suggest_s", "s", "T", f"query_s -> {_TAG}"),
    _layer("core.suggest_calls", "count", "T", f"query_s -> {_TAG}"),
    _layer("core.tagcloud_s", "s", "P", f"query_s -> {_PACE}"),
    _layer("core.micro_f1", "ratio", "C", "accuracy of the AutoTagged docs; "
           "pinned, not timed", better="higher"),
    # -- overlay -------------------------------------------------------------
    _layer("overlay.route_s", "s", "T", f"query_s -> {_FLAT}, {_CEMPAR}"),
    _layer("overlay.route_calls", "count", "T", f"query_s -> {_FLAT}, {_CEMPAR}"),
    _layer("overlay.stabilize_s", "s", "T", f"query_s -> {_FLAT}; load_s -> {_PACE}"),
    _layer("overlay.stabilize_calls", "count", "T", f"query_s -> {_FLAT}"),
    _layer("overlay.route_hops_mean", "hops", "C", f"read with overlay.route_s on {_FLAT}"),
    _layer("overlay.route_failed_share", "ratio", "C",
           f"read with overlay.route_s on {_FLAT}"),
    # -- sim.scenario / sim.engine -------------------------------------------
    _layer("sim.scenario.init_self_s", "s", "T", "setup_s -> storm-*"),
    _layer("sim.engine.run_self_s", "s", "T", f"load_s -> {_FLAT}, {_SHARD}"),
    _layer("sim.engine.events", "count", "C", f"load_s -> {_FLAT}"),
    _layer("sim.engine.ns_per_event", "ns", "P", f"load_s -> {_FLAT}"),
    _layer("sim.engine.schedule_pop_ns", "ns", "M", f"load_s -> {_FLAT}, {_SHARD}"),
    # -- sim.network / sim.transport -----------------------------------------
    _layer("sim.network.send_batch_self_s", "s", "T", f"load_s -> {_FLAT}"),
    _layer("sim.network.broadcast_block_self_s", "s", "T", f"query_s -> {_FLAT}"),
    _layer("sim.network.send_self_s", "s", "T", f"query_s -> {_FLAT}"),
    _layer("sim.network.delays_for_ns_per_msg", "ns", "M", f"load_s -> {_FLAT}"),
    _layer("sim.transport.send_batch_self_s", "s", "T", f"load_s -> {_FLAT}"),
    _layer("sim.transport.send_batch_calls", "count", "T", f"load_s -> {_FLAT}"),
    _layer("sim.transport.broadcast_self_s", "s", "T",
           f"query_s -> {_FLAT}; load_s -> {_PACE}"),
    _layer("sim.transport.broadcast_calls", "count", "T", f"query_s -> {_FLAT}"),
    _layer("sim.transport.route_and_send_self_s", "s", "T",
           f"query_s -> {_FLAT}, {_CEMPAR}"),
    _layer("sim.transport.route_and_send_calls", "count", "T", f"query_s -> {_FLAT}"),
    _layer("sim.transport.send_self_s", "s", "T", f"query_s -> {_FLAT}"),
    _layer("sim.transport.send_calls", "count", "T", f"query_s -> {_FLAT}"),
    # -- sim.stats / sim.codec / sim.churn -----------------------------------
    _layer("sim.stats.bytes_per_peer", "bytes", "C",
           "stats.total_bytes // peers: the paper's E2 cost on tag-*, the storm's "
           "on storm-*; simulated, exact per seed, pinned on seed 0"),
    _layer("sim.stats.record_message_ns", "ns", "M", f"load_s -> {_FLAT}"),
    _layer("sim.stats.record_block_ns_per_msg", "ns", "M", f"query_s -> {_FLAT}"),
    _layer("sim.stats.digest_s", "s", "T", "wall_s -> storm-*"),
    _layer("sim.stats.merge_s", "s", "T", f"load_s -> {_SHARD}"),
    _layer("sim.stats.delta_since_s", "s", "T", f"load_s (durable) -> {_SHARD}"),
    _layer("sim.codec.wire_size_ns", "ns", "M", f"query_s -> {_FLAT}"),
    _layer("sim.churn.events", "count", "C", f"query_s -> {_FLAT}; load_s -> {_PACE}"),
    _layer("sim.churn.undeliverable_share", "ratio", "C", f"query_s -> {_FLAT}"),
    # -- sim.exchange --------------------------------------------------------
    _layer("sim.exchange.encode_us_per_krec", "us", "M", f"load_s -> {_SHARD}"),
    _layer("sim.exchange.decode_us_per_krec", "us", "M", f"load_s -> {_SHARD}"),
    _layer("sim.exchange.merge_frames_us_per_krec", "us", "M", f"load_s -> {_SHARD}"),
    _layer("sim.exchange.ring_roundtrip_us", "us", "M", f"load_s (mp) -> {_SHARD}"),
    _layer("sim.exchange.merge_frames_s", "s", "T", f"load_s -> {_SHARD}"),
    _layer("sim.exchange.records", "count", "C", f"load_s -> {_SHARD}"),
    _layer("sim.exchange.encoded_bytes", "bytes", "C", f"load_s -> {_SHARD}"),
    _layer("sim.exchange.queue_fallbacks", "count", "C", f"load_s -> {_SHARD}"),
    # -- sim.shard -----------------------------------------------------------
    _layer("sim.shard.serial_leg_s", "s", "P", f"the traced unit of {_SHARD}"),
    _layer("sim.shard.coord_overhead_share", "ratio", "P",
           f"serial leg ÷ single-heap storm − 1; load_s -> {_SHARD}"),
    _layer("sim.shard.mp_speedup", "ratio", "P",
           f"serial ÷ mp leg; load_s -> {_SHARD}", better="higher"),
    _layer("sim.shard.run_self_s", "s", "T", f"load_s -> {_SHARD}"),
    _layer("sim.shard.window_loop_self_s", "s", "T", f"load_s -> {_SHARD}"),
    _layer("sim.shard.barrier_wait_s", "s", "T", f"load_s -> {_SHARD}"),
    _layer("sim.shard.windows", "count", "C", f"load_s -> {_SHARD}"),
    _layer("sim.shard.peers_materialized_max", "count", "C", f"load_s -> {_SHARD}"),
    _layer("sim.shard.overlay_entries_built_max", "count", "C", f"load_s -> {_SHARD}"),
    _layer("sim.shard.control_records", "count", "C", f"load_s -> {_SHARD}"),
    _layer("sim.shard.worker_peak_rss_mb", "MiB", "P", f"peak_rss_mb -> {_SHARD}"),
    # -- sim.tcpexec ---------------------------------------------------------
    _layer("sim.tcpexec.frame_roundtrip_us", "us", "M", f"load_s (tcp) -> {_SHARD}"),
    _layer("sim.tcpexec.vs_mp_share", "ratio", "P",
           f"tcp ÷ mp leg − 1; load_s -> {_SHARD}"),
    # -- sim.wal -------------------------------------------------------------
    _layer("sim.wal.on_window_self_s", "s", "T", f"load_s (durable) -> {_SHARD}"),
    _layer("sim.wal.append_window_s", "s", "T", f"load_s (durable) -> {_SHARD}"),
    _layer("sim.wal.append_window_calls", "count", "T", f"load_s (durable) -> {_SHARD}"),
    _layer("sim.wal.bytes", "bytes", "C", f"load_s, query_s -> {_SHARD}"),
    _layer("sim.wal.windows", "count", "C", f"load_s -> {_SHARD}"),
    _layer("sim.wal.read_s", "s", "P", f"query_s -> {_SHARD}"),
    # -- sim.tracestore ------------------------------------------------------
    _layer("sim.tracestore.on_block_s", "s", "T", f"load_s (durable) -> {_SHARD}"),
    _layer("sim.tracestore.flush_s", "s", "T", f"load_s (durable) -> {_SHARD}"),
    _layer("sim.tracestore.flush_calls", "count", "T", f"load_s (durable) -> {_SHARD}"),
    _layer("sim.tracestore.record_stats_s", "s", "T", f"load_s (durable) -> {_SHARD}"),
    _layer("sim.tracestore.overhead_share", "ratio", "P",
           f"durable ÷ mp leg − 1 (WAL included); load_s -> {_SHARD}"),
    _layer("sim.tracestore.merge_s", "s", "P", f"query_s -> {_SHARD}"),
    _layer("sim.tracestore.report_s", "s", "P", f"query_s -> {_SHARD}"),
    _layer("sim.tracestore.rows", "count", "C", f"query_s -> {_SHARD}"),
    _layer("sim.tracestore.db_bytes", "bytes", "C", f"query_s -> {_SHARD}"),
    # -- the benchmark's own code and the quality of the ledger --------------
    _layer("bench.storm.call_self_s", "s", "T", "register + schedule loop of the storm"),
    _layer("bench.storm.fire_self_s", "s", "T", "Message construction of the storm"),
    _layer("trace.ml_share", "ratio", "T", "ml.* self time ÷ traced unit"),
    _layer("trace.sim_share", "ratio", "T", "sim.* self time ÷ traced unit"),
    _layer("trace.p2pclass_core_share", "ratio", "T",
           "p2pclass.* + core.* self time ÷ traced unit"),
    _layer("trace.overhead_share", "ratio", "P", "traced ÷ untraced unit − 1"),
    _layer("trace.unattributed_share", "ratio", "T",
           "share of the traced unit no span covers"),
    _layer("trace.spans", "count", "T", "spans recorded in the traced unit"),
]

#: suffix of a (T) metric -> which reduction of its span it reads
SPAN_SUFFIXES = (("_self_s", "self_s"), ("_calls", "calls"), ("_s", "total_s"))


def span_metric(name: str) -> Tuple[str, str]:
    """``(span name, reduction)`` behind a (T) metric name."""
    for suffix, reduction in SPAN_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)], reduction
    raise KeyError(name)
