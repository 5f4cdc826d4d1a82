"""E3 — Scalability with network size (paper §1.1: "P2PDocTagger scales
well even in the presence of large amount of data or large number of
peers").

Network grows while per-user holdings stay fixed (more peers = more total
data, the organic growth mode).  Reported per N: accuracy and *per-peer*
communication.

Expected shape: P2P accuracy is stable or improves with N (the pooled
training set grows); per-peer cost grows slowly for CEMPaR (log-factor DHT
routes) while PACE's broadcast cost per peer grows linearly — its known
scalability trade-off.
"""

import os
import time

import pytest

from repro.bench.harness import ExperimentSetting, run_experiment
from repro.bench.reporting import format_table

from _common import (
    RESULTS_DIR,
    SMOKE as _SMOKE,
    cpu_count,
    peak_rss_mb,
    write_bench_trajectory,
    write_results,
)

SIZES = (6, 12) if _SMOKE else (6, 12, 18, 24)
BASE = dict(docs_per_user=30, train_fraction=0.2, seed=0, max_eval_documents=50)

#: pure-messaging scalability: network sizes for the transport storm.  The
#: kernel/transport stack is the hot path here (no ML), which is what the
#: batched event kernel optimizes; 1000 nodes ~ the million-message regime.
TRANSPORT_SIZES = (100, 250) if _SMOKE else (100, 1000)
STORM_ROUNDS = 5 if _SMOKE else 20
STORM_FANOUT = 10
#: churned storm parameters: aggressive leave/rejoin so liveness flips
#: visibly inside a short run (ROADMAP: measure cancellation-set overhead).
STORM_CHURN_SESSION = 6.0
STORM_CHURN_DOWNTIME = 2.0
STORM_ROUND_WINDOW = 2.0  # virtual seconds advanced per churned round

#: broadcast-round scalability: PACE-style model propagation at large
#: membership, where per-recipient Outcome/Message bookkeeping used to
#: dominate.  ``senders`` origins each broadcast one payload to every
#: member; scalar vs vectorized recipient bookkeeping is compared on
#: byte-identical workloads.
BROADCAST_MEMBERS = 500 if _SMOKE else 10_000
BROADCAST_SENDERS = 5 if _SMOKE else 20


def run_all():
    rows = []
    for num_users in SIZES:
        for algorithm in ("cempar", "pace"):
            result = run_experiment(
                ExperimentSetting(
                    algorithm=algorithm, num_users=num_users, **BASE
                )
            )
            per_peer_bytes = result.total_bytes // num_users
            rows.append(
                [
                    algorithm,
                    num_users,
                    result.micro_f1,
                    result.macro_f1,
                    per_peer_bytes,
                ]
            )
    return rows


@pytest.mark.benchmark(group="e3-scalability")
def test_e3_scalability_table(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = ["algorithm", "peers", "microF1", "macroF1", "bytes/peer"]
    table = format_table(
        "E3  Scalability with number of peers (fixed docs/user)",
        headers,
        rows,
    )
    write_results("e3_scalability", table, headers=headers, rows=rows)

    cempar = {row[1]: row for row in rows if row[0] == "cempar"}
    pace = {row[1]: row for row in rows if row[0] == "pace"}
    # Accuracy does not collapse as the network grows.
    assert cempar[SIZES[-1]][2] >= cempar[SIZES[0]][2] - 0.1
    # PACE per-peer broadcast cost grows with N; CEMPaR grows slower.
    assert pace[SIZES[-1]][4] > pace[SIZES[0]][4]
    cempar_growth = cempar[SIZES[-1]][4] / max(1, cempar[SIZES[0]][4])
    pace_growth = pace[SIZES[-1]][4] / max(1, pace[SIZES[0]][4])
    assert cempar_growth < pace_growth


# ---------------------------------------------------------------------------
# Transport-layer scalability: raw simulated-message throughput at large N.
# ---------------------------------------------------------------------------


def run_transport_storm(num_nodes, rounds=STORM_ROUNDS, fanout=STORM_FANOUT,
                        seed=3, churn=False):
    """Drive ``rounds`` same-tick broadcast storms through the transport.

    Every node sends ``fanout`` messages per round in one batched block —
    the delivery pattern PACE-style propagation generates, minus the ML, so
    wall-clock isolates the kernel+transport stack.

    With ``churn`` a :class:`ChurnDriver` flips node liveness throughout the
    run: down sources silently drop their sends, deliveries to down nodes
    land undeliverable, and the churn bookkeeping events (leave/rejoin
    cycles plus their cancellation-set churn in the heap) ride the same
    queue as the storm — the overhead this variant exists to measure.
    Each churned round advances a bounded virtual-time window (the queue
    never drains under churn), then a settle window lets stragglers land.
    Returns (stats, delivered_count, sent_count, driver-or-None).
    """
    from repro.sim.churn import ChurnDriver, ExponentialChurn
    from repro.sim.engine import Simulator
    from repro.sim.messages import Message
    from repro.sim.network import PhysicalNetwork
    from repro.sim.stats import StatsCollector
    from repro.sim.transport import Transport

    simulator = Simulator(seed=seed)
    stats = StatsCollector()
    network = PhysicalNetwork(simulator, stats=stats)
    transport = Transport(network, stats=stats)
    delivered = [0]

    def handler(message):
        delivered[0] += 1

    for node in range(num_nodes):
        network.register(node, handler)

    driver = None
    if churn:
        driver = ChurnDriver(
            simulator,
            network,
            ExponentialChurn(STORM_CHURN_SESSION, STORM_CHURN_DOWNTIME),
        )
        driver.start(list(range(num_nodes)))

    payload = "x" * 160
    size = 40 + len(payload)
    sent = 0
    for round_index in range(rounds):
        block = []
        for src in range(num_nodes):
            for k in range(fanout):
                dst = (src + 1 + (round_index * fanout + k) * 7) % num_nodes
                if dst == src:
                    dst = (dst + 1) % num_nodes
                block.append(
                    Message(src=src, dst=dst, msg_type="storm",
                            payload=payload, size_bytes=size)
                )
        sent += sum(1 for o in transport.send_batch(block) if o.sent)
        if churn:
            simulator.run(until=simulator.now + STORM_ROUND_WINDOW)
        else:
            simulator.run()
    if churn:
        driver.stop()
        # Settle window: any still-in-flight delivery is due well within it.
        simulator.run(until=simulator.now + 5.0)
    return stats, delivered[0], sent, driver


def run_transport_rows():
    rows = []
    for num_nodes in TRANSPORT_SIZES:
        for churn in (False, True):
            start = time.perf_counter()
            stats, delivered, sent, driver = run_transport_storm(
                num_nodes, churn=churn
            )
            elapsed = time.perf_counter() - start
            undeliverable = stats.counters["messages_undeliverable"]
            rows.append(
                [
                    num_nodes,
                    "churn" if churn else "all-up",
                    stats.total_messages,
                    delivered,
                    undeliverable,
                    driver.leave_count + driver.join_count if driver else 0,
                    round(elapsed, 3),
                    int(stats.total_messages / max(elapsed, 1e-9)),
                ]
            )
    return rows


@pytest.mark.benchmark(group="e3-scalability")
def test_e3_transport_scalability(benchmark):
    rows = benchmark.pedantic(run_transport_rows, rounds=1, iterations=1)
    headers = [
        "nodes", "liveness", "messages", "delivered", "undeliverable",
        "churn_events", "seconds", "msgs/sec",
    ]
    table = format_table(
        "E3b  Transport throughput (batched kernel, no ML; churned rows "
        "measure cancellation-set overhead vs all-up)",
        headers,
        rows,
    )
    write_results("e3_transport_scalability", table, headers=headers, rows=rows)

    by_key = {(row[0], row[1]): row for row in rows}
    for num_nodes in TRANSPORT_SIZES:
        expected = num_nodes * STORM_FANOUT * STORM_ROUNDS
        all_up = by_key[(num_nodes, "all-up")]
        churned = by_key[(num_nodes, "churn")]
        # All-up: every message sent and delivered, nothing undeliverable.
        assert all_up[2] == expected
        assert all_up[3] == expected and all_up[4] == 0
        # Churn: down sources never send, so charged messages drop below the
        # all-up volume; the delivery gap is exactly the undeliverable set.
        assert churned[5] > 0, "churn never fired — lengthen the run"
        assert churned[2] < expected
        assert churned[3] < churned[2]
        assert churned[3] + churned[4] == churned[2]


# ---------------------------------------------------------------------------
# Broadcast-round scalability: vectorized recipient bookkeeping at 10k peers.
# ---------------------------------------------------------------------------


def run_broadcast_round(num_members, senders, scalar, seed=3, codec=None):
    """One PACE-style propagation round at large membership.

    ``senders`` origins each broadcast one 256-byte payload to all
    ``num_members`` members and consume the delivered set (what PACE's
    bundle store does); the round then drains.  ``scalar`` sends one
    materialized ``Message`` per recipient through ``send_batch`` (the
    PR 1 stack) instead of ``broadcast`` — both produce byte-identical
    stats, so the digest doubles as a correctness check.
    ``codec`` selects a wire-format codec table (accounting-only; the
    event stream is identical across the whole sweep).
    """
    from repro.sim.codec import make_codec_table
    from repro.sim.engine import Simulator
    from repro.sim.messages import Message
    from repro.sim.network import PhysicalNetwork
    from repro.sim.stats import StatsCollector
    from repro.sim.transport import Transport

    simulator = Simulator(seed=seed)
    stats = StatsCollector()
    network = PhysicalNetwork(simulator, stats=stats)
    transport = Transport(
        network,
        stats=stats,
        codec=make_codec_table(codec) if codec else None,
    )
    delivered = [0]

    def handler(message):
        delivered[0] += 1

    for node in range(num_members):
        network.register(node, handler)
    recipients = list(range(num_members))
    payload = "w" * 256

    start = time.perf_counter()
    stored = 0
    for origin in range(senders):
        if scalar:
            outcomes = transport.send_batch([
                Message(src=origin, dst=dst,
                        msg_type="pace.model_broadcast", payload=payload)
                for dst in recipients if dst != origin
            ])
            stored += sum(outcome.delivered for outcome in outcomes)
        else:
            result = transport.broadcast(
                origin, "pace.model_broadcast", payload,
                recipients=recipients,
            )
            stored += len(result.delivered_to())
    simulator.run()
    elapsed = time.perf_counter() - start
    return elapsed, stats, delivered[0], stored


def run_broadcast_rows():
    rows = []
    expected = BROADCAST_SENDERS * (BROADCAST_MEMBERS - 1)
    for label, scalar in (("scalar (PR1)", True), ("vectorized", False)):
        # Best of two timings per path: one warmup-and-measure pair keeps
        # the speedup ratio stable on noisy CI runners.
        best, stats, delivered, stored = min(
            (
                run_broadcast_round(BROADCAST_MEMBERS, BROADCAST_SENDERS, scalar)
                for _ in range(2)
            ),
            key=lambda r: r[0],
        )
        assert delivered == stored == expected
        rows.append(
            [
                BROADCAST_MEMBERS,
                label,
                stats.total_messages,
                delivered,
                round(best, 3),
                int(stats.total_messages / max(best, 1e-9)),
                stats.digest()[:16],
            ]
        )
    return rows


@pytest.mark.benchmark(group="e3-scalability")
def test_e3_broadcast_round_scalability(benchmark):
    rows = benchmark.pedantic(run_broadcast_rows, rounds=1, iterations=1)
    headers = [
        "members", "path", "messages", "delivered", "seconds", "msgs/sec",
        "stats_digest",
    ]
    table = format_table(
        f"E3c  Broadcast round at {BROADCAST_MEMBERS} members "
        f"({BROADCAST_SENDERS} senders)",
        headers,
        rows,
    )
    write_results("e3_broadcast_round", table, headers=headers, rows=rows)

    scalar_row = next(r for r in rows if r[1].startswith("scalar"))
    vector_row = next(r for r in rows if r[1] == "vectorized")
    # Same workload, byte-identical stats — only wall-clock may differ.
    assert scalar_row[6] == vector_row[6]
    speedup = scalar_row[4] / max(vector_row[4], 1e-9)
    if not _SMOKE:
        # Acceptance bar: the 10k-member round is >= 2x faster than the
        # PR 1 message-per-recipient stack.
        assert speedup >= 2.0, f"broadcast speedup {speedup:.2f}x < 2x"


# ---------------------------------------------------------------------------
# E3d codec axis: the E3c broadcast round under each wire-format codec,
# scalar and vectorized paths digest-checked against each other.
# ---------------------------------------------------------------------------


def run_broadcast_codec_rows(codecs):
    # The workload's msg_type is pace's broadcast; importing the protocol
    # module registers its traffic class so the tuned table dispatches.
    import repro.p2pclass.pace  # noqa: F401

    rows = []
    for codec in codecs:
        per_path = {}
        for label, scalar in (("scalar", True), ("vectorized", False)):
            elapsed, stats, delivered, _ = run_broadcast_round(
                BROADCAST_MEMBERS, BROADCAST_SENDERS, scalar, codec=codec
            )
            per_path[label] = stats
            rows.append(
                [
                    codec,
                    label,
                    stats.total_messages,
                    stats.total_bytes,
                    stats.total_wire_bytes,
                    round(elapsed, 3),
                    stats.digest()[:16],
                ]
            )
        # Byte-identical including the wire dimension, at scale — the
        # vectorized block arithmetic must match per-message recording.
        assert (
            per_path["scalar"].fingerprint_bytes()
            == per_path["vectorized"].fingerprint_bytes()
        )
    return rows


@pytest.mark.benchmark(group="e3-scalability")
def test_e3_broadcast_codec_axis(benchmark, request):
    from repro.sim.codec import codec_names

    selected = request.config.getoption("--codec")
    codecs = (selected,) if selected else codec_names()
    rows = benchmark.pedantic(
        run_broadcast_codec_rows, args=(codecs,), rounds=1, iterations=1
    )
    headers = [
        "codec", "path", "messages", "raw_bytes", "wire_bytes", "seconds",
        "stats_digest",
    ]
    table = format_table(
        f"E3d  Broadcast round codec axis at {BROADCAST_MEMBERS} members",
        headers,
        rows,
    )
    write_results("e3_broadcast_codec_axis", table, headers=headers, rows=rows)

    raws = {row[3] for row in rows}
    assert len(raws) == 1  # codecs never change the raw dimension
    for row in rows:
        if row[0] == "identity":
            assert row[4] == row[3]
        else:
            assert row[4] < row[3], row


# ---------------------------------------------------------------------------
# E3e sharded-storm axis: the transport storm through the K-shard kernel
# (repro.sim.shard).  Every row must be byte-identical to the unsharded
# kernel; the mp executor's wall-clock is the sharding payoff, and the
# directory control plane's construction counters are the O(N/K) witness.
# ---------------------------------------------------------------------------

SHARDED_STORM_NODES = 100 if _SMOKE else 1000
SHARDED_STORM_ROUNDS = 5 if _SMOKE else 20
SHARDED_STORM_FANOUT = STORM_FANOUT  # 1000 x 10 x 20 = the 200k-message bar
SHARDED_STORM_SHARDS = 2 if _SMOKE else 4
#: the directory-mode scale-out axis (K ∈ {8, 16} at full size): SPMD
#: replication priced every worker O(N); the directory serves construction
#: so these shard counts become worth running.
DIRECTORY_STORM_SHARDS = (2,) if _SMOKE else (8, 16)
SHARDED_STORM_PAYLOAD_BYTES = 200


def _cpus():
    return cpu_count()


class _StormWorkload:
    """SPMD storm: every node fires one batched fanout block per round.

    Runs identically on the unsharded kernel and in every shard worker;
    under sharding each node's fire event is scheduled only on its owning
    shard, so send-side work (jitter draws, stats, scheduling) partitions
    across workers and cross-shard deliveries ride the exchange queues.
    Registration goes through the ownership gate
    (:meth:`Scenario.register_peer`): directory-mode workers materialize
    handlers only for owned peers.  Returns (delivered, construction_cost).

    A class carrying its parameters (not a closure) so the tcp executor
    can pickle it into worker processes.

    ``store_base`` attaches a :class:`~repro.sim.tracestore.TraceStore`
    (file ``{store_base}.{shard_id}``, so every worker writes its own) —
    the E3 ingest-overhead axis.  Only the path string is pickled; the
    store opens inside the worker.
    """

    def __init__(self, num_nodes, rounds, fanout,
                 payload_bytes=SHARDED_STORM_PAYLOAD_BYTES, store_base=None):
        self.num_nodes = num_nodes
        self.rounds = rounds
        self.fanout = fanout
        self.payload_bytes = payload_bytes
        self.store_base = store_base

    def __call__(self, scenario):
        from repro.sim.messages import Message

        store = None
        if self.store_base is not None:
            from repro.sim.tracestore import TraceStore

            store = TraceStore(
                f"{self.store_base}.{scenario.shard_id}",
                shard=scenario.shard_id,
            ).attach_scenario(scenario)

        num_nodes = self.num_nodes
        fanout = self.fanout
        payload_bytes = self.payload_bytes
        delivered = [0]

        def handler(message):
            delivered[0] += 1

        for node in range(num_nodes):
            scenario.register_peer(node, handler)
        transport = scenario.transport
        simulator = scenario.simulator

        def fire(src, round_index):
            block = []
            for k in range(fanout):
                dst = (src + 1 + (round_index * fanout + k) * 7) % num_nodes
                if dst == src:
                    dst = (dst + 1) % num_nodes
                block.append(
                    Message(src=src, dst=dst, msg_type="storm", payload=None,
                            size_bytes=payload_bytes)
                )
            transport.send_batch(block)

        owns = scenario.owns
        for round_index in range(self.rounds):
            at = float(round_index)
            for src in range(num_nodes):
                if owns(src):
                    simulator.schedule_at(at, fire, args=(src, round_index))
        simulator.run_until_idle(max_events=5_000_000)
        if store is not None:
            store.record_stats(scenario.stats)
            store.close()
        return delivered[0], scenario.construction_cost()


def _storm_workload(num_nodes, rounds, fanout, store_base=None):
    """Picklable SPMD storm workload (see :class:`_StormWorkload`)."""
    return _StormWorkload(num_nodes, rounds, fanout, store_base=store_base)


def _sharded_storm_config(num_nodes, shards, seed=3,
                          control_plane="replicated", wal=None, faults=None):
    from repro.sim.distribution import ShardSpec
    from repro.sim.scenario import ScenarioConfig

    return ScenarioConfig(
        num_peers=num_nodes,
        overlay="fullmesh",
        rng_mode="perpeer",
        jitter_floor=0.5,
        shards=shards,
        shard=ShardSpec(num_peers=num_nodes),
        control_plane=control_plane if shards else "replicated",
        wal=wal,
        faults=faults,
        seed=seed,
    )


def run_sharded_storm(num_nodes, shards, executor, rounds, fanout, seed=3,
                      control_plane="replicated", wal=None, store_base=None,
                      faults=None):
    """One sharded storm run; returns (elapsed, digest, delivered, windows,
    max-per-worker construction cost, exchange summary, fault counters)."""
    from repro.sim.shard import ShardedScenario

    workload = _storm_workload(num_nodes, rounds, fanout,
                               store_base=store_base)
    start = time.perf_counter()
    run = ShardedScenario(
        _sharded_storm_config(num_nodes, shards, seed, control_plane, wal,
                              faults),
        executor=executor,
    ).run(workload)
    elapsed = time.perf_counter() - start
    delivered = sum(result[0] for result in run.results)
    cost = {
        key: max(result[1][key] for result in run.results)
        for key in run.results[0][1]
    }
    return (
        elapsed, run.digest(), delivered, run.windows, cost,
        run.stats.exchange_summary(), dict(run.stats.faults),
    )


def run_unsharded_storm(num_nodes, rounds, fanout, seed=3, store_base=None):
    """The single-heap reference of the same storm (shards=0)."""
    from repro.sim.scenario import Scenario
    from repro.sim.shard import scenario_digest

    workload = _storm_workload(num_nodes, rounds, fanout,
                               store_base=store_base)
    start = time.perf_counter()
    scenario = Scenario(_sharded_storm_config(num_nodes, 0, seed))
    delivered, cost = workload(scenario)
    elapsed = time.perf_counter() - start
    return (
        elapsed,
        scenario_digest(scenario.stats, scenario.simulator.now),
        delivered,
        0,
        cost,
        {},
        {},
    )


def _storm_configs():
    """(label, shards, executor, control_plane, repeats, wal, pair, store,
    faults) per E3e row.  Rows sharing a ``pair`` tag are measured with
    their repeats interleaved run-for-run (see
    :func:`run_sharded_storm_rows`)."""
    nodes = SHARDED_STORM_NODES
    k = SHARDED_STORM_SHARDS
    configs = [
        # The trace-store axis: the unsharded storm with and without a
        # TraceStore ingesting every send attempt through the block-listener
        # API.  Best-of-three interleaved like the WAL pairs; the <10%
        # ingest-overhead bar divides the two minima, and the store row's
        # digest must join the all-equal set (ingest is accounting-only).
        ("unsharded", 0, None, "replicated", 3, False, "store", False, None),
        ("unsharded store", 0, None, "replicated", 3, False, "store", True,
         None),
        # The WAL axis: the same storms with every window barrier logged
        # (frames + cursors + deltas) to the write-ahead log.  Their digests
        # must join the all-equal set and their wall-clock prices the
        # checkpoint overhead against the matching no-WAL rows (<10% bar).
        # Each plain/WAL pair runs best-of-three with the repeats
        # interleaved, so the overhead ratio divides minima from the same
        # time neighborhood instead of rows measured minutes apart.
        (f"serial k{k}", k, "serial", "replicated", 3, False, "serial-wal",
         False, None),
        (f"serial k{k} wal", k, "serial", "replicated", 3, True,
         "serial-wal", False, None),
        (f"mp k{k}", k, "mp", "replicated", 3, False, "mp-wal", False, None),
        (f"mp k{k} wal", k, "mp", "replicated", 3, True, "mp-wal", False,
         None),
        # The tcp executor (PR 8): the same storm with shard workers as
        # socket-connected processes over localhost — prices the wire
        # protocol (frame blobs riding sync/decision messages through the
        # coordinator) against mp's shared-memory rings.  Digests must
        # join the all-equal set like every other row.
        (f"tcp k{k}", k, "tcp", "replicated", 2, False, None, False, None),
        (f"tcp k{k} dir", k, "tcp", "directory", 2, False, None, False,
         None),
        # The fault plane (PR 10): the same tcp storm with a seeded
        # worker-crash schedule.  One worker calls os._exit at a window
        # barrier; the coordinator respawns the slot, replays the WAL
        # prefix, and the run's digest must still join the all-equal set —
        # the recovered fleet is byte-identical to the fault-free rows.
        # The row writes its own log so the shared WAL rows (whose size
        # and commit the assertions below inspect) stay unpolluted.
        (f"tcp k{k} faults", k, "tcp", "replicated", 1, True, None, False,
         "seed=3,crash@2"),
    ]
    for dk in DIRECTORY_STORM_SHARDS:
        # Best-of-two on the K=8 pair (it carries the speedup bar); the
        # K=16 oversubscription row is informational and runs once.
        repeats = 2 if dk <= 8 else 1
        configs.append((f"serial k{dk} dir", dk, "serial", "directory",
                        repeats, False, None, False, None))
        configs.append((f"mp k{dk} dir", dk, "mp", "directory", repeats,
                        False, None, False, None))
    return configs


def run_sharded_storm_rows():
    nodes = SHARDED_STORM_NODES
    rounds = SHARDED_STORM_ROUNDS
    fanout = SHARDED_STORM_FANOUT
    rows = []
    bench_entries = []
    wal_path = RESULTS_DIR / "e3_storm.wal"
    faults_wal_path = RESULTS_DIR / "e3_storm_faults.wal"
    store_base = RESULTS_DIR / "e3_storm_trace"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    configs = _storm_configs()

    def _clear_store_files():
        # Stores append on reopen; every timed repeat must ingest from a
        # clean file so the work (and the final row counts) stay constant.
        for stale in RESULTS_DIR.glob("e3_storm_trace.*"):
            stale.unlink()

    def _wal_file(faults):
        # The faulted row both writes and replays its log mid-run, so it
        # gets a dedicated file — the shared WAL (size/commit asserted
        # below) must reflect the clean mp/serial rows only.
        return faults_wal_path if faults else wal_path

    def run_once(shards, executor, plane, wal, store, faults):
        if store:
            _clear_store_files()
        base = str(store_base) if store else None
        if shards == 0:
            return run_unsharded_storm(nodes, rounds, fanout,
                                       store_base=base)
        return run_sharded_storm(
            nodes, shards, executor, rounds, fanout, control_plane=plane,
            # each repeat rewrites the log from scratch, so the timed
            # work always includes the full checkpoint stream
            wal=str(_wal_file(faults)) if wal else None,
            store_base=base,
            faults=faults,
        )

    # Measure, best of `repeats`.  Adjacent configs sharing a `pair` tag
    # alternate run-for-run (plain, wal, plain, wal, ...): the <10%
    # WAL-overhead bar divides two wall-clock minima, and back-to-back
    # pairs cancel the slow machine drift (page cache, thermal, noisy
    # neighbors) that otherwise dwarfs the true overhead when the two
    # rows are measured minutes apart.
    groups = []
    for config in configs:
        pair = config[6]
        if pair is not None and groups and groups[-1][0] == pair:
            groups[-1][1].append(config)
        else:
            groups.append((pair, [config]))
    best = {}
    for _pair, group in groups:
        samples = {config[0]: [] for config in group}
        for _ in range(group[0][4]):
            for (label, shards, executor, plane, _repeats, wal, _tag,
                 store, faults) in group:
                samples[label].append(
                    run_once(shards, executor, plane, wal, store, faults)
                )
        for label, runs in samples.items():
            best[label] = min(runs, key=lambda r: r[0])

    # The surviving store files (from the store pair's last repeat) merge
    # into the queryable artifact the nightly job uploads; the E2/E3-style
    # traffic table regenerates from the stored rows alone — no re-run.
    from repro.bench.reporting import traffic_rows_from_store
    from repro.sim.tracestore import merge_stores

    merged_path = RESULTS_DIR / "e3_storm_trace.db"
    if merged_path.exists():
        merged_path.unlink()
    shard_stores = sorted(RESULTS_DIR.glob("e3_storm_trace.*"))
    with merge_stores(merged_path, shard_stores) as merged:
        (_, store_rows) = merged.sql("SELECT COUNT(*) FROM messages")
        store_row_count = store_rows[0][0]
    traffic_headers, traffic_rows = traffic_rows_from_store(str(merged_path))
    write_results(
        "e3_storm_trace_traffic",
        format_table(
            "E3f  Storm traffic regenerated from the stored trace "
            f"({store_row_count} rows, {len(shard_stores)} shard store(s))",
            traffic_headers,
            traffic_rows,
        ),
        headers=traffic_headers,
        rows=traffic_rows,
    )
    assert store_row_count == nodes * rounds * fanout, (
        f"trace store captured {store_row_count} rows, expected "
        f"{nodes * rounds * fanout}"
    )

    for (label, shards, executor, plane, repeats, wal, _tag,
         store, fault_spec) in configs:
        (elapsed, digest, delivered, windows, cost, exchange,
         fault_counters) = best[label]
        if fault_spec:
            # The self-healing contract at bench scale: the schedule's
            # crash actually fired, a replacement was respawned and caught
            # up via WAL replay — and the digest still joins the all-equal
            # set asserted by the caller.
            assert fault_counters.get("respawns", 0) >= 1, (
                f"{label}: fault schedule {fault_spec!r} produced no "
                f"respawns ({fault_counters})"
            )
            assert fault_counters.get("replayed_windows", 0) >= 1, (
                f"{label}: recovery never replayed a WAL window "
                f"({fault_counters})"
            )
        messages = nodes * rounds * fanout
        rows.append(
            [
                nodes,
                label,
                messages,
                delivered,
                windows,
                cost["peers_materialized"],
                cost["overlay_entries_built"],
                exchange.get("records", 0),
                exchange.get("encoded_bytes", 0) // 1024,
                round(elapsed, 3),
                int(messages / max(elapsed, 1e-9)),
                digest[:16],
            ]
        )
        bench_entries.append(
            {
                "kernel": label,
                "shards": shards,
                "executor": executor or "local",
                "control_plane": plane,
                "nodes": nodes,
                "messages": messages,
                "seconds": round(elapsed, 3),
                "peak_rss_mb": peak_rss_mb(
                    children=(executor in ("mp", "tcp"))
                ),
                "peers_materialized_max": cost["peers_materialized"],
                "overlay_entries_built_max": cost["overlay_entries_built"],
                "exchange_records": exchange.get("records", 0),
                "exchange_encoded_bytes": exchange.get("encoded_bytes", 0),
                "exchange_queue_fallbacks": exchange.get(
                    "queue_fallbacks", 0
                ),
                "wal": wal,
                "wal_bytes": (
                    os.path.getsize(_wal_file(fault_spec)) if wal else 0
                ),
                "faults": fault_spec,
                "respawns": fault_counters.get("respawns", 0),
                "replayed_windows": fault_counters.get(
                    "replayed_windows", 0
                ),
                "trace_store": store,
                "trace_db_bytes": (
                    os.path.getsize(merged_path) if store else 0
                ),
                "stats_digest": digest[:16],
            }
        )
    if not _SMOKE:
        # Smoke runs (CI tier-1, local quick checks) shrink N and K, so
        # their entries are not comparable to the checked-in full-size
        # baseline — only full runs refresh BENCH_e3.json.
        write_bench_trajectory(
            "e3", bench_entries,
            context={"smoke": False, "rounds": rounds, "fanout": fanout},
        )
    return rows


@pytest.mark.benchmark(group="e3-scalability")
def test_e3_sharded_storm(benchmark):
    rows = benchmark.pedantic(run_sharded_storm_rows, rounds=1, iterations=1)
    headers = [
        "nodes", "kernel", "messages", "delivered", "windows", "peers_mat",
        "ovl_built", "xch_recs", "xch_kb", "seconds", "msgs/sec",
        "stats_digest",
    ]
    table = format_table(
        f"E3e  Sharded storm at {SHARDED_STORM_NODES} nodes "
        f"({SHARDED_STORM_NODES * SHARDED_STORM_ROUNDS * SHARDED_STORM_FANOUT}"
        f" messages; K={SHARDED_STORM_SHARDS} replicated, "
        f"K∈{DIRECTORY_STORM_SHARDS} directory; peers_mat/ovl_built are "
        "max per worker, xch_* the SoA exchange volume)",
        headers,
        rows,
    )
    write_results("e3_sharded_storm", table, headers=headers, rows=rows)

    nodes = SHARDED_STORM_NODES
    expected = nodes * SHARDED_STORM_ROUNDS * SHARDED_STORM_FANOUT
    # The sharding theorem at bench scale: every kernel shape — replicated
    # or directory-served — produces byte-identical stats digests and full
    # delivery.
    digests = {row[11] for row in rows}
    assert len(digests) == 1, f"kernel shapes diverged: {rows}"
    for row in rows:
        assert row[3] == expected
    # Digest lineage: the storm's stats digest is pinned against the
    # checked-in baseline (the dd230f743b050a6e full-size lineage and its
    # smoke-size companion) so an exchange-path change that silently
    # alters observables fails CI here, not in a later golden refresh.
    # Smoke runs check their own pinned digest and never touch the
    # full-size BENCH baseline.
    import json as _json
    from pathlib import Path

    baseline = _json.loads(
        (Path(__file__).parent / "results" / "e3_smoke_digest.json")
        .read_text()
    )
    expected_digest = (
        baseline["smoke_digest"] if _SMOKE else baseline["full_digest"]
    )
    assert digests == {expected_digest}, (
        f"storm stats digest {digests} departed from the checked-in "
        f"{'smoke' if _SMOKE else 'full'} baseline {expected_digest}; if "
        "the change is intentional, refresh "
        "benchmarks/results/e3_smoke_digest.json"
    )
    # Cross-shard exchange actually flowed on every sharded row.
    for row in rows:
        if not row[1].startswith("unsharded"):
            assert row[7] > 0, f"no exchange records on {row[1]}"

    by_label = {row[1]: row for row in rows}
    # The O(N/K) construction contract, asserted numerically: replicated
    # workers each materialize all N peers and build the whole overlay;
    # directory workers materialize ceil(N/K) and build zero entries.
    assert by_label["unsharded"][5] == nodes
    assert by_label[f"serial k{SHARDED_STORM_SHARDS}"][5] == nodes
    for dk in DIRECTORY_STORM_SHARDS:
        dir_row = by_label[f"mp k{dk} dir"]
        assert dir_row[5] == -(-nodes // dk), (
            f"directory k{dk}: peers materialized per worker should be "
            f"ceil(N/K), got {dir_row[5]}"
        )
        assert dir_row[6] == 0, "directory views must not build entries"

    # The WAL rows carry the same digest (asserted above, they are in the
    # all-equal set) and leave a committed, resumable log behind.
    from repro.sim.wal import WalReader

    wal_reader = WalReader(str(RESULTS_DIR / "e3_storm.wal"))
    wal_row = by_label[f"mp k{SHARDED_STORM_SHARDS} wal"]
    assert wal_reader.commit is not None
    assert wal_reader.commit["windows"] == wal_row[4]
    assert len(wal_reader.windows) == wal_row[4]
    if not _SMOKE:
        # The checkpoint overhead bar: logging every window barrier must
        # cost < 10% wall-time against the matching no-WAL row.
        for executor in ("serial", "mp"):
            plain = by_label[f"{executor} k{SHARDED_STORM_SHARDS}"][9]
            logged = by_label[f"{executor} k{SHARDED_STORM_SHARDS} wal"][9]
            overhead = logged / max(plain, 1e-9) - 1.0
            assert overhead < 0.10, (
                f"{executor} WAL overhead {overhead:.1%} >= 10% "
                f"({logged:.3f}s vs {plain:.3f}s)"
            )
        # The trace-store ingest bar: streaming every send attempt into
        # the columnar store must cost < 10% wall-time against the
        # matching no-store row (proves ingest keeps up with the
        # vectorized transport instead of quietly serializing it).
        plain = by_label["unsharded"][9]
        ingest = by_label["unsharded store"][9]
        store_overhead = ingest / max(plain, 1e-9) - 1.0
        assert store_overhead < 0.10, (
            f"trace-store ingest overhead {store_overhead:.1%} >= 10% "
            f"({ingest:.3f}s vs {plain:.3f}s)"
        )

    serial_row = by_label[f"serial k{SHARDED_STORM_SHARDS}"]
    mp_row = by_label[f"mp k{SHARDED_STORM_SHARDS}"]
    speedup = serial_row[9] / max(mp_row[9], 1e-9)
    if not _SMOKE and _cpus() >= 4:
        # PR 4's bar: >= 1.5x over the lockstep serial reference with
        # >= 4 workers on >= 4 cores.  (On smaller runners the mp row still
        # verifies correctness; the parallel payoff needs parallel silicon.)
        assert speedup >= 1.5, f"sharded storm speedup {speedup:.2f}x < 1.5x"
    if not _SMOKE and _cpus() >= 8 and 8 in DIRECTORY_STORM_SHARDS:
        # The directory-mode scale-out bar: >= 2.5x mp-vs-serial at K=8 on
        # >= 8 cores, now that workers no longer pay O(N) control plane.
        dir_speedup = (
            by_label["serial k8 dir"][9]
            / max(by_label["mp k8 dir"][9], 1e-9)
        )
        assert dir_speedup >= 2.5, (
            f"directory storm speedup {dir_speedup:.2f}x < 2.5x at K=8"
        )
