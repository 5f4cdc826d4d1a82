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

import time

import pytest

from repro.bench.harness import ExperimentSetting, run_experiment
from repro.bench.reporting import format_table

from _common import SMOKE as _SMOKE, write_results

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
