"""E2 — Communication cost (paper §1.1: "reduces computation and
communication cost"; §2's privacy/efficiency discussion).

Measures, per strategy: training-phase traffic, query-phase traffic for a
fixed prediction workload, and load concentration (share of all received
bytes at the busiest peer — the centralized server's bottleneck).

Expected shape: local-only is free but inaccurate (E1); centralized is
cheap in total bytes at this scale but concentrates ~100 % of traffic at
one server and pays per-query round trips forever; CEMPaR's one-shot SV
upload spreads load across super-peers with cheap vector queries; PACE pays
the broadcast up front and then predicts for free.
"""


import pytest

from repro.bench.harness import ExperimentSetting, build_system
from repro.bench.reporting import format_table
from repro.sim.codec import codec_names

from _common import SMOKE as _SMOKE, write_results

BASE = dict(
    num_users=6 if _SMOKE else 12,
    docs_per_user=20 if _SMOKE else 40,
    train_fraction=0.2,
    seed=0,
)
QUERY_COUNT = 10 if _SMOKE else 30


def measure(algorithm: str):
    system = build_system(ExperimentSetting(algorithm=algorithm, **BASE))
    system.train()
    stats = system.scenario.stats
    train_bytes = stats.total_bytes
    train_messages = stats.total_messages
    received = stats.per_peer_received
    concentration = (
        max(received.values()) / sum(received.values())
        if received else 0.0
    )
    documents = system.test_corpus.documents[:QUERY_COUNT]
    num_peers = len(system.peers)
    for index, document in enumerate(documents):
        # Symmetric query workload: every peer tags some documents.
        origin = index % num_peers
        system.predict_scores(origin, document)
    query_bytes = stats.total_bytes - train_bytes
    return [
        algorithm,
        train_messages,
        train_bytes,
        query_bytes // max(1, len(documents)),
        concentration,
    ]


def run_all():
    return [
        measure(algorithm)
        for algorithm in (
            "centralized", "cempar", "nbagg", "pace", "local", "popularity"
        )
    ]


@pytest.mark.benchmark(group="e2-communication")
def test_e2_communication_table(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    headers = [
        "algorithm",
        "train_msgs",
        "train_bytes",
        "bytes/query",
        "max_rx_share",
    ]
    table = format_table(
        f"E2  Communication cost (training + {QUERY_COUNT} predictions)",
        headers,
        rows,
    )
    write_results("e2_communication", table, headers=headers, rows=rows)

    by_algorithm = {row[0]: row for row in rows}
    # The centralized server is the bottleneck; P2P spreads load.
    assert by_algorithm["centralized"][4] > by_algorithm["cempar"][4]
    # PACE predictions are free; centralized ones are not.
    assert by_algorithm["pace"][3] == 0
    assert by_algorithm["centralized"][3] > 0
    # Local-only never communicates.
    assert by_algorithm["local"][2] == 0


# ---------------------------------------------------------------------------
# Codec sweep: the same training traffic under every wire-format codec
# table.  Codecs are accounting-only, so the raw dimension is constant down
# the sweep and only the wire column moves — the ratio column is the
# deployment knob the paper's byte counts were missing.
# ---------------------------------------------------------------------------

SWEEP_ALGORITHMS = ("pace", "cempar")


def measure_codec(codec: str, algorithm: str):
    system = build_system(
        ExperimentSetting(algorithm=algorithm, codec=codec, **BASE)
    )
    system.train()
    stats = system.scenario.stats
    raw = stats.total_bytes
    wire = stats.total_wire_bytes
    return [
        codec,
        algorithm,
        stats.total_messages,
        raw,
        wire,
        round(wire / raw, 3) if raw else 1.0,
    ]


@pytest.mark.benchmark(group="e2-communication")
def test_e2_codec_sweep(benchmark, request):
    selected = request.config.getoption("--codec")
    codecs = (selected,) if selected else codec_names()

    def run_sweep():
        return [
            measure_codec(codec, algorithm)
            for codec in codecs
            for algorithm in SWEEP_ALGORITHMS
        ]

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    headers = [
        "codec", "algorithm", "train_msgs", "raw_bytes", "wire_bytes", "ratio",
    ]
    table = format_table(
        "E2b  Training communication under wire-format codecs", headers, rows
    )
    write_results("e2_codec_sweep", table, headers=headers, rows=rows)

    # Fixed-seed determinism: repeating a row reproduces its wire total.
    first = rows[0]
    again = measure_codec(first[0], first[1])
    assert again == first

    for row in rows:
        if row[0] == "identity":
            assert row[4] == row[3]
        else:
            # Every non-identity codec beats raw on training traffic.
            assert row[4] < row[3], row
    # Raw bytes are codec-independent (accounting-only guarantee).
    for algorithm in SWEEP_ALGORITHMS:
        raws = {row[3] for row in rows if row[1] == algorithm}
        assert len(raws) == 1
