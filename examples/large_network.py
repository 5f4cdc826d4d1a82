#!/usr/bin/env python3
"""A DHT network with 500+ peers (the paper's demonstration scale).

Two parts:

1. **Overlay at scale** — a 512-peer Chord ring: routing hop statistics,
   deterministic super-peer election for a set of tags, and lookup behaviour
   while a quarter of the network churns out and stabilization repairs it.
2. **Collaborative tagging at scale** — P2PDocTagger training over a network
   of 500 peers (use --peers to shrink for quick runs), with the 20/80
   protocol of the demonstration.

Run:  python examples/large_network.py [--peers 500]
"""

import argparse
import statistics

from repro.bench import format_table
from repro.core.tagger import P2PDocTaggerSystem, SystemConfig
from repro.data import DeliciousGenerator
from repro.overlay.chord import ChordOverlay
from repro.overlay.idspace import key_id_for
from repro.overlay.superpeer import SuperPeerDirectory


def overlay_at_scale(n: int = 512) -> None:
    print(f"-- Chord ring with {n} peers --")
    overlay = ChordOverlay()
    for address in range(n):
        overlay.join(address)
    overlay.stabilize()

    hops = [
        overlay.route(i % n, key_id_for(f"key{i}")).hops for i in range(200)
    ]
    print(
        f"lookup hops: mean={statistics.mean(hops):.2f} "
        f"max={max(hops)} (log2 N = {n.bit_length() - 1})"
    )

    directory = SuperPeerDirectory(overlay, num_regions=4)
    rows = []
    for tag in ("music", "travel", "linux", "recipes"):
        owners = directory.owners(0, tag)
        rows.append([tag] + [owners[r] for r in range(4)])
    print(
        format_table(
            "Deterministic super-peer election (4 regions)",
            ["tag", "region0", "region1", "region2", "region3"],
            rows,
        )
    )

    # Crash 25% of peers; measure lookup success before/after stabilize.
    for address in range(0, n, 4):
        overlay.leave(address)
    stale_success = sum(
        overlay.route(1 + (i % (n - 1)) | 1, key_id_for(f"x{i}")).success
        for i in range(100)
    )
    overlay.stabilize()
    repaired_success = sum(
        overlay.route(1 + (i % (n - 1)) | 1, key_id_for(f"x{i}")).success
        for i in range(100)
    )
    print(
        f"after 25% crash: lookup success {stale_success}% stale -> "
        f"{repaired_success}% after stabilize\n"
    )


def tagging_at_scale(peers: int, seed: int = 0) -> None:
    print(f"-- P2PDocTagger over {peers} peers --")
    corpus = DeliciousGenerator(
        num_users=peers,
        seed=seed,
        num_tags=12,
        docs_per_user_range=(8, 12),  # scaled-down per-user holdings
        vocabulary_size=800,
        doc_length_range=(30, 60),
    ).generate()
    print(f"corpus: {corpus.summary()}")

    system = P2PDocTaggerSystem(
        corpus,
        SystemConfig(
            algorithm="pace",
            train_fraction=0.2,
            seed=seed,
            algorithm_options={"top_k": 10},
        ),
    )
    system.train()
    report = system.evaluate(max_documents=150)
    print("evaluation:", report.summary())
    stats = system.scenario.stats
    busiest = max(stats.per_peer_received.values(), default=0)
    print(
        f"traffic: {stats.total_messages} messages, {stats.total_bytes} bytes; "
        f"busiest peer received {busiest} bytes "
        f"({100 * busiest / max(1, stats.total_bytes):.1f}% of total)\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peers", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    overlay_at_scale(512)
    tagging_at_scale(args.peers, args.seed)


if __name__ == "__main__":
    main()
