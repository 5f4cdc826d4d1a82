#!/usr/bin/env python3
"""The paper's §3 demonstration, end to end.

Reproduces the demonstration protocol: a Delicious-like corpus (users
holding 50-200 annotated documents — scaled via --users/--docs), 20 % of
tagged documents used for training, the remaining 80 % stripped and tagged
automatically; CEMPaR and PACE compared against the centralized, local-only
and popularity baselines; then the interactive operations — manual tagging,
AutoTag, Suggest Tag with the confidence slider, and tag refinement.

Run:  python examples/delicious_demo.py [--users 12] [--docs 40]
"""

import argparse

from repro.bench import format_table
from repro.core.tagger import P2PDocTaggerSystem, SystemConfig
from repro.data import DeliciousGenerator


def build_corpus(users: int, docs: int, seed: int):
    return DeliciousGenerator(
        num_users=users,
        seed=seed,
        num_tags=10,
        docs_per_user_range=(docs, docs),
    ).generate()


def compare_algorithms(corpus, seed: int) -> None:
    rows = []
    for algorithm in ("centralized", "cempar", "pace", "local", "popularity"):
        system = P2PDocTaggerSystem(
            corpus,
            SystemConfig(algorithm=algorithm, train_fraction=0.2, seed=seed),
        )
        system.train()
        report = system.evaluate(max_documents=80)
        rows.append(
            [
                algorithm,
                report.metrics.micro_f1,
                report.metrics.macro_f1,
                report.total_messages,
                report.total_bytes,
            ]
        )
    print(
        format_table(
            "Demonstration: 20% manual / 80% auto-tagged",
            ["algorithm", "microF1", "macroF1", "messages", "bytes"],
            rows,
        )
    )


def interactive_walkthrough(corpus, seed: int) -> None:
    system = P2PDocTaggerSystem(
        corpus, SystemConfig(algorithm="cempar", train_fraction=0.2, seed=seed)
    )
    system.train()

    document = system.test_corpus[0]
    peer = system.peer_of(document)

    print("-- Suggest Tag (Fig. 3) --")
    for threshold in (0.2, 0.5):
        suggestions = peer.suggest_tags(document, confidence_threshold=threshold)
        rendered = " ".join(s.render() for s in suggestions)
        print(f"confidence slider at {threshold}: {rendered}")
    print(f"true tags: {sorted(document.tags)}\n")

    print("-- AutoTag --")
    assigned = peer.auto_tag(document.untagged())
    print(f"AutoTag assigned: {sorted(assigned)}\n")

    print("-- Manual tagging --")
    peer.manual_tag(document.doc_id, ["my-own-tag"])
    print(f"tags now: {sorted(peer.store.tags_of(document.doc_id))}\n")

    print("-- Refinement (localized conflict resolution) --")
    fired = peer.refine(document, sorted(document.tags))
    print(
        f"correction recorded (retrain batched: fired={fired}); "
        f"pending={system.refinement.pending_count}\n"
    )

    print("-- Library browsing --")
    system.auto_tag_all()
    print(peer.library.summary())
    for tag in peer.library.tags()[:3]:
        print(f"  {tag}: {peer.library.browse_by_tag(tag)[:6]}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=12)
    parser.add_argument("--docs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    corpus = build_corpus(args.users, args.docs, args.seed)
    print(f"corpus: {corpus.summary()}\n")
    compare_algorithms(corpus, args.seed)
    interactive_walkthrough(corpus, args.seed)


if __name__ == "__main__":
    main()
