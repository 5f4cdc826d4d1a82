#!/usr/bin/env python3
"""Quickstart: automated collaborative tagging on a small P2P network.

Builds a synthetic Delicious-like corpus for 8 users, trains the PACE
collaborative classifier over a simulated Chord network, auto-tags the
held-out documents, and walks the user-facing operations: Suggest Tag,
AutoTag, Library search, and the Tag Cloud.

Run:  python examples/quickstart.py
"""

from repro.core.tagger import P2PDocTaggerSystem
from repro.data import DeliciousGenerator


def main() -> None:
    print("== P2PDocTagger quickstart ==\n")

    # 1. A personal-document corpus: 8 users, multi-tagged text documents.
    corpus = DeliciousGenerator(
        num_users=8,
        seed=7,
        num_tags=8,
        docs_per_user_range=(25, 35),
    ).generate()
    print(f"corpus: {corpus.summary()}\n")

    # 2. The system: 20% of each user's documents are manually tagged
    #    (the paper's bootstrap), the rest get tagged automatically.
    system = P2PDocTaggerSystem.from_corpus(
        corpus, algorithm="pace", seed=7, train_fraction=0.2
    )
    print(
        f"peers: {len(system.peers)}, training docs: {len(system.train_corpus)}, "
        f"to auto-tag: {len(system.test_corpus)}"
    )

    # 3. Collaborative learning over the simulated P2P network.
    system.train()
    stats = system.scenario.stats
    print(
        f"trained; network traffic: {stats.total_messages} messages, "
        f"{stats.total_bytes} bytes\n"
    )

    # 4. Suggest Tag on one untagged document (the Fig. 3 interaction).
    document = system.test_corpus[0]
    peer = system.peer_of(document)
    suggestions = peer.suggest_tags(document, confidence_threshold=0.3)
    print("Suggestion Cloud for one document (struck-out = low confidence):")
    print(" ", " ".join(s.render() for s in suggestions))
    print(f"  true tags were: {sorted(document.tags)}\n")

    # 5. AutoTag everything and evaluate against the users' true tags.
    report = system.evaluate(max_documents=100)
    print("evaluation:", report.summary(), "\n")

    # 6. Library: tag metadata persists and is browsable/searchable.
    system.auto_tag_all()
    some_peer = system.peers[0]
    print("peer 0 library:", some_peer.library.summary())
    tags = some_peer.library.tags()
    if tags:
        tag = tags[0]
        docs = some_peer.library.browse_by_tag(tag, min_confidence=0.4)
        print(f"peer 0 documents tagged {tag!r} (confidence >= 0.4): {docs[:8]}")

    # 7. The tag cloud over everything the network has tagged.
    cloud = system.global_tag_cloud()
    print("\nglobal tag cloud:", cloud.ascii_cloud(max_tags=12))
    print("tag communities:", [sorted(c) for c in cloud.communities()])


if __name__ == "__main__":
    main()
