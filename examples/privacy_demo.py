#!/usr/bin/env python3
"""Privacy walkthrough: what leaves a peer, and how to harden it.

The paper's privacy story has three layers, all exercised here:

1. **Preprocessing** (§2): stop words and *user-specified sensitive words*
   never enter the document vectors, and word order is discarded — shared
   vectors are word-id/frequency multisets.
2. **Algorithm choice**: PACE never propagates document vectors at all
   (weights + centroids only); CEMPaR propagates support vectors, which are
   document vectors but not reconstructable text.
3. **Pluggability** (§2): swapping in a privacy-preserving P2P classifier
   hardens the whole system — demonstrated with PrivatePace (Laplace-
   randomized bundles) and its privacy/utility curve.

Run:  python examples/privacy_demo.py
"""

from repro.bench import format_table
from repro.data import DeliciousGenerator
from repro.data.splits import per_user_split
from repro.ml.metrics import micro_f1
from repro.p2pclass.base import corpus_to_peer_data
from repro.p2pclass.pace import PaceClassifier, PaceConfig
from repro.p2pclass.private import PrivatePaceClassifier, PrivatePaceConfig
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.tracestore import TraceStore
from repro.text.sensitive import SensitiveWordFilter
from repro.text.vectorizer import PreprocessingPipeline

NUM_PEERS = 10


def sensitive_words_never_leave() -> None:
    print("-- layer 1: sensitive-word filtering --")
    pipeline = PreprocessingPipeline(
        sensitive_filter=SensitiveWordFilter(["projectx", "salar*"])
    )
    text = "the projectx budget and salary adjustments for salaries review"
    tokens = pipeline.tokens(text)
    print(f"text:    {text!r}")
    print(f"tokens after filtering + stemming: {tokens}")
    assert "projectx" not in tokens
    assert not any(t.startswith("salar") for t in tokens)
    print("sensitive words removed before any vector is built\n")


def build_setting(seed=0):
    corpus = DeliciousGenerator(
        num_users=NUM_PEERS, seed=seed, num_tags=8,
        docs_per_user_range=(30, 30),
    ).generate()
    train, test = per_user_split(corpus, 0.2, seed=seed)
    pipeline = PreprocessingPipeline(dimension=2 ** 16)
    peer_data = corpus_to_peer_data(train, pipeline)
    test_items = [
        (pipeline.process(d.text), d.tags, d.owner)
        for d in test.documents[:50]
    ]
    return peer_data, test_items, corpus.tag_universe()


def fresh_scenario():
    return Scenario(
        ScenarioConfig(
            num_peers=NUM_PEERS, shard=ShardSpec(num_peers=NUM_PEERS), seed=0
        )
    )


def inspect_wire_content(peer_data, tags) -> None:
    print("-- layer 2: what PACE actually transmits --")
    scenario = fresh_scenario()
    classifier = PaceClassifier(scenario, peer_data, tags, PaceConfig())
    with TraceStore(":memory:").attach(scenario.network) as store:
        classifier.train()
        _, [(broadcasts,)] = store.sql(
            "SELECT COUNT(*) FROM traffic WHERE msg_type = ?",
            ("pace.model_broadcast",),
        )
    print(f"model broadcasts on the wire: {broadcasts}")
    sample = classifier.held_bundles(0)[1]
    print(
        "a bundle contains: "
        f"{len(sample.models)} per-tag weight vectors, "
        f"{len(sample.centroids)} centroids, "
        f"{len(sample.accuracies)} accuracy scalars — no documents, no text"
    )
    print(f"bundle wire size: {sample.wire_size()} bytes\n")


def privacy_utility_curve(peer_data, test_items, tags) -> None:
    print("-- layer 3: pluggable privacy (randomized bundles) --")

    def evaluate(classifier):
        true_sets, predicted = [], []
        for vector, doc_tags, owner in test_items:
            true_sets.append(doc_tags)
            predicted.append(classifier.predict_tags(owner, vector))
        return micro_f1(true_sets, predicted, tags)

    rows = []
    plain = PaceClassifier(fresh_scenario(), peer_data, tags, PaceConfig())
    plain.train()
    rows.append(["plain pace", "-", evaluate(plain)])
    for epsilon in (10.0, 1.0, 0.1):
        private = PrivatePaceClassifier(
            fresh_scenario(), peer_data, tags,
            PrivatePaceConfig(epsilon=epsilon),
        )
        private.train()
        rows.append(["private-pace", epsilon, evaluate(private)])
    print(
        format_table(
            "Privacy/utility trade-off",
            ["classifier", "epsilon", "microF1"],
            rows,
        )
    )


def main() -> None:
    sensitive_words_never_leave()
    peer_data, test_items, tags = build_setting()
    inspect_wire_content(peer_data, tags)
    privacy_utility_curve(peer_data, test_items, tags)


if __name__ == "__main__":
    main()
