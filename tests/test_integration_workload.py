"""End-to-end integration: trained system + held-out queries + message trace.

A "day in the life" run: train collaboratively, then auto-tag the
held-out documents on their owning peers while tracing every message, and
check the pieces agree with each other (trace totals vs stats totals,
metadata growth vs queries served, maintenance traffic under churn).
"""


from repro.core.tagger import P2PDocTaggerSystem, SystemConfig
from repro.data.delicious import DeliciousGenerator
from repro.sim.tracestore import TraceStore


def make_system(algorithm="nbagg", churn="none", seed=4):
    corpus = DeliciousGenerator(
        num_users=6, seed=seed, num_tags=6, docs_per_user_range=(14, 18),
        vocabulary_size=400, topic_words_per_tag=30, doc_length_range=(30, 60),
    ).generate()
    return P2PDocTaggerSystem(
        corpus,
        SystemConfig(
            algorithm=algorithm, churn=churn, mean_session=300.0,
            mean_downtime=30.0, train_fraction=0.3, seed=seed,
        ),
    )


class TestSystemIntegration:
    def test_held_out_documents_are_tagged_on_their_peers(self):
        system = make_system()
        system.train()
        served = []
        for document in system.test_corpus:
            peer = system.peer_of(document)
            served.append((peer, document.doc_id,
                           peer.auto_tag(document.untagged())))
        assert len({id(peer) for peer, _, _ in served}) > 1
        assert all(tags for _, _, tags in served)
        # Every served document got persisted metadata on its peer.
        for peer, doc_id, tags in served:
            assert peer.store.tags_of(doc_id) == tags

    def test_trace_agrees_with_stats(self):
        system = make_system()
        with TraceStore(":memory:").attach(system.scenario.network) as store:
            system.train()
            _, rows = store.report_traffic()
        stats = system.scenario.stats
        # columns: msg_type, msgs, bytes, wire_bytes, total_bytes (x hops)
        assert sum(row[1] for row in rows) == stats.total_messages
        assert sum(row[4] for row in rows) == stats.total_bytes

    def test_churn_run_charges_maintenance(self):
        system = make_system(churn="exponential")
        system.train()
        system.scenario.run(duration=120.0)
        stats = system.scenario.stats
        assert stats.counters["stabilize_rounds"] > 0
        assert stats.bytes_for("overlay.maintenance") > 0
        assert stats.messages_for("overlay.maintenance") > 0

    def test_static_run_has_no_maintenance(self):
        system = make_system(churn="none")
        system.train()
        assert system.scenario.stats.bytes_for("overlay.maintenance") == 0
