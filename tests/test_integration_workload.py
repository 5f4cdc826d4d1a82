"""End-to-end integration: trained system + query workload + message trace.

A "day in the life" run: train collaboratively, then replay a Poisson
tagging workload through the simulator while tracing every message, and
check the pieces agree with each other (trace totals vs stats totals,
metadata growth vs queries served, maintenance traffic under churn).
"""


from repro.core.tagger import P2PDocTaggerSystem, SystemConfig
from repro.data.delicious import DeliciousGenerator
from repro.sim.tracestore import TraceStore
from repro.sim.workload import QueryWorkload, WorkloadConfig


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


class TestWorkloadIntegration:
    def test_workload_replay_tags_documents(self):
        system = make_system()
        system.train()
        workload = QueryWorkload(
            WorkloadConfig(
                peers=list(system.peers),
                rate_per_peer=0.02,
                duration=300.0,
                seed=1,
            )
        )
        events = workload.generate()
        assert events
        pools = {
            address: [
                d for d in system.test_corpus
                if system._owner_to_peer[d.owner] == address
            ]
            for address in system.peers
        }

        served = []

        def handle(event):
            pool = pools[event.peer]
            if not pool:
                return
            document = pool[event.doc_index % len(pool)]
            tags = system.peers[event.peer].auto_tag(document.untagged())
            served.append((event.peer, document.doc_id, tags))

        workload.replay(events, handle, simulator=system.scenario.simulator)
        assert len(served) == len(events)
        assert all(tags for _, _, tags in served)
        # Every served document got persisted metadata on its peer.
        for peer_id, doc_id, tags in served:
            assert system.peers[peer_id].store.tags_of(doc_id) == tags

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
