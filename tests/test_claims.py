"""The paper's qualitative claims, at the sizes and seeds they were measured at.

``docs/CLAIMS.md`` lists every claim this repo makes about the paper
(section, statement, measured numbers) and the one test that holds it.  This
file holds the rows no other tier-1 suite does.  Each test trains the real
system (:class:`P2PDocTaggerSystem`, or the classifiers directly where the
claim is about a classifier) on the corpus shape below and asserts an
ordering or a margin, never a pinned value: an ML change that moves a digest
fails ``tests/test_golden_determinism.py``; one that flips a *scientific*
result fails here.
"""

import functools
import statistics
from collections import namedtuple

import pytest

from repro.baselines.localonly import LocalOnlyTagger
from repro.baselines.popularity import PopularityTagger
from repro.core.multilabel import FixedThreshold, TopKPolicy
from repro.core.tagger import P2PDocTaggerSystem
from repro.data.delicious import DeliciousGenerator
from repro.data.splits import per_user_split
from repro.ml.metrics import (
    MultiLabelReport,
    mean_precision_at_k,
    micro_f1,
)
from repro.overlay.unstructured import UnstructuredOverlay
from repro.p2pclass.base import TaggedVector, corpus_to_peer_data
from repro.p2pclass.pace import PaceClassifier, PaceConfig
from repro.p2pclass.private import PrivatePaceClassifier, PrivatePaceConfig
from repro.sim.codec import codec_names
from repro.sim.distribution import DataDistributor, ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.text.vectorizer import PreprocessingPipeline


@pytest.fixture(scope="module")
def standard_corpus():
    """``standard_corpus(num_users=12, docs_per_user=40,
    interest_concentration=0.5, seed=0)``: the Delicious-like corpus every
    claim below is measured on — 8 tags, a 600-word vocabulary, 30-70 word
    documents.  The paper's demonstration range (50-200 documents per user,
    500+ peers) is ``examples/large_network.py``; this shape keeps the
    comparative results and trains in a fraction of a second."""

    @functools.lru_cache(maxsize=None)  # keyed on the values, not the call form
    def generate(num_users, docs_per_user, interest_concentration, seed):
        return DeliciousGenerator(
            num_users=num_users,
            seed=seed,
            num_tags=8,
            docs_per_user_range=(docs_per_user, docs_per_user),
            vocabulary_size=600,
            topic_words_per_tag=35,
            doc_length_range=(30, 70),
            interest_concentration=interest_concentration,
        ).generate()

    def corpus(num_users=12, docs_per_user=40, interest_concentration=0.5,
               seed=0):
        return generate(num_users, docs_per_user, interest_concentration, seed)

    return corpus


@pytest.fixture(scope="module")
def trained(standard_corpus):
    """``trained(algorithm, seed=0, options=(), **corpus)``: a trained
    system on ``standard_corpus(seed=seed, **corpus)`` under the paper's
    20 % / 80 % protocol (``SystemConfig``'s default), ``options`` being
    ``algorithm_options`` as item pairs; built once per distinct call.
    Shared systems run without churn, where scores do not depend on what was
    asked before; tests only read from them."""

    @functools.lru_cache(maxsize=None)
    def build(algorithm, seed, options, corpus):
        system = P2PDocTaggerSystem.from_corpus(
            standard_corpus(seed=seed, **dict(corpus)), algorithm=algorithm,
            seed=seed, algorithm_options=dict(options),
        )
        system.train()
        return system

    def trained(algorithm, seed=0, options=(), **corpus):
        return build(algorithm, seed, options, tuple(sorted(corpus.items())))

    return trained


def bare_scenario(num_peers):
    """A scenario for a classifier driven without the system facade."""
    return Scenario(ScenarioConfig(
        num_peers=num_peers, shard=ShardSpec(num_peers=num_peers), seed=0
    ))


# -- E1: tagging accuracy, paper §3's 20 % train / 80 % auto-tag protocol ----


F1 = namedtuple("F1", "micro macro")


@pytest.fixture(scope="module")
def e1(trained):
    """algorithm -> :class:`F1`, mean of corpus seeds 0-2."""
    means = {}
    for algorithm in ("centralized", "cempar", "pace", "local", "popularity"):
        metrics = [
            trained(algorithm, seed).evaluate(max_documents=60).metrics
            for seed in (0, 1, 2)
        ]
        means[algorithm] = F1(
            micro=statistics.mean(m.micro_f1 for m in metrics),
            macro=statistics.mean(m.macro_f1 for m in metrics),
        )
    return means


def test_e1_centralized_is_at_least_as_accurate_as_local_only(e1):
    assert e1["centralized"].micro >= e1["local"].micro


def test_e1_cempar_beats_the_popularity_floor(e1):
    assert e1["cempar"].micro > e1["popularity"].micro


def test_e1_pace_beats_local_only_on_macro_f1(e1):
    assert e1["pace"].macro > e1["local"].macro


def test_e1_cempar_recovers_most_of_the_centralized_micro_f1(e1):
    assert e1["cempar"].micro >= 0.8 * e1["centralized"].micro


# -- E2b: wire-format codecs are accounting-only (paper §1.1 cost claim) ------


@pytest.fixture(scope="module")
def training_traffic(standard_corpus):
    """``training_traffic(codec, algorithm)`` -> (messages, raw bytes, wire
    bytes) of one training run, before any query is charged."""

    @functools.lru_cache(maxsize=None)
    def measure(codec, algorithm):
        system = P2PDocTaggerSystem.from_corpus(
            standard_corpus(), algorithm=algorithm, codec=codec
        )
        system.train()
        stats = system.scenario.stats
        return stats.total_messages, stats.total_bytes, stats.total_wire_bytes

    return measure


@pytest.mark.parametrize("codec", codec_names())
def test_e2b_a_codec_moves_only_the_wire_dimension(codec, training_traffic):
    for algorithm in ("pace", "cempar"):
        messages, raw, wire = training_traffic(codec, algorithm)
        assert (messages, raw) == training_traffic("identity", algorithm)[:2]
        if codec == "identity":
            assert wire == raw
        else:
            assert wire < raw


def test_e2b_a_fixed_seed_repeats_its_traffic(training_traffic):
    again = training_traffic.__wrapped__("gzip-model", "pace")  # uncached
    assert again == training_traffic("gzip-model", "pace")


# -- E3a: scalability with network size (paper §1.1 "scales well") ------------


ScaleRow = namedtuple("ScaleRow", "micro_f1 bytes_per_peer")


@pytest.fixture(scope="module")
def e3a(trained):
    """(algorithm, peers) -> :class:`ScaleRow` with per-user holdings fixed
    at 30 documents: training plus 50 queries, the only evaluation these
    systems ever see."""
    rows = {}
    for peers in (6, 24):
        for algorithm in ("cempar", "pace"):
            report = trained(
                algorithm, num_users=peers, docs_per_user=30
            ).evaluate(max_documents=50)
            rows[algorithm, peers] = ScaleRow(
                report.metrics.micro_f1, report.total_bytes // peers
            )
    return rows


@pytest.mark.parametrize("algorithm", ("cempar", "pace"))
def test_e3a_accuracy_holds_as_the_network_grows(algorithm, e3a):
    assert e3a[algorithm, 24].micro_f1 >= e3a[algorithm, 6].micro_f1 - 0.1


def test_e3a_pace_per_peer_bytes_grow_faster_than_cempars(e3a):
    def growth(algorithm):
        small, large = e3a[algorithm, 6], e3a[algorithm, 24]
        return large.bytes_per_peer / small.bytes_per_peer

    assert growth("pace") > 1
    assert growth("cempar") < growth("pace")


# -- E4: churn (paper §3 churn knob; §1.1 "no single point of failure") -------

HEAVY = dict(churn="exponential", mean_session=200.0, mean_downtime=60.0)
MILD = dict(churn="exponential", mean_session=1200.0, mean_downtime=60.0)
ChurnRow = namedtuple("ChurnRow", "micro_f1 lost_uploads failed_queries leaves")


@pytest.fixture(scope="module")
def e4(standard_corpus):
    """(algorithm, churn level) -> :class:`ChurnRow` after training and 50
    queries.  Under churn an answer depends on when it was asked, so these
    systems are built, queried once and dropped here."""
    rows = {}
    for algorithm, level, churn in (
        ("cempar", "none", {}), ("cempar", "mild", MILD),
        ("cempar", "heavy", HEAVY), ("centralized", "heavy", HEAVY),
    ):
        system = P2PDocTaggerSystem.from_corpus(
            standard_corpus(), algorithm=algorithm, **churn
        )
        system.train()
        micro = system.evaluate(max_documents=50).metrics.micro_f1
        counters = system.scenario.stats.counters
        rows[algorithm, level] = ChurnRow(
            micro_f1=micro,
            lost_uploads=sum(counters.get(name, 0) for name in (
                "cempar_upload_lost", "cempar_upload_lookup_failed",
                "cempar_upload_skipped", "central_upload_lost",
            )),
            failed_queries=sum(counters.get(name, 0) for name in (
                "cempar_query_lookup_failed", "cempar_query_lost",
                "central_query_lost",
            )),
            leaves=counters.get("churn_leaves", 0),
        )
    return rows


@pytest.mark.parametrize("level", ("mild", "heavy"))
def test_e4_the_static_network_is_the_accuracy_envelope(level, e4):
    static, churned = e4["cempar", "none"], e4["cempar", level]
    assert static.micro_f1 >= churned.micro_f1 - 0.05


def test_e4_uploads_are_lost_to_churn_and_only_to_churn(e4):
    assert e4["cempar", "none"].lost_uploads == 0
    assert e4["cempar", "heavy"].leaves > 0  # churn actually happened
    lost = [
        e4["cempar", level].lost_uploads for level in ("none", "mild", "heavy")
    ]
    assert lost == sorted(lost) and lost[-1] > 0


def test_e4_the_central_server_is_a_single_point_of_failure(e4):
    assert (
        e4["centralized", "heavy"].failed_queries
        > e4["cempar", "heavy"].failed_queries
    )


# -- E5: class and size distributions (paper §3 "vary the data distribution") -


def test_e5_collaboration_beats_isolation_under_sharp_class_skew(trained):
    def macro(algorithm):
        sharp = trained(algorithm, interest_concentration=0.1)
        return sharp.evaluate(max_documents=60).metrics.macro_f1

    assert macro("cempar") > macro("local")


def test_e5_size_skew_costs_cempar_less_than_class_skew(
    standard_corpus, trained
):
    def macro(system):
        return system.evaluate(max_documents=60).metrics.macro_f1

    class_drop = (
        macro(trained("cempar", interest_concentration=50.0))
        - macro(trained("cempar", interest_concentration=0.1))
    )
    by_size = {}
    for sizes in ("uniform", "zipf"):
        resharded = DataDistributor(ShardSpec(
            num_peers=12, size_distribution=sizes, zipf_exponent=1.2, seed=0,
        )).distribute(standard_corpus())
        system = P2PDocTaggerSystem.from_corpus(resharded, algorithm="cempar")
        system.train()
        by_size[sizes] = macro(system)
    assert by_size["uniform"] - by_size["zipf"] < class_drop


# -- E7: the Suggestion Cloud and its Confidence slider (paper Fig. 3) --------


def suggested(system):
    """(true tags, suggestions ranked by confidence, none struck out) of 40
    held-out documents."""
    return [
        (document.tags, sorted(
            system.peer_of(document).suggest_tags(
                document, confidence_threshold=0.0),
            key=lambda suggestion: -suggestion.confidence,
        ))
        for document in system.test_corpus.documents[:40]
    ]


def precision_at(k, ranked):
    return mean_precision_at_k(
        [truth for truth, _ in ranked],
        [[s.tag for s in suggestions] for _, suggestions in ranked], k,
    )


def test_e7_suggestion_precision_falls_with_k(trained):
    ranked = suggested(trained("cempar"))
    precisions = [precision_at(k, ranked) for k in (1, 3, 5)]
    assert precisions == sorted(precisions, reverse=True)


def test_e7_the_top_suggestion_beats_the_popularity_ranking(trained):
    collaborative = precision_at(1, suggested(trained("cempar")))
    assert collaborative > precision_at(1, suggested(trained("popularity")))


def test_e7_raising_the_confidence_slider_raises_precision(trained):
    ranked = suggested(trained("cempar"))
    precision = []
    for threshold in (0.1, 0.3, 0.5, 0.7):
        kept = [
            suggestion.tag in truth
            for truth, suggestions in ranked for suggestion in suggestions
            if suggestion.confidence >= threshold
        ]
        precision.append(sum(kept) / len(kept))
    assert precision == sorted(precision)


# -- E8: tag-cloud structure (paper Fig. 4: two clusters and a bridge tag) ----


@pytest.fixture(scope="module")
def e8():
    """(planted bridge tag, global tag cloud after auto-tagging) on a corpus
    with two planted tag groups joined by one bridge tag."""
    generator = DeliciousGenerator(
        num_users=12, seed=3, num_tags=10, num_tag_groups=2, bridge_tags=1,
        within_group_bias=0.9, docs_per_user_range=(30, 30),
        vocabulary_size=600, topic_words_per_tag=35, doc_length_range=(30, 70),
    )
    planted = next(
        tag for tag in generator.tags if len(generator.groups_of(tag)) == 2
    )
    system = P2PDocTaggerSystem.from_corpus(
        generator.generate(), algorithm="cempar", seed=3
    )
    system.train()
    system.auto_tag_all()
    return planted, system.global_tag_cloud()


def test_e8_the_tag_cloud_has_at_least_two_communities(e8):
    assert len(e8[1].communities()) >= 2


def test_e8_the_planted_bridge_tag_is_the_top_bridge(e8):
    planted, cloud = e8
    assert cloud.bridge_tags(top=1) == [planted]


# -- A1: design-choice ablations (CEMPaR regions, PACE top-k and LSH bits) ----


def a1_report(trained, algorithm, **options):
    return trained(
        algorithm, options=tuple(options.items())
    ).evaluate(max_documents=60)


def test_a1_fewer_cempar_regions_are_at_least_as_accurate(trained):
    one = a1_report(trained, "cempar", num_regions=1)
    four = a1_report(trained, "cempar", num_regions=4)
    assert one.metrics.micro_f1 >= four.metrics.micro_f1 - 0.05


def test_a1_every_configuration_beats_the_popularity_floor(trained):
    floor = trained("popularity").evaluate(max_documents=60).metrics.micro_f1
    sweep = (  # around the defaults: 2 regions; top-6 of 8-bit buckets
        [("cempar", {}), ("pace", {})]
        + [("cempar", {"num_regions": regions}) for regions in (1, 4)]
        + [("pace", {"top_k": top_k}) for top_k in (2, 11)]
        + [("pace", {"lsh_bits": bits}) for bits in (4, 16)]
    )
    for algorithm, options in sweep:
        micro = a1_report(trained, algorithm, **options).metrics.micro_f1
        assert micro > floor, (algorithm, options)


# -- A2: overlay primitives (paper §3 "topology of the P2P network") ----------


@pytest.mark.parametrize("size", (32, 128))
def test_a2_flooding_costs_more_messages_than_gossip(size):
    overlay = UnstructuredOverlay(degree=4, seed=1)
    for address in range(size):
        overlay.join(address)
    flood = overlay.flood(0, ttl=10)
    gossip = overlay.gossip(0, fanout=3, rounds=12)
    assert flood.messages > gossip.messages


# -- A3: privacy-preserving pluggability (paper §2) ---------------------------


PrivacyRow = namedtuple("PrivacyRow", "micro_f1 total_bytes")


@pytest.fixture(scope="module")
def a3(standard_corpus):
    """epsilon (None = plain PACE) -> :class:`PrivacyRow` over 60 held-out
    documents: Laplace-randomised model bundles against plain ones."""
    corpus = standard_corpus()
    train, test = per_user_split(corpus, 0.2, seed=0)
    pipeline = PreprocessingPipeline(dimension=2 ** 16)
    peer_data = corpus_to_peer_data(train, pipeline)
    tags = corpus.tag_universe()
    held_out = [
        (pipeline.process(d.text), d.tags, d.owner)
        for d in test.documents[:60]
    ]
    rows = {}
    for epsilon in (None, 0.1, 2.0, 10.0):
        scenario = bare_scenario(12)
        if epsilon is None:
            classifier = PaceClassifier(scenario, peer_data, tags, PaceConfig())
        else:
            classifier = PrivatePaceClassifier(
                scenario, peer_data, tags, PrivatePaceConfig(epsilon=epsilon)
            )
        classifier.train()
        predicted = [
            classifier.predict_tags(owner, vector)
            for vector, _, owner in held_out
        ]
        rows[epsilon] = PrivacyRow(
            micro_f1([truth for _, truth, _ in held_out], predicted, tags),
            scenario.stats.total_bytes,
        )
    return rows


def test_a3_a_weak_privacy_budget_is_at_least_as_accurate_as_a_strong_one(a3):
    assert a3[10.0].micro_f1 >= a3[0.1].micro_f1


def test_a3_strong_privacy_does_not_beat_plain_pace(a3):
    assert a3[None].micro_f1 >= a3[0.1].micro_f1 - 0.02


def test_a3_randomised_bundles_cost_the_same_traffic(a3):
    plain = a3[None].total_bytes
    assert abs(a3[2.0].total_bytes - plain) < 0.2 * plain


# -- A4: the AutoTag assignment policy -----------------------------------------


@pytest.fixture(scope="module")
def a4(standard_corpus):
    """policy name -> MultiLabelReport over 60 held-out documents.  Its own
    system: ``tune_thresholds`` installs a policy."""
    system = P2PDocTaggerSystem.from_corpus(standard_corpus(), "cempar")
    system.train()
    held_out = system.test_corpus.documents[:60]
    scores = [
        system.predict_scores(system.peer_of(document).owner, document)
        for document in held_out
    ]
    policies = {"fixed(0.5)": FixedThreshold(0.5)}
    policies.update((f"top-{k}", TopKPolicy(k=k)) for k in (1, 2, 3))
    system.tune_thresholds()
    policies["tuned"] = system.policy
    return {
        name: MultiLabelReport.compute(
            [document.tags for document in held_out],
            [policy.assign(document_scores) for document_scores in scores],
            tags=system.corpus.tag_universe(),
        )
        for name, policy in policies.items()
    }


def test_a4_tuned_per_tag_thresholds_hold_macro_f1(a4):
    assert a4["tuned"].macro_f1 >= a4["fixed(0.5)"].macro_f1 - 0.05


def test_a4_top_k_is_competitive_at_the_mean_tags_per_document(a4):
    assert a4["top-2"].micro_f1 >= max(
        a4["top-1"].micro_f1, a4["top-3"].micro_f1
    )
    assert a4["top-2"].micro_f1 >= a4["fixed(0.5)"].micro_f1 - 0.05


# -- A5: document preprocessing (paper §2) -------------------------------------


@pytest.fixture(scope="module")
def a5(standard_corpus):
    """weighting -> micro-F1 of the local-only learner (no collaboration to
    smooth the preprocessing over), 10 peers, 25 % training split; and
    ``"popularity"``, the content-blind tagger on the same split."""
    corpus = standard_corpus(num_users=10, docs_per_user=36)
    train, test = per_user_split(corpus, 0.25, seed=0)
    tags = corpus.tag_universe()
    held_out = test.documents[:60]
    rows = {}
    for weighting, tagger, options in (
        ("tf", LocalOnlyTagger, {}),
        ("sublinear", LocalOnlyTagger, {"sublinear_tf": True}),
        ("tfidf", LocalOnlyTagger, {}),
        ("no-stopwords", LocalOnlyTagger, {"use_stop_words": False}),
        ("popularity", PopularityTagger, {}),
    ):
        pipelines = {
            owner: PreprocessingPipeline(dimension=2 ** 16, **options)
            for owner in train.owners
        }
        if weighting == "tfidf":  # fitted per peer, on its own documents
            for owner, pipeline in pipelines.items():
                pipeline.fit_tfidf([d.text for d in train.documents_of(owner)])
        peer_data = {
            owner: [
                TaggedVector(pipelines[owner].process(d.text), d.tags)
                for d in train.documents_of(owner)
            ]
            for owner in train.owners
        }
        classifier = tagger(bare_scenario(10), peer_data, tags)
        classifier.train()
        rows[weighting] = micro_f1(
            [d.tags for d in held_out],
            [classifier.predict_tags(
                d.owner, pipelines[d.owner].process(d.text))
             for d in held_out],
            tags,
        )
    return rows


def test_a5_every_weighting_beats_the_popularity_floor(a5):
    weightings = set(a5) - {"popularity"}
    assert all(a5[name] > a5["popularity"] for name in weightings), a5


def test_a5_tfidf_and_tf_are_close_on_topic_text(a5):
    assert abs(a5["tfidf"] - a5["tf"]) < 0.25
