"""P2PDocTagger — peers and the system facade (paper Fig. 1).

:class:`P2PDocTaggerSystem` wires every component together: the corpus is
split per user (20 % manually tagged, per §3), documents are preprocessed
into sparse vectors, a pluggable P2P classifier learns collaboratively over
the simulated network, and each peer exposes the user-facing operations —
manual tagging, AutoTag, Suggest Tag, refinement, Library and Tag Cloud.

This facade is what the CLI, the examples, the claim tests
(``tests/test_claims.py``) and the tag workloads of ``benchmarks/perf``
drive.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.constraints import (
    at_least, check, check_value, finite, in_range, integer, one_of, positive,
    setting,
)
from repro.core.library import Library
from repro.core.metadata import TagMetadataStore, TagSource
from repro.core.multilabel import FixedThreshold, ThresholdPolicy
from repro.core.refinement import Refinement, RefinementLoop
from repro.core.suggestions import Suggestion, SuggestionEngine
from repro.core.tagcloud import TagCloud
from repro.data.corpus import Corpus, Document
from repro.data.splits import per_user_split
from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.metrics import MultiLabelReport
from repro.ml.sparse import SparseVector
from repro.p2pclass.base import (
    P2PTagClassifier,
    PeerData,
    TaggedVector,
)
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.text.vectorizer import PreprocessingPipeline

ALGORITHMS = ("pace", "cempar", "nbagg", "centralized", "local", "popularity")


@dataclass
class SystemConfig:
    """Top-level system configuration."""

    algorithm: str = setting("pace", one_of(ALGORITHMS))
    overlay: str = "chord"
    churn: str = "none"
    codec: str = "identity"  # wire-format codec table (repro.sim.codec)
    mean_session: float = setting(600.0, finite, positive)
    mean_downtime: float = setting(60.0, finite, at_least(0))
    #: the paper's 20 % manual-tag protocol; 1.0 is refused by the split
    train_fraction: float = setting(0.2, positive, in_range(0, 1))
    threshold: float = setting(0.5, in_range(0, 1))
    feature_dimension: int = setting(2 ** 18, integer, at_least(1))
    min_tag_support: int = setting(2, integer, at_least(1))
    seed: int = setting(0, integer, at_least(0))
    algorithm_options: dict = field(default_factory=dict)

    def validate(self) -> None:
        check(self)
        _options_are_the_algorithms_settings(self)


@dataclass
class EvaluationReport:
    """Outcome of one evaluation run: accuracy + communication cost."""

    algorithm: str
    metrics: MultiLabelReport
    total_messages: int
    total_bytes: int
    max_peer_sent_bytes: int
    max_peer_received_bytes: int
    virtual_time: float

    def summary(self) -> str:
        return (
            f"[{self.algorithm}] {self.metrics.summary()} | "
            f"msgs={self.total_messages} bytes={self.total_bytes} "
            f"maxTx={self.max_peer_sent_bytes} maxRx={self.max_peer_received_bytes} "
            f"t={self.virtual_time:.1f}s"
        )


def _algorithm_classes(algorithm: str):
    """``algorithm``'s classifier class and its settings dataclass (None for
    popularity, which has no settings)."""
    from repro.baselines import centralized, localonly, popularity
    from repro.p2pclass import cempar, nbagg, pace

    return {
        "pace": (pace.PaceClassifier, pace.PaceConfig),
        "cempar": (cempar.CemparClassifier, cempar.CemparConfig),
        "nbagg": (nbagg.NBAggClassifier, nbagg.NBAggConfig),
        "centralized": (centralized.CentralizedTagger, centralized.CentralizedConfig),
        "local": (localonly.LocalOnlyTagger, localonly.LocalOnlyConfig),
        "popularity": (popularity.PopularityTagger, None),
    }[algorithm]


def _options_are_the_algorithms_settings(config: SystemConfig) -> None:
    """Each ``algorithm_options`` key names a field of the algorithm's
    settings dataclass; its ``seed`` is ``SystemConfig.seed``."""
    _, settings = _algorithm_classes(config.algorithm)
    names = {f.name for f in dataclasses.fields(settings)} if settings else set()
    for key in config.algorithm_options:
        if key == "seed" or key not in names:
            raise ConfigurationError(
                f"algorithm_options key {key!r} is not a setting of algorithm "
                f"{config.algorithm!r}"
                + (" (set SystemConfig.seed)" if key == "seed" else "")
            )


def build_classifier(
    algorithm: str,
    scenario: Scenario,
    peer_data: PeerData,
    tags,
    seed: int,
    options: dict,
) -> P2PTagClassifier:
    """Construct one algorithm's classifier over a scenario."""
    classifier, settings = _algorithm_classes(algorithm)
    if settings is None:
        return classifier(scenario, peer_data, tags)
    return classifier(scenario, peer_data, tags, settings(seed=seed, **options))


class P2PDocTaggerPeer:
    """One user's P2PDocTagger instance.

    Holds the user's documents and tag metadata, and exposes the operations
    of the demo GUI: manual tagging, AutoTag, Suggest Tag, refinement, and
    the Library / Tag Cloud views.
    """

    def __init__(self, owner: int, system: "P2PDocTaggerSystem") -> None:
        self.owner = owner
        self.system = system
        self.store = TagMetadataStore()
        self.library = Library(self.store)

    # -- tagging operations --------------------------------------------------

    def manual_tag(self, doc_id: int, tags: Sequence[str]) -> None:
        """User assigns tags by hand (the bootstrap phase of §2)."""
        if not tags:
            raise ConfigurationError("manual tagging needs at least one tag")
        for tag in tags:
            self.store.assign(doc_id, tag, TagSource.MANUAL)

    def auto_tag(self, document: Document) -> FrozenSet[str]:
        """AutoTag button: classify and persist tags with confidences."""
        scores = self.system.predict_scores(self.owner, document)
        assigned = self.system.policy.assign(scores)
        self.store.assign_many(
            document.doc_id,
            {tag: scores.get(tag, 0.0) for tag in assigned},
            source=TagSource.AUTO,
            assigned_at=self.system.scenario.simulator.now,
        )
        return assigned

    def suggest_tags(
        self, document: Document, confidence_threshold: float = 0.3
    ) -> List[Suggestion]:
        """Suggest-Tag button: Suggestion Cloud entries for one document."""
        vector = self.system.vector_of(document)
        return self.system.suggestions.suggest(
            self.owner, vector, confidence_threshold
        )

    def refine(self, document: Document, corrected_tags: Sequence[str]) -> bool:
        """User fixes a mistagged document; returns True if retrain fired."""
        corrected = frozenset(corrected_tags)
        if not corrected:
            raise ConfigurationError("a refinement must assign at least one tag")
        self.store.replace(
            document.doc_id,
            {tag: 1.0 for tag in corrected},
            source=TagSource.REFINED,
            assigned_at=self.system.scenario.simulator.now,
        )
        refinement = Refinement(
            doc_id=document.doc_id,
            owner=self.owner,
            vector=self.system.vector_of(document),
            corrected_tags=corrected,
        )
        return self.system.refinement.refine(refinement)

    def tag_cloud(self) -> TagCloud:
        """This peer's Tag Cloud over its tagged documents."""
        return TagCloud(
            self.store.tags_of(doc_id) for doc_id in self.store.documents()
        )


class P2PDocTaggerSystem:
    """The whole network of tagging peers plus the collaborative model."""

    def __init__(
        self,
        corpus: Corpus,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.config.validate()
        if len(corpus) == 0:
            raise ConfigurationError("corpus must not be empty")

        self.corpus = corpus.restrict_to_min_tag_support(
            self.config.min_tag_support
        )
        if not self.corpus.tag_universe():
            raise ConfigurationError(
                "no tags survive min_tag_support; lower it or enlarge the corpus"
            )
        self.pipeline = PreprocessingPipeline(
            dimension=self.config.feature_dimension
        )
        self.policy: ThresholdPolicy = FixedThreshold(self.config.threshold)

        owners = self.corpus.owners
        self._owner_to_peer = {owner: index for index, owner in enumerate(owners)}
        num_peers = len(owners)
        self.scenario = Scenario(
            ScenarioConfig(
                num_peers=num_peers,
                overlay=self.config.overlay,
                churn=self.config.churn,
                codec=self.config.codec,
                mean_session=self.config.mean_session,
                mean_downtime=self.config.mean_downtime,
                shard=ShardSpec(num_peers=num_peers, seed=self.config.seed),
                seed=self.config.seed,
            )
        )

        self.train_corpus, self.test_corpus = per_user_split(
            self.corpus, self.config.train_fraction, seed=self.config.seed
        )
        self._vector_cache: Dict[int, SparseVector] = {}
        self.classifier = build_classifier(
            self.config.algorithm,
            self.scenario,
            self._build_peer_data(self.train_corpus),
            self.corpus.tag_universe(),
            self.config.seed,
            self.config.algorithm_options,
        )
        self.suggestions = SuggestionEngine(self.classifier)

        self.peers: Dict[int, P2PDocTaggerPeer] = {
            self._owner_to_peer[owner]: P2PDocTaggerPeer(
                self._owner_to_peer[owner], self
            )
            for owner in owners
        }
        self.refinement = RefinementLoop(
            self.classifier, TagMetadataStore(), retrain_every=10
        )
        self._register_manual_tags()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_corpus(
        cls, corpus: Corpus, algorithm: str = "pace", seed: int = 0, **overrides
    ) -> "P2PDocTaggerSystem":
        """Convenience constructor used throughout the examples."""
        config = SystemConfig(algorithm=algorithm, seed=seed, **overrides)
        return cls(corpus, config)

    def _build_peer_data(self, train: Corpus) -> PeerData:
        remapped: PeerData = {}
        for owner in train.owners:
            address = self._owner_to_peer[owner]
            items = []
            for document in train.documents_of(owner):
                vector = self.vector_of(document)
                items.append(TaggedVector(vector=vector, tags=document.tags))
            remapped[address] = items
        return remapped

    def _register_manual_tags(self) -> None:
        """Training documents appear as manually tagged in each peer's store."""
        for owner in self.train_corpus.owners:
            peer = self.peers[self._owner_to_peer[owner]]
            for document in self.train_corpus.documents_of(owner):
                for tag in document.tags:
                    peer.store.assign(document.doc_id, tag, TagSource.MANUAL)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def vector_of(self, document: Document) -> SparseVector:
        cached = self._vector_cache.get(document.doc_id)
        if cached is None:
            cached = self.pipeline.process(document.text)
            self._vector_cache[document.doc_id] = cached
        return cached

    def peer_of(self, document: Document) -> P2PDocTaggerPeer:
        address = self._owner_to_peer.get(document.owner)
        if address is None:
            raise ConfigurationError(
                f"document owner {document.owner} has no peer"
            )
        return self.peers[address]

    def train(self) -> None:
        """Run collaborative learning (optionally under churn)."""
        if self.config.churn != "none":
            self.scenario.start_churn()
        self.classifier.train()

    def predict_scores(
        self, origin: int, document: Document
    ) -> Dict[str, float]:
        return self.classifier.predict_scores(origin, self.vector_of(document))

    def auto_tag_all(self) -> Dict[int, FrozenSet[str]]:
        """AutoTag every test document from its owner's peer."""
        assignments: Dict[int, FrozenSet[str]] = {}
        for document in self.test_corpus:
            peer = self.peer_of(document)
            assignments[document.doc_id] = peer.auto_tag(document.untagged())
        return assignments

    def evaluate(self, max_documents: Optional[int] = None) -> EvaluationReport:
        """Auto-tag the held-out 80 % and score against the true tags."""
        if not self.classifier.trained:
            raise NotTrainedError("call train() before evaluate()")
        documents = self.test_corpus.documents
        if max_documents is not None:
            check_value("max_documents", max_documents, integer, at_least(0))
            documents = documents[:max_documents]
        true_sets: List[FrozenSet[str]] = []
        predicted: List[FrozenSet[str]] = []
        for document in documents:
            scores = self.predict_scores(
                self._owner_to_peer[document.owner], document
            )
            true_sets.append(document.tags)
            predicted.append(self.policy.assign(scores))
        metrics = MultiLabelReport.compute(
            true_sets, predicted, tags=self.corpus.tag_universe()
        )
        stats = self.scenario.stats
        return EvaluationReport(
            algorithm=self.config.algorithm,
            metrics=metrics,
            total_messages=stats.total_messages,
            total_bytes=stats.total_bytes,
            max_peer_sent_bytes=max(stats.per_peer_bytes.values(), default=0),
            max_peer_received_bytes=max(
                stats.per_peer_received.values(), default=0
            ),
            virtual_time=self.scenario.simulator.now,
        )

    def tune_thresholds(self) -> Dict[str, float]:
        """Replace the fixed threshold with per-tag F1-optimal thresholds.

        Thresholds are tuned on the *training* documents' scores (each peer
        already knows its own manual tags, so this needs no extra labels or
        communication beyond normal queries).  Returns the tuned map and
        installs a :class:`PerTagThreshold` policy.
        """
        if not self.classifier.trained:
            raise NotTrainedError("call train() before tune_thresholds()")
        from repro.core.multilabel import PerTagThreshold
        from repro.ml.evaluation import per_tag_thresholds

        score_maps: List[Dict[str, float]] = []
        true_sets: List[FrozenSet[str]] = []
        for document in self.train_corpus:
            origin = self._owner_to_peer[document.owner]
            score_maps.append(self.predict_scores(origin, document))
            true_sets.append(document.tags)
        thresholds = per_tag_thresholds(
            score_maps, true_sets, self.corpus.tag_universe()
        )
        self.policy = PerTagThreshold(thresholds, default=self.config.threshold)
        return thresholds

    def global_tag_cloud(self) -> TagCloud:
        """Tag cloud over every peer's tagged documents (Fig. 4)."""
        tag_sets: List[FrozenSet[str]] = []
        for peer in self.peers.values():
            tag_sets.extend(
                peer.store.tags_of(doc_id) for doc_id in peer.store.documents()
            )
        return TagCloud(tag_sets)
