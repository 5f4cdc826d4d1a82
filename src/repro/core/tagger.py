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

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

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
    corpus_to_peer_data,
)
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.text.vectorizer import PreprocessingPipeline

ALGORITHMS = ("pace", "cempar", "nbagg", "centralized", "local", "popularity")


@dataclass
class SystemConfig:
    """Top-level system configuration."""

    algorithm: str = "pace"
    overlay: str = "chord"
    churn: str = "none"
    codec: str = "identity"  # wire-format codec table (repro.sim.codec)
    #: event-kernel shards (repro.sim.shard): 0 = single-heap kernel; K >= 1
    #: additionally replays training through the K-shard kernel and verifies
    #: the merged observables are byte-identical to the local run.
    shards: int = 0
    #: sharded executor ("serial", "mp", or "tcp"), used when shards >= 1
    executor: str = "serial"
    #: tcp executor worker placement spec (see
    #: repro.sim.tcpexec.parse_hosts); None = spawn local workers
    tcp_hosts: Optional[str] = None
    #: sharded control plane ("replicated" or "directory"): "directory"
    #: serves overlay snapshots + per-window deltas from one authoritative
    #: control plane so per-worker cost is O(N/K)
    control_plane: str = "replicated"
    #: simulation WAL (repro.sim.wal): checkpoint the sharded training
    #: replay's window stream to this path / resume from this log via
    #: verified prefix replay; used when shards >= 1
    wal: Optional[str] = None
    resume: Optional[str] = None
    #: seeded fault-injection schedule (repro.sim.faults) for the tcp
    #: sharded replay's self-healing fleet; requires executor="tcp" and,
    #: for in-run recovery rather than a loud abort, a wal path
    faults: Optional[str] = None
    mean_session: float = 600.0
    mean_downtime: float = 60.0
    train_fraction: float = 0.2  # the paper's 20 % manual-tag protocol
    threshold: float = 0.5
    feature_dimension: int = 2 ** 18
    min_tag_support: int = 2
    seed: int = 0
    algorithm_options: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError("train_fraction must be in (0, 1)")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError("threshold must be in [0, 1]")
        # The sharded-execution fields are ScenarioConfig's to judge: check
        # them on the config the sharded replay would run.
        self._sharded_config(
            ScenarioConfig(rng_mode="perpeer", jitter_floor=0.5)
        ).validate()

    def _sharded_config(self, base: ScenarioConfig) -> ScenarioConfig:
        """``base`` with this config's sharded-execution fields applied —
        the scenario the sharded training replay runs."""
        return replace(
            base,
            shards=self.shards,
            executor=self.executor,
            control_plane=self.control_plane,
            wal=self.wal,
            resume=self.resume,
            faults=self.faults,
            tcp_hosts=self.tcp_hosts,
        )


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


def build_classifier(
    algorithm: str,
    scenario: Scenario,
    peer_data: PeerData,
    tags,
    seed: int,
    options: dict,
) -> P2PTagClassifier:
    """Construct one algorithm's classifier over a scenario.

    Module-level (rather than a system method) so sharded-training
    workloads — which must pickle to mp/tcp shard workers — can carry
    everything a worker needs without referencing the (unpicklable)
    system object.
    """
    if algorithm == "pace":
        from repro.p2pclass.pace import PaceClassifier, PaceConfig

        config = PaceConfig(seed=seed, **options)
        return PaceClassifier(scenario, peer_data, tags, config)
    if algorithm == "cempar":
        from repro.p2pclass.cempar import CemparClassifier, CemparConfig

        config = CemparConfig(seed=seed, **options)
        return CemparClassifier(scenario, peer_data, tags, config)
    if algorithm == "nbagg":
        from repro.p2pclass.nbagg import NBAggClassifier, NBAggConfig

        config = NBAggConfig(seed=seed, **options)
        return NBAggClassifier(scenario, peer_data, tags, config)
    if algorithm == "centralized":
        from repro.baselines.centralized import (
            CentralizedConfig,
            CentralizedTagger,
        )

        config = CentralizedConfig(seed=seed, **options)
        return CentralizedTagger(scenario, peer_data, tags, config)
    if algorithm == "local":
        from repro.baselines.localonly import LocalOnlyConfig, LocalOnlyTagger

        config = LocalOnlyConfig(seed=seed, **options)
        return LocalOnlyTagger(scenario, peer_data, tags, config)
    from repro.baselines.popularity import PopularityTagger

    return PopularityTagger(scenario, peer_data, tags)


class _ShardedTrainingWorkload:
    """The SPMD training workload for sharded verification runs.

    A plain data class (not a closure over the system) so it pickles into
    mp/tcp shard workers; ``__call__`` rebuilds the classifier against the
    worker's shard-local scenario and trains it frame-native.
    """

    def __init__(
        self, churn: str, peer_data: PeerData, algorithm: str, tags,
        options: dict, seed: int,
    ) -> None:
        self.churn = churn
        self.peer_data = peer_data
        self.algorithm = algorithm
        self.tags = tags
        self.options = options
        self.seed = seed

    def __call__(self, scenario: Scenario) -> None:
        if self.churn != "none":
            scenario.start_churn()
        classifier = build_classifier(
            self.algorithm, scenario, self.peer_data, self.tags,
            self.seed, self.options,
        )
        classifier.train()


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
        # With kernel sharding requested, the local system runs the same
        # decomposed-randomness scenario the shard workers will replay, so
        # the two executions are comparable byte-for-byte (the local run
        # stays the unsharded reference: shards=0 here).
        self._scenario_config = ScenarioConfig(
            num_peers=num_peers,
            overlay=self.config.overlay,
            churn=self.config.churn,
            codec=self.config.codec,
            mean_session=self.config.mean_session,
            mean_downtime=self.config.mean_downtime,
            shard=ShardSpec(num_peers=num_peers, seed=self.config.seed),
            rng_mode="perpeer" if self.config.shards >= 1 else "stream",
            jitter_floor=0.5 if self.config.shards >= 1 else 0.0,
            seed=self.config.seed,
        )
        self.scenario = Scenario(self._scenario_config)
        #: populated by train() when config.shards >= 1: the merged
        #: ShardedRun whose digest was verified against the local kernel
        self.sharded_run = None

        self.train_corpus, self.test_corpus = per_user_split(
            self.corpus, self.config.train_fraction, seed=self.config.seed
        )
        self._vector_cache: Dict[int, SparseVector] = {}
        self._peer_data = self._build_peer_data(self.train_corpus)
        self.classifier = self._build_classifier(self._peer_data)
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

    def _build_classifier(
        self, peer_data: PeerData, scenario: Optional[Scenario] = None
    ) -> P2PTagClassifier:
        scenario = scenario if scenario is not None else self.scenario
        return build_classifier(
            self.config.algorithm,
            scenario,
            peer_data,
            self.corpus.tag_universe(),
            self.config.seed,
            dict(self.config.algorithm_options),
        )

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
        """Run collaborative learning (optionally under churn).

        With ``config.shards >= 1`` the same training additionally replays
        through the K-shard event kernel (:mod:`repro.sim.shard`) and the
        merged shard observables are verified byte-identical to the local
        kernel — every ``--shards`` run is a live proof of the sharding
        equivalence theorem.  Predictions serve from the (provably
        identical) local replica, which holds the complete model state.
        """
        if self.config.churn != "none":
            self.scenario.start_churn()
        self.classifier.train()
        if self.config.shards >= 1:
            self.sharded_run = self._verify_sharded_training()

    def _verify_sharded_training(self):
        from repro.errors import SimulationError
        from repro.sim.shard import ShardedScenario, scenario_digest

        sharded_config = self.config._sharded_config(self._scenario_config)
        workload = _ShardedTrainingWorkload(
            self.config.churn,
            self._peer_data,
            self.config.algorithm,
            self.corpus.tag_universe(),
            dict(self.config.algorithm_options),
            self.config.seed,
        )
        run = ShardedScenario(
            sharded_config, executor=self.config.executor
        ).run(workload)
        local_digest = scenario_digest(
            self.scenario.stats, self.scenario.simulator.now
        )
        if run.digest() != local_digest:
            raise SimulationError(
                f"sharded training (K={run.shards}, {run.executor}) "
                "diverged from the local kernel: "
                f"{run.digest()[:16]}… != {local_digest[:16]}…"
            )
        return run

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
