"""Shared machinery for P2P tag classifiers.

The paper reduces multi-label tagging to one-vs-all binary problems: "for
each c in Y, we learn a function f_c : X -> Y_c, where the output indicates
whether or not the tag is assigned".  :func:`binary_problems` performs that
decomposition on a peer's local data; :class:`P2PTagClassifier` is the
pluggable interface P2PDocTagger trains and queries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.constraints import check_value, finite, positive
from repro.core.multilabel import FixedThreshold
from repro.data.corpus import Corpus
from repro.errors import ConfigurationError, NotTrainedError
from repro.ml.sparse import SparseVector
from repro.sim.node import SimNode
from repro.sim.scenario import Scenario
from repro.text.vectorizer import PreprocessingPipeline


@dataclass(frozen=True)
class TaggedVector:
    """A preprocessed document: sparse vector + its tag set."""

    vector: SparseVector
    tags: FrozenSet[str]

    def wire_size(self) -> int:
        return self.vector.wire_size() + sum(len(t) for t in self.tags) + 2


PeerData = Dict[int, List[TaggedVector]]


def corpus_to_peer_data(
    corpus: Corpus, pipeline: Optional[PreprocessingPipeline] = None
) -> PeerData:
    """Vectorize a corpus into per-peer training data.

    Every peer runs the same deterministic pipeline locally (hashed feature
    ids need no coordination), mirroring the paper's preprocessing stage.
    """
    pipeline = pipeline or PreprocessingPipeline()
    peer_data: PeerData = {}
    for owner in corpus.owners:
        items = [
            TaggedVector(vector=pipeline.process(d.text), tags=d.tags)
            for d in corpus.documents_of(owner)
        ]
        peer_data[owner] = items
    return peer_data


def binary_problems(
    items: Sequence[TaggedVector],
    tags: Iterable[str],
    max_negative_ratio: float,
    rng: np.random.Generator,
) -> Dict[str, Tuple[List[SparseVector], List[int]]]:
    """One-vs-all decomposition of a local dataset.

    For each tag with at least one local positive, returns (vectors, ±1
    labels) where positives are documents carrying the tag and negatives are
    sampled from the rest (capped at ``max_negative_ratio`` x positives to
    keep the per-tag problems balanced, as one-against-all SVM practice
    dictates).  Tags without local positives are skipped — that peer simply
    contributes nothing for them.
    """
    check_value("max_negative_ratio", max_negative_ratio, finite, positive)
    problems: Dict[str, Tuple[List[SparseVector], List[int]]] = {}
    for tag in tags:
        positives = [item.vector for item in items if tag in item.tags]
        if not positives:
            continue
        negatives = [item.vector for item in items if tag not in item.tags]
        cap = int(round(max_negative_ratio * len(positives)))
        if cap and len(negatives) > cap:
            chosen = rng.choice(len(negatives), size=cap, replace=False)
            negatives = [negatives[int(i)] for i in chosen]
        vectors = positives + negatives
        labels = [1] * len(positives) + [-1] * len(negatives)
        problems[tag] = (vectors, labels)
    return problems


def collect_tag_universe(peer_data: PeerData) -> List[str]:
    """All tags observed across peers, sorted for determinism."""
    tags = set()
    for items in peer_data.values():
        for item in items:
            tags |= item.tags
    return sorted(tags)


class P2PTagClassifier(ABC):
    """Interface of the pluggable P2P classification component.

    Subclasses train over a :class:`~repro.sim.scenario.Scenario` (which
    supplies the overlay, physical network and stats sink) and per-peer local
    data, then answer per-tag scores for untagged document vectors.
    """

    #: message-type prefix used in traffic accounting
    traffic_prefix: str = "p2p"

    #: True when the classifier can fold new examples in without a full
    #: retrain (see :meth:`incremental_update`)
    supports_incremental: bool = False

    def __init__(
        self,
        scenario: Scenario,
        peer_data: PeerData,
        tags: Optional[Sequence[str]] = None,
    ) -> None:
        if not peer_data:
            raise ConfigurationError("peer_data must not be empty")
        unknown = set(peer_data) - set(scenario.peer_addresses)
        if unknown:
            raise ConfigurationError(
                f"peer_data contains addresses outside the scenario: {unknown}"
            )
        self.scenario = scenario
        self.peer_data = peer_data
        self.tags: List[str] = (
            sorted(tags) if tags is not None else collect_tag_universe(peer_data)
        )
        if not self.tags:
            raise ConfigurationError("no tags to learn")
        self._trained = False
        #: the one sanctioned path to the wire — protocols must not talk to
        #: the PhysicalNetwork directly (uniform charging and batching).
        self.transport = scenario.transport
        # Register every peer on the physical network so traffic flows.
        # Materialization is ownership-gated: on a shard worker only owned
        # peers build a SimNode (the O(N/K) construction contract); remote
        # peers register as directory-served endpoints so liveness checks
        # still answer globally.  On the flat kernel the gate is
        # constant-open and all N peers materialize.
        self.nodes: Dict[int, SimNode] = {}
        for address in scenario.peer_addresses:
            node = scenario.materialize_peer(address)
            if node is not None:
                self.nodes[address] = node

    # -- lifecycle --------------------------------------------------------

    @abstractmethod
    def train(self) -> None:
        """Build the global model(s) collaboratively; sets ``trained``."""

    @property
    def trained(self) -> bool:
        return self._trained

    def incremental_update(
        self, owner: int, items: Sequence[TaggedVector]
    ) -> None:
        """Fold new labeled examples from ``owner`` into the global model.

        Only meaningful when :attr:`supports_incremental` is True; the base
        implementation refuses so callers fall back to a full retrain.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental updates"
        )

    def _require_trained(self) -> None:
        if not self._trained:
            raise NotTrainedError(f"{type(self).__name__} is not trained")

    # -- prediction ---------------------------------------------------------

    @abstractmethod
    def predict_scores(self, origin: int, vector: SparseVector) -> Dict[str, float]:
        """Per-tag assignment scores in [0, 1], queried from peer ``origin``."""

    def predict_tags(
        self, origin: int, vector: SparseVector, threshold: float = 0.5
    ) -> FrozenSet[str]:
        """Tags whose score clears ``threshold``, never none (the auto-tag
        operation: :class:`~repro.core.multilabel.FixedThreshold`)."""
        self._require_trained()
        return FixedThreshold(threshold).assign(
            self.predict_scores(origin, vector)
        )

    def rank_tags(
        self, origin: int, vector: SparseVector
    ) -> List[Tuple[str, float]]:
        """Tags sorted by descending score (the Suggest-Tag operation)."""
        self._require_trained()
        scores = self.predict_scores(origin, vector)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))

    # -- helpers ---------------------------------------------------------------

    def _run_staggered_round(
        self,
        participants: Sequence[int],
        scale: float,
        rng: np.random.Generator,
        action: Callable[[int], None],
    ) -> None:
        """Run one training round: ``action(address)`` once per participant
        at staggered virtual times, so churn interleaves with the protocol.

        Activation gaps are exponential(``scale``) inter-arrivals drawn as
        one vectorized block up front (numpy array fills consume the RNG
        stream exactly as per-participant scalar draws would), accumulated
        into absolute activation times, and bulk-scheduled through the
        kernel's :meth:`~repro.sim.engine.Simulator.schedule_batch_at` —
        one kernel run interleaves every peer's activations with churn,
        stabilization, and in-flight deliveries, instead of serializing
        the round through per-peer ``run(until=...)`` calls.  That
        sequential loop lives on as the test oracle
        (``tests/reference/rounds.py``): both accumulate the same gaps in
        the same float order, so activation instants are bit-identical.
        """
        if not participants:
            return
        simulator = self.scenario.simulator
        gaps = rng.exponential(scale, size=len(participants))
        times: List[float] = []
        t = simulator.now
        for gap in gaps.tolist():
            t += gap
            times.append(t)
        # In a sharded worker, each activation is scheduled only on the
        # peer's owning shard (protocol work partitions across workers);
        # every worker still advances through the whole round window so the
        # SPMD orchestration stays in lockstep.  On the single-heap kernel
        # `owns` is constant True and this is the full batch.
        owns = self.scenario.owns
        owned_times: List[float] = []
        owned_args: List[tuple] = []
        for time, address in zip(times, participants):
            if owns(address):
                owned_times.append(time)
                owned_args.append((address,))
        simulator.schedule_batch_at(owned_times, action, owned_args)
        simulator.run(until=times[-1])

    def _flush_network(self, settle_time: float = 5.0) -> None:
        """Let queued deliveries complete (advances virtual time).

        With churn active the event queue never drains (leave/rejoin events
        reschedule forever), so we advance a bounded settle window instead —
        long enough for any in-flight message at the configured latency.
        """
        if self.scenario.churn_model.churns:
            self.transport.flush(settle_time)
        else:
            self.transport.flush()
