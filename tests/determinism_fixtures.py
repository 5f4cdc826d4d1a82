"""Shared machinery for the determinism suites.

One tiny fixed-seed corpus, one scenario builder per environment variant,
and one classifier factory per protocol — used by both the golden
fingerprint suite (``tests/test_golden_determinism.py``) and the
batch/scalar equivalence property tests (``tests/test_scheduled_rounds.py``),
plus the log and frame tools the WAL and exchange suites share.

Everything here must stay deterministic across interpreter versions and
platforms: all ids flow through blake2 hashes, all randomness through
seeded numpy Generators, and the training runs only consume observables
that serialize to exact integers (message counts, bytes, hops, counters).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from repro.baselines.centralized import CentralizedTagger
from repro.baselines.localonly import LocalOnlyTagger
from repro.baselines.popularity import PopularityTagger
from repro.data.delicious import DeliciousGenerator
from repro.errors import ConfigurationError
from repro.p2pclass.base import P2PTagClassifier, corpus_to_peer_data
from repro.p2pclass.cempar import CemparClassifier, CemparConfig
from repro.p2pclass.nbagg import NBAggClassifier
from repro.p2pclass.pace import PaceClassifier
from repro.p2pclass.private import PrivatePaceClassifier
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.wal import WalReader
from repro.text.vectorizer import PreprocessingPipeline

NUM_PEERS = 5

#: every registered overlay participates in the determinism matrix
OVERLAYS = ("chord", "kademlia", "pastry", "unstructured", "fullmesh", "superpeer")

#: all seven training protocols
PROTOCOLS = ("pace", "private", "cempar", "nbagg", "centralized", "local", "popularity")

#: environment variants: static network, leave/rejoin churn, message loss
VARIANTS = ("none", "churn", "loss")

#: the nightly large-N tier (REPRO_LARGE_GOLDEN=1): a subset of the matrix
#: replayed at 100 peers, where heap-order bugs actually surface.  Loss is
#: excluded (the drop/jitter RNG interleaving is already pinned at N=5 and
#: the lossy large runs triple the tier's wall-clock for no new coverage).
LARGE_NUM_PEERS = 100
LARGE_OVERLAYS = ("chord", "superpeer")
LARGE_PROTOCOLS = ("pace", "cempar", "nbagg")
LARGE_VARIANTS = ("none", "churn")

#: the sharded golden tier: training replayed through the sharded event
#: kernel (repro.sim.shard) at K shards, serial executor.  The digests must
#: be identical across K *and* to the unsharded kernel running the same
#: per-peer-randomness scenario — the file itself witnesses K-invariance.
SHARDED_OVERLAYS = ("chord", "superpeer")
SHARDED_PROTOCOLS = ("pace", "nbagg", "centralized")
SHARDED_VARIANTS = ("none", "churn")
SHARDED_COUNTS = (2, 4)

#: jitter clamp used by every sharded / per-peer-randomness fixture: bounds
#: the minimum cross-shard latency, i.e. the conservative lookahead window.
SHARD_JITTER_FLOOR = 0.5


def _build_peer_data():
    corpus = DeliciousGenerator(
        num_users=NUM_PEERS,
        seed=7,
        num_tags=4,
        docs_per_user_range=(6, 8),
        vocabulary_size=200,
        topic_words_per_tag=20,
        doc_length_range=(15, 25),
    ).generate()
    pipeline = PreprocessingPipeline(dimension=2 ** 16)
    return corpus_to_peer_data(corpus, pipeline), sorted(corpus.tag_universe())


_PEER_DATA, _TAGS = _build_peer_data()


@lru_cache(maxsize=1)
def _build_large_peer_data():
    """The 100-peer fixture corpus, built lazily: only the nightly tier
    (and its regeneration script) pays for vectorizing it."""
    corpus = DeliciousGenerator(
        num_users=LARGE_NUM_PEERS,
        seed=7,
        num_tags=4,
        docs_per_user_range=(2, 3),
        vocabulary_size=150,
        topic_words_per_tag=18,
        doc_length_range=(10, 16),
    ).generate()
    pipeline = PreprocessingPipeline(dimension=2 ** 16)
    return corpus_to_peer_data(corpus, pipeline), sorted(corpus.tag_universe())


def build_scenario_config(
    overlay: str, variant: str, seed: int = 0, num_peers: int = NUM_PEERS,
    codec: str = "identity", rng_mode: str = "stream", shards: int = 0,
) -> ScenarioConfig:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return ScenarioConfig(
        num_peers=num_peers,
        overlay=overlay,
        churn="exponential" if variant == "churn" else "none",
        mean_session=40.0,
        mean_downtime=15.0,
        drop_probability=0.15 if variant == "loss" else 0.0,
        shard=ShardSpec(num_peers=num_peers),
        codec=codec,
        rng_mode=rng_mode,
        jitter_floor=SHARD_JITTER_FLOOR if rng_mode == "perpeer" else 0.0,
        shards=shards,
        seed=seed,
    )


def build_scenario(
    overlay: str, variant: str, seed: int = 0, num_peers: int = NUM_PEERS,
    codec: str = "identity", rng_mode: str = "stream",
) -> Scenario:
    scenario = Scenario(
        build_scenario_config(
            overlay, variant, seed=seed, num_peers=num_peers, codec=codec,
            rng_mode=rng_mode,
        )
    )
    if variant == "churn":
        scenario.start_churn()
    return scenario


def build_classifier(
    protocol: str,
    scenario: Scenario,
    peer_data=None,
    tags=None,
) -> P2PTagClassifier:
    peer_data = peer_data if peer_data is not None else _PEER_DATA
    tags = tags if tags is not None else _TAGS
    if protocol == "pace":
        return PaceClassifier(scenario, peer_data, tags)
    if protocol == "private":
        return PrivatePaceClassifier(scenario, peer_data, tags)
    if protocol == "cempar":
        return CemparClassifier(
            scenario, peer_data, tags, CemparConfig(num_regions=1)
        )
    if protocol == "nbagg":
        return NBAggClassifier(scenario, peer_data, tags)
    if protocol == "centralized":
        return CentralizedTagger(scenario, peer_data, tags)
    if protocol == "local":
        return LocalOnlyTagger(scenario, peer_data, tags)
    if protocol == "popularity":
        return PopularityTagger(scenario, peer_data, tags)
    raise ValueError(f"unknown protocol {protocol!r}")


def run_training(
    protocol: str,
    overlay: str,
    variant: str,
    scalar: bool = False,
    codec: str = "identity",
) -> Tuple[Scenario, P2PTagClassifier]:
    """Train one (protocol, overlay, variant) combo; returns the scenario
    (stats + clock) and the trained classifier.

    ``scalar=True`` installs both reference drivers (``tests/reference``:
    the sequential stagger loop and the message-per-recipient broadcast),
    which must produce byte-identical stats to the scheduled-batch /
    vectorized production paths.
    ``codec`` selects the transport's wire-format codec table (the identity
    default reproduces the pre-codec stack byte-for-byte).
    """
    scenario = build_scenario(overlay, variant, codec=codec)
    classifier = build_classifier(protocol, scenario)
    if scalar:
        from reference import (
            install_per_message_broadcast,
            install_sequential_rounds,
        )

        install_sequential_rounds(classifier)
        install_per_message_broadcast(classifier.transport)
    classifier.train()
    return scenario, classifier


def run_training_large(
    protocol: str, overlay: str, variant: str
) -> Tuple[Scenario, P2PTagClassifier]:
    """Train one combo of the nightly large-N tier at 100 peers."""
    peer_data, tags = _build_large_peer_data()
    scenario = build_scenario(overlay, variant, num_peers=LARGE_NUM_PEERS)
    classifier = build_classifier(protocol, scenario, peer_data, tags)
    classifier.train()
    return scenario, classifier


# ---------------------------------------------------------------------------
# Sharded-kernel fixtures: the same training runs through repro.sim.shard,
# plus the unsharded per-peer-randomness reference they must match.
# ---------------------------------------------------------------------------


def digest_of(stats, now: float) -> str:
    """Digest of one run: stats fingerprint + final virtual clock (the
    golden recipe, shared by sharded and unsharded runs)."""
    from repro.sim.shard import scenario_digest

    return scenario_digest(stats, now)


class TrainingWorkload:
    """SPMD workload: build and train one classifier on a (shard) scenario.

    Runs identically in every shard worker and on the unsharded kernel —
    the differential suites compare the resulting digests.  A class (not a
    closure) so the tcp executor can pickle it into worker processes.
    """

    def __init__(self, protocol: str, variant: str, codec: str = "identity"):
        self.protocol = protocol
        self.variant = variant
        self.codec = codec

    def __call__(self, scenario: Scenario):
        if self.variant == "churn":
            scenario.start_churn()
        classifier = build_classifier(self.protocol, scenario)
        classifier.train()
        return None


def training_workload(protocol: str, variant: str, codec: str = "identity"):
    """Picklable SPMD training workload (see :class:`TrainingWorkload`)."""
    return TrainingWorkload(protocol, variant, codec)


def run_training_perpeer(
    protocol: str, overlay: str, variant: str, codec: str = "identity",
    num_peers: int = NUM_PEERS,
) -> Tuple[object, float]:
    """The unsharded reference: the single-heap kernel running the
    per-peer-randomness scenario.  Returns (stats, final clock)."""
    config = build_scenario_config(
        overlay, variant, num_peers=num_peers, codec=codec,
        rng_mode="perpeer",
    )
    scenario = Scenario(config)
    training_workload(protocol, variant, codec)(scenario)
    return scenario.stats, scenario.simulator.now


def run_training_sharded(
    protocol: str, overlay: str, variant: str, shards: int,
    executor: str = "serial", codec: str = "identity",
    num_peers: int = NUM_PEERS,
    wal: str = None, resume: str = None,
):
    """Train one combo through the K-shard kernel; returns the
    :class:`repro.sim.shard.ShardedRun` (merged stats + agreed clock)."""
    from dataclasses import replace

    from repro.sim.shard import ShardedScenario

    config = build_scenario_config(
        overlay, variant, num_peers=num_peers, codec=codec,
        rng_mode="perpeer", shards=shards,
    )
    if wal or resume:
        config = replace(config, wal=wal, resume=resume)
    return ShardedScenario(config, executor=executor).run(
        training_workload(protocol, variant, codec)
    )


# ---------------------------------------------------------------------------
# Log and frame tools: a crashed run's WAL prefix, a frame as record tuples.
# ---------------------------------------------------------------------------


def truncate_wal(
    path: str, keep_windows: int, out_path: Optional[str] = None
) -> str:
    """Copy (or rewrite in place) a WAL keeping only the first
    ``keep_windows`` window records — the crash-at-window-W simulator used
    by the resume fuzz harness."""
    reader = WalReader(path)
    if keep_windows > len(reader.windows):
        raise ConfigurationError(
            f"cannot keep {keep_windows} windows: {path} holds only "
            f"{len(reader.windows)}"
        )
    end = (
        reader.header_end if keep_windows == 0
        else reader.window_offsets[keep_windows - 1]
    )
    with open(path, "rb") as fh:
        data = fh.read(end)
    target = out_path or path
    with open(target, "wb") as fh:
        fh.write(data)
    return target


def frame_records(frame) -> list:
    """An :class:`~repro.sim.exchange.ExchangeFrame` back as ``ExchangeRecord``
    tuples, in frame order."""
    payloads = frame.payloads or [None] * frame.count
    return [
        (
            deliver, frame.src_shard, seq, src, dst,
            frame.type_table[type_id], payload, size, wire, hops,
        )
        for deliver, seq, src, dst, type_id, payload, size, wire, hops
        in zip(
            frame.deliver_time.tolist(), frame.seq.tolist(),
            frame.src.tolist(), frame.dst.tolist(),
            frame.type_ids.tolist(), payloads,
            frame.size_bytes.tolist(), frame.wire_bytes.tolist(),
            frame.hops.tolist(),
        )
    ]
