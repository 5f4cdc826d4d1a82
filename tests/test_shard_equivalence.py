"""Differential fuzz suite for the sharded event kernel.

The sharding contract (see :mod:`repro.sim.shard`): for any scenario in the
decomposed-randomness mode, the K-shard serial executor produces a
**byte-identical** stats fingerprint + final clock to the unsharded
single-heap kernel, and the multiprocessing executor is byte-identical to
serial.  This suite samples ~50 randomized fixed-seed configurations across
every axis — overlay × protocol × churn/loss variant × codec × shard count —
and asserts both equalities.

The sample is drawn from a fixed seed so the matrix is stable across runs
(a failure always reproduces); widening the space only requires bumping
``FUZZ_CASES``.  The mp leg runs a deterministic subset in tier-1 (process
startup dominates its cost) and the whole matrix in the nightly job
(``REPRO_SHARD_MP_FULL=1``); the tcp leg (socket-connected worker fleets
over localhost, :mod:`repro.sim.tcpexec`) likewise runs a subset in tier-1
and its full matrix under ``REPRO_SHARD_TCP_FULL=1``, plus a golden smoke
against the checked-in sharded digests.

Also here: algebraic property tests for :meth:`StatsCollector.merge`
(commutativity / associativity / identity, including the wire-byte
counters), which is the operation the sharded executors rely on to fold
per-shard collectors into the global observables.
"""

import random
from functools import lru_cache

import pytest

from repro.sim.messages import Message
from repro.sim.stats import StatsCollector

from tests.determinism_fixtures import (
    OVERLAYS,
    PROTOCOLS,
    VARIANTS,
    digest_of,
    run_training_perpeer,
    run_training_sharded,
)
from tests.tier_flags import env_flag

FUZZ_CASES = 50
FUZZ_SEED = 0x5A4D
CODECS = ("identity", "tuned", "gzip-model")
SHARD_COUNTS = (1, 2, 3, 4)

#: the high-K leg: fewer combos (the main leg already pins the window
#: machinery), but shard counts reach past the peer population —
#: K ∈ {8, 16} > N = 5 exercises zero-owned-peer workers.
DIRECTORY_FUZZ_CASES = 18
DIRECTORY_SHARD_COUNTS = (1, 2, 4, 8, 16)

#: tier-1 runs this many mp-vs-serial cases; nightly runs the full matrix
MP_SUBSET = 6
DIRECTORY_MP_SUBSET = 3
MP_FULL_ENV = "REPRO_SHARD_MP_FULL"

#: the tcp-executor leg: localhost worker fleets over overlay × protocol ×
#: variant × codec × K ∈ {1, 2, 4}.  Worker startup is a
#: whole interpreter (not a fork), so tier-1 runs a small subset and the
#: nightly job the full matrix (``REPRO_SHARD_TCP_FULL=1``).
TCP_FUZZ_CASES = 12
TCP_SUBSET = 4
TCP_SHARD_COUNTS = (1, 2, 4)
TCP_FULL_ENV = "REPRO_SHARD_TCP_FULL"


def _sample_cases(count=FUZZ_CASES, shard_counts=SHARD_COUNTS, salt=0):
    """``count`` distinct fixed-seed combos over the full config space."""
    rng = random.Random(FUZZ_SEED + salt)
    seen = set()
    cases = []
    while len(cases) < count:
        case = (
            rng.choice(OVERLAYS),
            rng.choice(PROTOCOLS),
            rng.choice(VARIANTS),
            rng.choice(CODECS),
            rng.choice(shard_counts),
        )
        if case in seen:
            continue
        seen.add(case)
        cases.append(case)
    return cases


CASES = _sample_cases()
DIRECTORY_CASES = _sample_cases(
    count=DIRECTORY_FUZZ_CASES,
    shard_counts=DIRECTORY_SHARD_COUNTS,
    salt=0xD1,
)


def _case_id(case):
    overlay, protocol, variant, codec, shards = case
    return f"{overlay}-{protocol}-{variant}-{codec}-k{shards}"


@lru_cache(maxsize=None)
def _reference_digest(protocol, overlay, variant, codec):
    """Unsharded-kernel digest, cached — several fuzz cases share a base
    combo and differ only in shard count."""
    stats, now = run_training_perpeer(protocol, overlay, variant, codec=codec)
    return digest_of(stats, now)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_sharded_serial_matches_unsharded_kernel(case):
    """Serial sharded fingerprints are byte-identical to the single heap."""
    overlay, protocol, variant, codec, shards = case
    reference = _reference_digest(protocol, overlay, variant, codec)
    run = run_training_sharded(
        protocol, overlay, variant, shards, executor="serial", codec=codec
    )
    assert run.digest() == reference, (
        f"K={shards} serial sharded run diverged from the unsharded kernel "
        f"on {_case_id(case)}"
    )


def _mp_cases():
    if env_flag(MP_FULL_ENV):
        return [c for c in CASES if c[4] >= 2]
    return [c for c in CASES if c[4] >= 2][:MP_SUBSET]


@pytest.mark.parametrize("case", _mp_cases(), ids=_case_id)
def test_sharded_mp_matches_serial(case):
    """The multiprocessing executor reproduces the serial reference."""
    pytest.importorskip("multiprocessing")
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        pytest.skip("mp executor requires the fork start method")
    overlay, protocol, variant, codec, shards = case
    serial = run_training_sharded(
        protocol, overlay, variant, shards, executor="serial", codec=codec
    )
    parallel = run_training_sharded(
        protocol, overlay, variant, shards, executor="mp", codec=codec
    )
    assert parallel.digest() == serial.digest(), (
        f"mp executor diverged from serial on {_case_id(case)}"
    )
    assert parallel.now == serial.now


def test_fuzz_matrix_covers_every_axis():
    """The fixed sample touches each overlay, protocol, variant, codec and
    shard count at least once (a regression here means the sampling seed
    was changed without checking coverage)."""
    overlays = {c[0] for c in CASES}
    protocols = {c[1] for c in CASES}
    variants = {c[2] for c in CASES}
    codecs = {c[3] for c in CASES}
    counts = {c[4] for c in CASES}
    assert overlays == set(OVERLAYS)
    assert protocols == set(PROTOCOLS)
    assert variants == set(VARIANTS)
    assert codecs == set(CODECS)
    assert counts == set(SHARD_COUNTS)


# ---------------------------------------------------------------------------
# The tcp executor: the same byte-identity contract with workers running as
# socket-connected processes behind a coordinator (localhost fleets here;
# the protocol is machine-agnostic).
# ---------------------------------------------------------------------------


TCP_CASES = _sample_cases(
    count=TCP_FUZZ_CASES, shard_counts=TCP_SHARD_COUNTS, salt=0x7C9
)


def _tcp_cases():
    if env_flag(TCP_FULL_ENV):
        return TCP_CASES
    return TCP_CASES[:TCP_SUBSET]


@pytest.mark.parametrize("case", _tcp_cases(), ids=_case_id)
def test_sharded_tcp_matches_mp_serial_and_unsharded(case):
    """tcp ≡ mp ≡ serial ≡ unsharded, byte for byte, over localhost."""
    overlay, protocol, variant, codec, shards = case
    reference = _reference_digest(protocol, overlay, variant, codec)
    serial = run_training_sharded(
        protocol, overlay, variant, shards, executor="serial", codec=codec,
    )
    tcp = run_training_sharded(
        protocol, overlay, variant, shards, executor="tcp", codec=codec,
    )
    assert serial.digest() == reference, (
        f"serial sharded run diverged from the unsharded kernel on "
        f"{_case_id(case)}"
    )
    assert tcp.digest() == serial.digest(), (
        f"tcp executor diverged from serial on {_case_id(case)}"
    )
    assert tcp.now == serial.now
    assert tcp.windows == serial.windows
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return
    mp = run_training_sharded(
        protocol, overlay, variant, shards, executor="mp", codec=codec,
    )
    assert tcp.digest() == mp.digest(), (
        f"tcp executor diverged from mp on {_case_id(case)}"
    )


def test_tcp_fuzz_covers_every_axis():
    """The full tcp sample touches each shard count (the tier-1 subset is
    a prefix of this matrix)."""
    assert {c[4] for c in TCP_CASES} == set(TCP_SHARD_COUNTS)


@pytest.mark.parametrize(
    "key",
    ["chord/pace/none/k2", "superpeer/nbagg/churn/k4"],
)
def test_tcp_matches_checked_in_sharded_golden(key):
    """Golden smoke: the tcp executor lands the *checked-in* sharded
    golden digests — asserted against the committed file, never
    regenerated."""
    import json
    from pathlib import Path

    golden_path = (
        Path(__file__).parent / "golden" / "training_digests_sharded.json"
    )
    digests = json.loads(golden_path.read_text(encoding="utf-8"))
    overlay, protocol, variant, k = key.split("/")
    run = run_training_sharded(
        protocol, overlay, variant, int(k[1:]), executor="tcp"
    )
    assert run.digest() == digests[key], (
        f"tcp executor diverged from the checked-in golden digest for {key}"
    )


# ---------------------------------------------------------------------------
# The directory control plane past the peer population: one authoritative
# plane serving overlay snapshots + per-window deltas to K > N workers
# (zero-owned-peer shards).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", DIRECTORY_CASES, ids=_case_id)
def test_directory_serial_matches_unsharded_kernel(case):
    """Directory-served sharded runs are byte-identical to the single heap."""
    overlay, protocol, variant, codec, shards = case
    reference = _reference_digest(protocol, overlay, variant, codec)
    run = run_training_sharded(
        protocol, overlay, variant, shards, executor="serial", codec=codec,
    )
    assert run.digest() == reference, (
        f"K={shards} sharded run diverged from the unsharded kernel "
        f"on {_case_id(case)}"
    )


def _directory_mp_cases():
    cases = [c for c in DIRECTORY_CASES if c[4] >= 2]
    if env_flag(MP_FULL_ENV):
        return cases
    return cases[:DIRECTORY_MP_SUBSET]


@pytest.mark.parametrize("case", _directory_mp_cases(), ids=_case_id)
def test_directory_mp_matches_serial(case):
    """The mp executor reproduces the serial directory reference (control
    deltas ride the decision frames; the snapshot rides fork memory)."""
    try:
        import multiprocessing

        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        pytest.skip("mp executor requires the fork start method")
    overlay, protocol, variant, codec, shards = case
    serial = run_training_sharded(
        protocol, overlay, variant, shards, executor="serial", codec=codec,
    )
    parallel = run_training_sharded(
        protocol, overlay, variant, shards, executor="mp", codec=codec,
    )
    assert parallel.digest() == serial.digest(), (
        f"directory mp executor diverged from serial on {_case_id(case)}"
    )
    assert parallel.now == serial.now


def test_directory_fuzz_covers_high_shard_counts():
    counts = {c[4] for c in DIRECTORY_CASES}
    assert counts == set(DIRECTORY_SHARD_COUNTS)
    assert {8, 16} <= counts  # the K > N (zero-owned-peer) regime


def test_zero_owned_peer_shards_merge_to_the_unsharded_digest():
    """K=8 workers over N=5 peers: shards 5..7 own nothing (and under churn
    the active population drops further).  Their collectors contribute
    nothing but per-shard control bookkeeping, and the merged observables
    still equal the unsharded kernel byte for byte."""
    from repro.sim.shard import ShardedScenario
    from tests.determinism_fixtures import (
        build_classifier,
        build_scenario_config,
    )

    per_shard = []

    def workload(scenario):
        scenario.start_churn()
        classifier = build_classifier("nbagg", scenario)
        classifier.train()
        return (
            scenario.construction_cost(),
            scenario.stats.fingerprint_bytes(),
        )

    config = build_scenario_config(
        "chord", "churn", rng_mode="perpeer", shards=8,
    )
    run = ShardedScenario(config, executor="serial").run(workload)
    reference = _reference_digest("nbagg", "chord", "churn", "identity")
    assert run.digest() == reference
    per_shard = [cost for cost, _ in run.results]
    materialized = [cost["peers_materialized"] for cost in per_shard]
    # 5 peers across 8 shards: shard i owns peer i for i < 5, nothing after.
    assert materialized == [1, 1, 1, 1, 1, 0, 0, 0]
    # Directory views never compute routing entries at construction; the
    # only entries built locally are the churn-join ops every view applies.
    for cost in per_shard:
        assert cost["overlay_entries_built"] < 200


# ---------------------------------------------------------------------------
# StatsCollector.merge algebra: the operation the sharded executors use to
# fold per-shard collectors must be order-insensitive, including the
# wire-byte counters PR 3 added.
# ---------------------------------------------------------------------------


def _random_collector(seed):
    """A collector with randomized traffic across every recording path,
    including wire sizes that diverge from raw (compressed traffic)."""
    rng = random.Random(seed)
    stats = StatsCollector()
    types = ("a.upload", "b.query", "c.model", "d.control")
    for _ in range(rng.randrange(5, 25)):
        msg_type = rng.choice(types)
        size = rng.randrange(40, 4000)
        src = rng.randrange(0, 12)
        dst = rng.randrange(0, 12)
        path = rng.randrange(3)
        if path == 0:
            wire = rng.choice((size, size, max(1, size // 3)))
            message = Message(
                src=src, dst=dst if dst != src else src + 1,
                msg_type=msg_type, size_bytes=size, wire_bytes=wire,
                hops=rng.randrange(1, 4),
            )
            stats.record_message(message)
        elif path == 1:
            stats.record_traffic(
                msg_type, size, hops=rng.randrange(1, 4), src=src, dst=dst,
                wire_bytes=rng.choice((None, max(1, size // 2))),
            )
        else:
            dsts = rng.sample(range(20), rng.randrange(1, 6))
            stats.record_message_block(
                msg_type, size, src=src, dsts=dsts,
                wire_bytes=rng.choice((None, max(1, size // 4))),
            )
    for _ in range(rng.randrange(0, 6)):
        stats.increment(rng.choice(("x", "y", "z")), rng.randrange(1, 5))
    return stats


def _merged(*collectors):
    out = StatsCollector()
    for collector in collectors:
        out.merge(collector)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_merge_commutes(seed):
    a, b = _random_collector(seed), _random_collector(seed + 100)
    ab = _merged(a, b)
    ba = _merged(b, a)
    assert ab.fingerprint_bytes() == ba.fingerprint_bytes()
    assert ab.total_wire_bytes == ba.total_wire_bytes
    assert ab.has_compressed_traffic == ba.has_compressed_traffic


@pytest.mark.parametrize("seed", range(8))
def test_merge_associates(seed):
    a = _random_collector(seed)
    b = _random_collector(seed + 200)
    c = _random_collector(seed + 400)
    left = _merged(_merged(a, b), c)
    right = _merged(a, _merged(b, c))
    assert left.fingerprint_bytes() == right.fingerprint_bytes()
    assert left.wire_bytes_by_type == right.wire_bytes_by_type
    assert left.per_peer_wire_bytes == right.per_peer_wire_bytes


def test_merge_identity_and_wire_flag_propagation():
    a = _random_collector(7)
    empty = StatsCollector()
    assert _merged(empty, a).fingerprint_bytes() == a.fingerprint_bytes()
    assert _merged(a, empty).fingerprint_bytes() == a.fingerprint_bytes()
    # The compressed flag survives any merge ordering once set anywhere.
    compressed = StatsCollector()
    compressed.record_traffic("m", 100, wire_bytes=40)
    assert compressed.has_compressed_traffic
    assert _merged(empty, compressed).has_compressed_traffic
    assert _merged(compressed, empty).has_compressed_traffic


def test_merge_equals_unsharded_recording_order():
    """Recording N events into one collector equals recording disjoint
    subsets into per-shard collectors and merging — the exact claim the
    sharded stats plane rests on."""
    rng = random.Random(99)
    events = []
    for index in range(60):
        events.append(
            ("t%d" % (index % 5), rng.randrange(40, 900),
             rng.randrange(0, 8), rng.randrange(8, 16),
             rng.choice((None, 33)))
        )
    whole = StatsCollector()
    shards = [StatsCollector() for _ in range(3)]
    for msg_type, size, src, dst, wire in events:
        whole.record_traffic(msg_type, size, src=src, dst=dst, wire_bytes=wire)
        shards[src % 3].record_traffic(
            msg_type, size, src=src, dst=dst, wire_bytes=wire
        )
    assert _merged(*shards).fingerprint_bytes() == whole.fingerprint_bytes()
