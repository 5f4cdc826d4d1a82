"""Golden fingerprint suite: the determinism contract, checked in.

For every (overlay × protocol × {no-churn, churn, loss}) combination, a
small fixed-seed training scenario's stats digest — SHA-256 over the
canonical JSON of :meth:`StatsCollector.fingerprint` plus the final virtual
clock — is stored in ``tests/golden/training_digests.json`` and compared
*exactly*.  Any drift in the RNG stream, event ordering, or byte/hop
accounting (an optimization that reorders draws, a changed wire-size rule,
a new overlay hop) fails tier-1 loudly instead of silently changing every
experiment table.

When a change is *intentional*, regenerate the goldens and commit the diff:

    PYTHONPATH=src python tests/golden/regenerate.py

The matrix is the full cross product — 126 combos — and runs in about a
second thanks to the tiny fixture corpus.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.determinism_fixtures import (
    LARGE_OVERLAYS,
    LARGE_PROTOCOLS,
    LARGE_VARIANTS,
    OVERLAYS,
    PROTOCOLS,
    SHARDED_COUNTS,
    SHARDED_OVERLAYS,
    SHARDED_PROTOCOLS,
    SHARDED_VARIANTS,
    VARIANTS,
    digest_of,
    run_training,
    run_training_large,
    run_training_perpeer,
    run_training_sharded,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "training_digests.json"
LARGE_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "training_digests_large.json"
)
SHARDED_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "training_digests_sharded.json"
)

#: gates the N=100 tier (nightly CI; seconds per combo instead of millis)
LARGE_GOLDEN_ENV = "REPRO_LARGE_GOLDEN"

REGEN_HINT = (
    "If this change to the stats stream is intentional, regenerate with "
    "`PYTHONPATH=src python tests/golden/regenerate.py` and commit the diff."
)

large_tier = pytest.mark.skipif(
    os.environ.get(LARGE_GOLDEN_ENV, "") in ("", "0"),
    reason=f"large-N golden tier runs only with {LARGE_GOLDEN_ENV}=1 (nightly)",
)


def combo_key(overlay: str, protocol: str, variant: str) -> str:
    return f"{overlay}/{protocol}/{variant}"


def sharded_combo_key(
    overlay: str, protocol: str, variant: str, shards: int
) -> str:
    return f"{overlay}/{protocol}/{variant}/k{shards}"


def _digest_scenario(scenario) -> str:
    return digest_of(scenario.stats, scenario.simulator.now)


def combo_digest(protocol: str, overlay: str, variant: str) -> str:
    """Digest of one training run: stats fingerprint + final virtual clock."""
    scenario, _ = run_training(protocol, overlay, variant)
    return _digest_scenario(scenario)


def combo_digest_large(protocol: str, overlay: str, variant: str) -> str:
    """Digest of one 100-peer training run of the nightly tier."""
    scenario, _ = run_training_large(protocol, overlay, variant)
    return _digest_scenario(scenario)


def combo_digest_sharded(
    protocol: str, overlay: str, variant: str, shards: int
) -> str:
    """Digest of one training run through the K-shard serial executor."""
    return run_training_sharded(protocol, overlay, variant, shards).digest()


def load_goldens(path: Path = GOLDEN_PATH) -> dict:
    if not path.exists():
        pytest.fail(f"golden file missing: {path}. {REGEN_HINT}")
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("overlay", OVERLAYS)
def test_training_digest_matches_golden(overlay, protocol, variant):
    key = combo_key(overlay, protocol, variant)
    goldens = load_goldens()
    assert key in goldens, f"no golden digest for {key}. {REGEN_HINT}"
    actual = combo_digest(protocol, overlay, variant)
    assert actual == goldens[key], (
        f"stats digest drifted for {key}: expected {goldens[key][:16]}…, "
        f"got {actual[:16]}…. Same seed no longer produces bit-identical "
        f"stats on this combo. {REGEN_HINT}"
    )


def test_golden_file_has_no_stale_entries():
    """Every stored digest corresponds to a live matrix combo (renames and
    removals must regenerate, not accumulate)."""
    goldens = load_goldens()
    expected = {
        combo_key(o, p, v) for o in OVERLAYS for p in PROTOCOLS for v in VARIANTS
    }
    stale = set(goldens) - expected
    assert not stale, f"stale golden entries: {sorted(stale)}. {REGEN_HINT}"


def test_digests_are_run_to_run_stable():
    """The digest of a fresh identical run is identical (no hidden global
    state leaks between scenario constructions)."""
    first = combo_digest("pace", "chord", "churn")
    second = combo_digest("pace", "chord", "churn")
    assert first == second


# ---------------------------------------------------------------------------
# Nightly large-N tier: the same contract at 100 peers, where heap-order
# bugs (tie-breaking, cancellation sets, batch scheduling) actually surface.
# ---------------------------------------------------------------------------


@large_tier
@pytest.mark.parametrize("variant", LARGE_VARIANTS)
@pytest.mark.parametrize("protocol", LARGE_PROTOCOLS)
@pytest.mark.parametrize("overlay", LARGE_OVERLAYS)
def test_large_n(overlay, protocol, variant):
    key = combo_key(overlay, protocol, variant)
    goldens = load_goldens(LARGE_GOLDEN_PATH)
    assert key in goldens, f"no large-N golden digest for {key}. {REGEN_HINT}"
    actual = combo_digest_large(protocol, overlay, variant)
    assert actual == goldens[key], (
        f"large-N stats digest drifted for {key}: expected "
        f"{goldens[key][:16]}…, got {actual[:16]}…. Same seed no longer "
        f"produces bit-identical stats at N=100 on this combo. {REGEN_HINT}"
    )


@large_tier
def test_large_n_golden_file_has_no_stale_entries():
    goldens = load_goldens(LARGE_GOLDEN_PATH)
    expected = {
        combo_key(o, p, v)
        for o in LARGE_OVERLAYS
        for p in LARGE_PROTOCOLS
        for v in LARGE_VARIANTS
    }
    stale = set(goldens) - expected
    assert not stale, f"stale large-N golden entries: {sorted(stale)}. {REGEN_HINT}"


# ---------------------------------------------------------------------------
# Sharded tier: the same determinism contract through the K-shard kernel
# (repro.sim.shard), every key at every K on the one (directory) control
# plane.  The pinned digests double as a K-invariance witness — for each
# combo the k2 and k4 entries must be identical, and both must equal the
# unsharded per-peer-randomness kernel.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", SHARDED_COUNTS)
@pytest.mark.parametrize("variant", SHARDED_VARIANTS)
@pytest.mark.parametrize("protocol", SHARDED_PROTOCOLS)
@pytest.mark.parametrize("overlay", SHARDED_OVERLAYS)
def test_sharded_training_digest_matches_golden(
    overlay, protocol, variant, shards
):
    key = sharded_combo_key(overlay, protocol, variant, shards)
    goldens = load_goldens(SHARDED_GOLDEN_PATH)
    assert key in goldens, f"no sharded golden digest for {key}. {REGEN_HINT}"
    actual = combo_digest_sharded(protocol, overlay, variant, shards)
    assert actual == goldens[key], (
        f"sharded stats digest drifted for {key}: expected "
        f"{goldens[key][:16]}…, got {actual[:16]}…. Same seed no longer "
        f"produces bit-identical stats through the K-shard kernel. "
        f"{REGEN_HINT}"
    )


@pytest.mark.parametrize("variant", SHARDED_VARIANTS)
@pytest.mark.parametrize("protocol", SHARDED_PROTOCOLS)
@pytest.mark.parametrize("overlay", SHARDED_OVERLAYS)
def test_sharded_goldens_are_shard_count_invariant_and_match_unsharded(
    overlay, protocol, variant
):
    """The checked-in digests witness the sharding theorem: identical
    across K, and equal to the unsharded kernel on the same scenario."""
    goldens = load_goldens(SHARDED_GOLDEN_PATH)
    digests = {
        goldens[sharded_combo_key(overlay, protocol, variant, shards)]
        for shards in SHARDED_COUNTS
    }
    assert len(digests) == 1, (
        f"{overlay}/{protocol}/{variant}: golden digests differ across "
        f"shard counts. {REGEN_HINT}"
    )
    stats, now = run_training_perpeer(protocol, overlay, variant)
    assert digest_of(stats, now) == digests.pop(), (
        f"{overlay}/{protocol}/{variant}: unsharded per-peer kernel "
        f"diverged from the sharded goldens. {REGEN_HINT}"
    )


def test_sharded_golden_file_has_no_stale_entries():
    goldens = load_goldens(SHARDED_GOLDEN_PATH)
    expected = {
        sharded_combo_key(o, p, v, k)
        for o in SHARDED_OVERLAYS
        for p in SHARDED_PROTOCOLS
        for v in SHARDED_VARIANTS
        for k in SHARDED_COUNTS
    }
    stale = set(goldens) - expected
    assert not stale, f"stale sharded golden entries: {sorted(stale)}. {REGEN_HINT}"


# ---------------------------------------------------------------------------
# Across interpreters: ``str`` hashing is salted per process
# (``PYTHONHASHSEED``), so an iteration order that follows ``hash(str)``
# moves a digest between processes while every in-process comparison above
# stays green.
# ---------------------------------------------------------------------------

_CROSS_SEED_SCRIPT = """\
from determinism_fixtures import digest_of, run_training, run_training_sharded
scenario, _ = run_training("pace", "chord", "churn")
print(digest_of(scenario.stats, scenario.simulator.now))
print(run_training_sharded("pace", "chord", "churn", 2, executor="mp").digest())
"""


@pytest.mark.parametrize("hash_seed", ("1", "2"))
def test_goldens_hold_in_a_fresh_interpreter_under_a_fixed_hash_seed(
    hash_seed,
):
    """One flat key, and one K = 2 sharded key through the forked mp fleet,
    each in a fresh interpreter under a fixed hash seed, land their
    checked-in digests."""
    tests = Path(__file__).parent
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
    )
    digests = subprocess.run(
        [sys.executable, "-c", _CROSS_SEED_SCRIPT], env=env, cwd=tests,
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout.split()
    assert digests == [
        load_goldens()[combo_key("chord", "pace", "churn")],
        load_goldens(SHARDED_GOLDEN_PATH)[
            sharded_combo_key("chord", "pace", "churn", 2)
        ],
    ], f"a digest moved under PYTHONHASHSEED={hash_seed}. {REGEN_HINT}"
