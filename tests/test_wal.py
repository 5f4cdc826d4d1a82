"""The simulation WAL: checkpoint, resume, and window-prefix replay.

Three layers of coverage:

- file framing — CRC-framed records, torn-tail tolerance, corruption
  detection, the ``truncate_wal`` crash simulator;
- resume semantics — verified prefix replay against checked-in golden
  digests for serial/mp executors under both control planes, the
  resume-at-every-window fuzz, hard-crash recovery, divergence and
  config-mismatch rejection;
- replay — the isolated window re-execution API and its CLI.

The fuzz sweep runs a handful of resume positions in tier-1 and the
full every-window matrix when ``REPRO_WAL_FUZZ=1`` (nightly).
"""

import json
import os
import pickle
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError, SimulationError
from repro.sim.distribution import ShardSpec
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.shard import ShardedScenario, scenario_digest
from repro.sim.stats import StatsCollector
from repro.sim.wal import (
    WalReader,
    WalWriter,
    WindowRecord,
    replay_windows,
    truncate_wal,
)
from determinism_fixtures import run_training_sharded
from tier_flags import env_flag

SHARDED_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "training_digests_sharded.json"
)

#: gates the full resume-at-every-window sweep (nightly CI)
WAL_FUZZ_ENV = "REPRO_WAL_FUZZ"

FULL_FUZZ = env_flag(WAL_FUZZ_ENV)


def golden(key: str) -> str:
    digests = json.loads(SHARDED_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert key in digests, f"no sharded golden digest for {key}"
    return digests[key]


def _config(num_peers, shards, **overrides):
    options = dict(
        num_peers=num_peers,
        overlay="fullmesh",
        churn="none",
        rng_mode="perpeer",
        jitter_floor=0.5,
        shards=shards,
        shard=ShardSpec(num_peers=num_peers),
        seed=5,
    )
    options.update(overrides)
    return ScenarioConfig(**options)


def _storm_workload(scenario):
    network = scenario.network
    for address in range(8):  # an unregistered source's broadcast is refused
        scenario.register_peer(address, lambda message: None)
    for src in range(8):
        if scenario.owns(src):
            dsts = [d for d in range(8) if d != src]
            for _ in range(16):
                network.broadcast_block(src, dsts, "storm", None, 256)
    scenario.simulator.run_until_idle()
    return None


# ---------------------------------------------------------------------------
# File framing.
# ---------------------------------------------------------------------------


def _record(barrier: int) -> WindowRecord:
    return WindowRecord(
        barrier=barrier,
        window_start=0.5 * barrier,
        global_last=0.5 * barrier + 0.25,
        total_executed=10 * barrier + 3,
        statuses=[
            (0.5 * (barrier + 1), 0.5 * barrier + 0.25, 7, [], None),
            (0.5 * (barrier + 1), 0.5 * barrier + 0.125, 8, [],
             {"stats": {"counters": {"x": barrier}}, "kernel": {"seq": barrier}}),
        ],
        frames={(0, 1): b"frame-bytes-%d" % barrier},
        control=[(0.5 * barrier, f"delta-{barrier}")],
    )


def _write_log(path, windows: int, commit: bool = False) -> None:
    writer = WalWriter.create(
        str(path), num_shards=2, lookahead=0.5,
        meta={"config": {"seed": 5}, "cursor_every": 1, "use_frames": True},
    )
    for barrier in range(windows):
        writer.append_window(_record(barrier))
    if commit:
        writer.append_commit(
            {"digest": "d" * 64, "now": 9.75, "windows": windows, "tails": []}
        )
    writer.close()


def test_framing_roundtrip(tmp_path):
    path = tmp_path / "log.wal"
    _write_log(path, windows=3, commit=True)
    reader = WalReader(str(path))
    assert reader.num_shards == 2
    assert reader.lookahead == 0.5
    assert reader.meta["cursor_every"] == 1
    assert not reader.truncated
    assert len(reader.windows) == 3
    for barrier, record in enumerate(reader.windows):
        assert record == _record(barrier)
    assert reader.commit["windows"] == 3
    assert reader.valid_offset == os.path.getsize(path)


def test_reader_tolerates_torn_tail(tmp_path):
    """A crash mid-append leaves a partial record; the durable prefix must
    survive and the valid offset must point at the last complete record."""
    path = tmp_path / "log.wal"
    _write_log(path, windows=3)
    full = WalReader(str(path))
    with open(path, "r+b") as fh:
        fh.truncate(full.window_offsets[2] - 3)
    reader = WalReader(str(path))
    assert reader.truncated
    assert len(reader.windows) == 2
    assert reader.windows[1] == _record(1)
    assert reader.valid_offset == full.window_offsets[1]


def test_reader_treats_crc_corruption_as_torn_tail(tmp_path):
    path = tmp_path / "log.wal"
    _write_log(path, windows=3)
    full = WalReader(str(path))
    with open(path, "r+b") as fh:
        fh.seek(full.window_offsets[2] - 5)  # inside the last payload
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))
    reader = WalReader(str(path))
    assert reader.truncated
    assert len(reader.windows) == 2


def test_reader_rejects_non_wal_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a write-ahead log, definitely" * 4)
    with pytest.raises(SimulationError, match="bad magic"):
        WalReader(str(path))
    with pytest.raises(ConfigurationError, match="not found"):
        WalReader(str(tmp_path / "missing.wal"))


def test_truncate_wal_keeps_exact_prefix(tmp_path):
    path = tmp_path / "log.wal"
    _write_log(path, windows=4, commit=True)
    out = truncate_wal(str(path), 2, out_path=str(tmp_path / "cut.wal"))
    reader = WalReader(out)
    assert len(reader.windows) == 2
    assert reader.commit is None  # the commit record is past the cut
    assert not reader.truncated
    with pytest.raises(ConfigurationError, match="only"):
        truncate_wal(str(path), 9)


# ---------------------------------------------------------------------------
# Checkpoint + resume against the checked-in golden digests.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "executor,control_plane",
    [
        ("serial", "replicated"),
        ("serial", "directory"),
        ("mp", "replicated"),
        ("mp", "directory"),
    ],
)
def test_checkpoint_then_resume_matches_golden(tmp_path, executor, control_plane):
    """Checkpoint a training combo, chop the log mid-run, resume: both the
    checkpointed and the resumed digests must equal the checked-in sharded
    golden — byte-identical to the uninterrupted run."""
    expected = golden("chord/pace/churn/k2")
    wal = str(tmp_path / "train.wal")
    run = run_training_sharded(
        "pace", "chord", "churn", 2, executor=executor,
        control_plane=control_plane, wal=wal,
    )
    assert run.digest() == expected
    reader = WalReader(wal)
    assert reader.commit is not None and reader.commit["digest"] == expected
    assert len(reader.windows) == run.windows

    truncate_wal(wal, len(reader.windows) // 2)
    resumed = run_training_sharded(
        "pace", "chord", "churn", 2, executor=executor,
        control_plane=control_plane, resume=wal,
    )
    assert resumed.digest() == expected
    assert WalReader(wal).commit["digest"] == expected  # re-sealed


def test_resume_committed_log_is_pure_verification(tmp_path):
    """Resuming a *committed* log appends nothing: the whole run executes
    in verify mode and the file must not change by a byte."""
    expected = golden("chord/pace/churn/k2")
    wal = str(tmp_path / "train.wal")
    run_training_sharded("pace", "chord", "churn", 2, wal=wal)
    before = Path(wal).read_bytes()
    resumed = run_training_sharded("pace", "chord", "churn", 2, resume=wal)
    assert resumed.digest() == expected
    assert Path(wal).read_bytes() == before


def test_cross_executor_resume(tmp_path):
    """A WAL written by the serial coordinator resumes under the mp
    executor (and vice versa): executor is excluded from the config
    fingerprint because the two are byte-equivalent by contract."""
    expected = golden("chord/pace/churn/k2")
    wal = str(tmp_path / "serial.wal")
    run_training_sharded("pace", "chord", "churn", 2, executor="serial", wal=wal)
    truncate_wal(wal, 10)
    resumed = run_training_sharded(
        "pace", "chord", "churn", 2, executor="mp", resume=wal
    )
    assert resumed.digest() == expected


def test_resume_and_relog_to_fresh_file(tmp_path):
    """``--resume OLD --wal NEW``: verify against OLD while rewriting the
    full verified+live stream to NEW; NEW becomes a complete committed log
    usable for further resumes."""
    expected = golden("chord/pace/churn/k2")
    old = str(tmp_path / "old.wal")
    new = str(tmp_path / "new.wal")
    run = run_training_sharded("pace", "chord", "churn", 2, wal=old)
    truncate_wal(old, 5)
    resumed = run_training_sharded(
        "pace", "chord", "churn", 2, resume=old, wal=new
    )
    assert resumed.digest() == expected
    reader = WalReader(new)
    assert len(reader.windows) == run.windows
    assert reader.commit["digest"] == expected
    assert WalReader(old).commit is None  # OLD keeps its 5-window prefix


def test_resume_zero_window_log(tmp_path):
    """Resuming a header-only log (every window chopped off) is legal:
    nothing verifies, the whole run executes live, and the digest still
    lands on the golden — the degenerate prefix is just 'from scratch'."""
    expected = golden("chord/pace/churn/k2")
    wal = str(tmp_path / "empty.wal")
    run_training_sharded("pace", "chord", "churn", 2, wal=wal)
    truncate_wal(wal, 0)
    reader = WalReader(wal)
    assert reader.windows == [] and reader.commit is None
    resumed = run_training_sharded("pace", "chord", "churn", 2, resume=wal)
    assert resumed.digest() == expected


def test_torn_tail_at_first_window_record(tmp_path):
    """A log whose torn tail is the *first* window record: the reader
    discards it (zero verified windows) and resume replays from scratch
    to the identical digest — the crash-window edge case of the torn-tail
    rule."""
    expected = golden("chord/pace/churn/k2")
    wal = str(tmp_path / "torn.wal")
    run_training_sharded("pace", "chord", "churn", 2, wal=wal)
    truncate_wal(wal, 1)  # exactly one window record
    with open(wal, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        handle.truncate(handle.tell() - 7)  # tear into that record
    reader = WalReader(wal)
    assert reader.truncated
    assert reader.windows == []
    resumed = run_training_sharded("pace", "chord", "churn", 2, resume=wal)
    assert resumed.digest() == expected


# ---------------------------------------------------------------------------
# Resume-at-every-window fuzz (K=2 storm combo).
# ---------------------------------------------------------------------------


def test_resume_at_every_window_fuzz(tmp_path, monkeypatch):
    """Chop the log at window W and resume, for W across the whole run:
    every resume must land on the identical digest.  Cursors are logged at
    every barrier (cadence 1) while the WAL is written, and the resume runs
    under a different env cadence to prove the logged cadence wins."""
    monkeypatch.setenv("REPRO_WAL_CURSORS_EVERY", "1")
    wal = str(tmp_path / "storm.wal")
    run = ShardedScenario(_config(8, shards=2, wal=wal)).run(_storm_workload)
    expected = run.digest()
    reader = WalReader(wal)
    assert len(reader.windows) == run.windows >= 3

    monkeypatch.setenv("REPRO_WAL_CURSORS_EVERY", "7")
    total = len(reader.windows)
    if FULL_FUZZ:
        positions = list(range(total + 1))
    else:
        positions = sorted({0, 1, total // 2, total - 1, total})
    for keep in positions:
        cut = str(tmp_path / f"storm-{keep}.wal")
        truncate_wal(wal, keep, out_path=cut)
        resumed = ShardedScenario(
            _config(8, shards=2, resume=cut)
        ).run(_storm_workload)
        assert resumed.digest() == expected, f"resume at window {keep} diverged"
        assert WalReader(cut).commit["digest"] == expected


# ---------------------------------------------------------------------------
# Hard-crash recovery (the PR 6 regression, extended to the WAL path).
# ---------------------------------------------------------------------------


def _crashing_workload(die: bool):
    """The storm workload plus one timer on peer 1's shard that either
    kills the process (checkpoint run) or does nothing (resume run).  The
    timer is scheduled in *both* runs so the kernel's sequence cursor — a
    logged, verified observable — is identical across them."""

    def workload(scenario):
        if scenario.owns(1):
            scenario.simulator.schedule_at(
                1.6, (lambda: os._exit(3)) if die else (lambda: None),
                label="die",
            )
        return _storm_workload(scenario)

    return workload


def test_crash_recovery_resumes_to_identical_digest(tmp_path, monkeypatch):
    """Kill a worker mid-window while checkpointing, then resume from the
    durable prefix: the final fingerprint must be byte-identical to the
    never-crashed run."""
    monkeypatch.setenv("REPRO_EXCHANGE_TIMEOUT_S", "10")
    reference = ShardedScenario(_config(8, shards=2)).run(
        _crashing_workload(die=False)
    )
    wal = str(tmp_path / "crash.wal")
    with pytest.raises(SimulationError, match="died mid-window"):
        ShardedScenario(
            _config(8, shards=2, wal=wal), executor="mp"
        ).run(_crashing_workload(die=True))

    reader = WalReader(wal)
    assert reader.commit is None
    assert len(reader.windows) >= 2  # the prefix before the crash is durable

    resumed = ShardedScenario(_config(8, shards=2, resume=wal)).run(
        _crashing_workload(die=False)
    )
    assert resumed.digest() == reference.digest()
    assert WalReader(wal).commit["digest"] == reference.digest()


# ---------------------------------------------------------------------------
# Divergence + misconfiguration rejection.
# ---------------------------------------------------------------------------


def test_resume_detects_divergence(tmp_path):
    """A log whose records do not match the re-executed run must fail
    loudly at the first divergent window, naming what moved."""
    wal = str(tmp_path / "storm.wal")
    ShardedScenario(_config(8, shards=2, wal=wal)).run(_storm_workload)
    reader = WalReader(wal)

    # Rewrite the log with window 1's executed-event total off by one.
    forged = str(tmp_path / "forged.wal")
    writer = WalWriter.create(
        forged, reader.num_shards, reader.lookahead, reader.meta
    )
    for record in reader.windows:
        if record.barrier == 1:
            record.total_executed += 1
        writer.append_window(record)
    writer.close()

    with pytest.raises(SimulationError, match="WAL divergence at window 1"):
        ShardedScenario(_config(8, shards=2, resume=forged)).run(_storm_workload)


def test_resume_rejects_mismatched_config(tmp_path):
    wal = str(tmp_path / "storm.wal")
    ShardedScenario(_config(8, shards=2, wal=wal)).run(_storm_workload)
    with pytest.raises(ConfigurationError, match="seed"):
        ShardedScenario(_config(8, shards=2, seed=6, resume=wal)).run(
            _storm_workload
        )


def test_resume_rejects_mismatched_shard_count(tmp_path):
    wal = str(tmp_path / "storm.wal")
    ShardedScenario(_config(8, shards=2, wal=wal)).run(_storm_workload)
    with pytest.raises(ConfigurationError, match="2 shards"):
        ShardedScenario(_config(8, shards=4, resume=wal)).run(_storm_workload)


def test_wal_requires_sharded_kernel():
    with pytest.raises(ConfigurationError, match="shards >= 1"):
        _config(8, shards=0, wal="x.wal").validate()


# ---------------------------------------------------------------------------
# The delta algebra: Σ(window deltas) + commit tails == final fingerprint.
# ---------------------------------------------------------------------------


def test_logged_deltas_and_tails_reconstruct_final_stats(tmp_path):
    wal = str(tmp_path / "storm.wal")
    run = ShardedScenario(_config(8, shards=2, wal=wal)).run(_storm_workload)
    reader = WalReader(wal)

    rebuilt = StatsCollector()
    for record in reader.windows:
        for status in record.statuses:
            extras = None if status[4] is None else pickle.loads(status[4])
            if extras is not None and extras.get("stats"):
                rebuilt.apply_delta(extras["stats"])
    for tail in reader.commit["tails"]:
        if tail is not None and tail.get("stats"):
            rebuilt.apply_delta(tail["stats"])

    for family in StatsCollector._DELTA_FAMILIES:
        got = {k: v for k, v in getattr(rebuilt, family).items() if v}
        want = {k: v for k, v in getattr(run.stats, family).items() if v}
        assert got == want, f"family {family} does not reconstruct"
    assert scenario_digest(rebuilt, run.now) == run.digest()


# ---------------------------------------------------------------------------
# Replay.
# ---------------------------------------------------------------------------


def test_replay_reexecutes_logged_windows(tmp_path):
    wal = str(tmp_path / "storm.wal")
    run = ShardedScenario(_config(8, shards=2, wal=wal)).run(_storm_workload)
    windows = list(replay_windows(wal))
    assert len(windows) == run.windows
    total = sum(len(w.deliveries) for w in windows)
    assert total == run.stats.exchange["records"]
    for window in windows:
        for (time, src, dst, msg_type, size, wire, hops) in window.deliveries:
            assert window.window_start <= time
            assert msg_type == "storm" and size == 256 and hops >= 1
    # A sub-range replays in isolation.
    subset = list(replay_windows(wal, start=1, stop=3))
    assert [w.barrier for w in subset] == [1, 2]
    assert subset[0].deliveries == windows[1].deliveries
    with pytest.raises(ConfigurationError, match="outside the log"):
        list(replay_windows(wal, start=5, stop=2))


def test_replay_cli(tmp_path, capsys):
    wal = str(tmp_path / "storm.wal")
    ShardedScenario(_config(8, shards=2, wal=wal)).run(_storm_workload)
    assert cli_main(["replay", wal, "--from", "0", "--to", "2", "--records"]) == 0
    out = capsys.readouterr().out
    assert "[wal]" in out and "window 0:" in out and "commit:" in out
    assert "storm" in out
