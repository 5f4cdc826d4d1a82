"""The self-healing fleet, driven by workers that misbehave on cue.

Each test cues one or more ``(kind, shard, barrier)`` misbehaviours
(``tests/misbehave.py``) into a live tcp or mp fleet and asserts what the
supervision loop does about them: a death with a WAL is respawned and
replayed, and the recovered run lands on the checked-in sharded golden
digest byte for byte; a stall is waited out; a death without a WAL is the
loud abort naming the missing checkpoint; ``REPRO_TCP_MAX_RESPAWNS``
bounds recovery.  Every run ends with each connection closed and each
forked worker reaped.

Tier-1 runs one run per recovery path; ``REPRO_CHAOS_FULL=1`` (nightly)
sweeps a table of cues over the golden overlay x K matrix.
"""

import json
import os
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.sim.tcpexec import TCP_MAX_RESPAWNS_ENV, TCP_TIMEOUT_ENV
from repro.sim.wal import WalReader
from determinism_fixtures import run_training_sharded
import misbehave
from misbehave import install
from tier_flags import env_flag

SHARDED_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "training_digests_sharded.json"
)

#: gates the full chaos sweep (nightly CI)
CHAOS_FULL_ENV = "REPRO_CHAOS_FULL"
CHAOS_FULL = env_flag(CHAOS_FULL_ENV)


def golden(key: str) -> str:
    digests = json.loads(SHARDED_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert key in digests, f"no sharded golden digest for {key}"
    return digests[key]


def _chaos_run(
    wal=None, resume=None, shards=2, overlay="chord", executor="tcp"
):
    return run_training_sharded(
        "pace", overlay, "none", shards, executor=executor,
        wal=wal, resume=resume,
    )


def test_crash_recovers_to_identical_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    fleet = install(monkeypatch, tmp_path, ("crash", 1, 2))
    run = _chaos_run(wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 1
    assert run.stats.faults["replayed_windows"] >= 1
    assert run.stats.faults["worker_deaths"] == 1
    fleet.assert_torn_down()


@pytest.mark.parametrize("fault", ["crash", "corrupt"])
def test_mp_heals_a_crash_from_the_wal(fault, tmp_path, monkeypatch):
    """mp is the tcp fleet with every slot forked locally, so a crashed
    mp worker, or one that garbles its sync, is quarantined, respawned and
    replayed from the WAL like a tcp one."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    fleet = install(monkeypatch, tmp_path, (fault, 0, 1))
    run = _chaos_run(wal=str(tmp_path / "chaos.wal"), executor="mp")
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["worker_deaths"] == 1
    assert run.stats.faults["respawns"] == 1
    assert run.stats.faults["replayed_windows"] >= 1
    fleet.assert_torn_down()


def test_crash_at_window_zero_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    fleet = install(monkeypatch, tmp_path, ("crash", 1, 0))
    run = _chaos_run(wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 1
    # death at barrier 0: nothing logged yet, nothing to replay
    assert run.stats.faults["replayed_windows"] == 0
    fleet.assert_torn_down()


@pytest.mark.parametrize("fault", ["corrupt", "truncate"])
def test_garbled_frame_quarantines_and_recovers(fault, tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    fleet = install(monkeypatch, tmp_path, (fault, 1, 2))
    run = _chaos_run(wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 1
    fleet.assert_torn_down()


def test_half_open_worker_is_unmasked_and_recovered(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "4")
    fleet = install(monkeypatch, tmp_path, ("halfopen", 0, 2))
    run = _chaos_run(wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 1
    assert run.stats.faults["worker_deaths"] == 1
    fleet.assert_torn_down()


def test_stalled_worker_heartbeats_through_the_deadline(
    tmp_path, monkeypatch
):
    # The stall (6s) far exceeds the read deadline (4s): without the
    # heartbeat the coordinator would declare the worker dead.  No WAL on
    # purpose — a false death declaration would abort the run loudly.
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "4")
    fleet = install(monkeypatch, tmp_path, ("stall", 1, 1), stall_s=6.0)
    run = _chaos_run()
    assert run.digest() == golden("chord/pace/none/k2")
    assert fleet.fired() == [("stall", 1, 1)]
    assert run.stats.faults["heartbeats"] >= 1
    assert run.stats.faults["respawns"] == 0
    fleet.assert_torn_down()


def test_crash_without_wal_aborts_naming_the_checkpoint(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    fleet = install(monkeypatch, tmp_path, ("crash", 0, 1))
    with pytest.raises(SimulationError) as excinfo:
        _chaos_run()
    message = str(excinfo.value)
    assert "died mid-window" in message
    assert "no WAL checkpoint" in message
    assert "ScenarioConfig.wal" in message
    fleet.assert_torn_down()


def test_respawn_budget_bounds_recovery(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    monkeypatch.setenv(TCP_MAX_RESPAWNS_ENV, "0")
    fleet = install(monkeypatch, tmp_path, ("crash", 0, 1))
    with pytest.raises(SimulationError, match=TCP_MAX_RESPAWNS_ENV):
        _chaos_run(wal=str(tmp_path / "chaos.wal"))
    fleet.assert_torn_down()


def test_recover_replays_a_serial_written_log(tmp_path, monkeypatch):
    # Cross-executor RECOVER: the replay source was written by the serial
    # executor; tcp resumes it, a worker crashes mid-resume, and the
    # replacement replays from the foreign log to the same digest.
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    wal = tmp_path / "serial.wal"
    reference = _chaos_run(wal=str(wal), executor="serial")
    fleet = install(monkeypatch, tmp_path, ("crash", 1, 1))
    run = _chaos_run(resume=str(wal))
    assert run.digest() == reference.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 1
    fleet.assert_torn_down()


def test_a_torn_resume_log_replays_the_shorter_prefix(tmp_path, monkeypatch):
    """A log whose tail record was cut mid-write (a crash while appending)
    still opens; resume replays the verified prefix before it."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    wal = tmp_path / "torn.wal"
    _chaos_run(wal=str(wal), executor="serial")
    os.truncate(wal, os.path.getsize(wal) - 17)
    assert WalReader(str(wal)).truncated
    run = _chaos_run(resume=str(wal))
    assert run.digest() == golden("chord/pace/none/k2")


def test_multiple_faults_in_one_run(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    fleet = install(monkeypatch, tmp_path, ("crash", 0, 1), ("crash", 1, 3))
    run = _chaos_run(wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 2
    assert run.stats.faults["worker_deaths"] == 2
    fleet.assert_torn_down()


class _Channel:
    """What a cued worker reads of its channel: its shard, its barrier and
    a sync that counts the barriers it reached."""

    def __init__(self, shard_id):
        self.shard_id, self._barrier, self.synced = shard_id, 0, []

    def sync(self):
        self.synced.append(self._barrier)


@pytest.mark.parametrize("incarnation,shard,acts", [
    ("first", 1, [2]), ("replacement", 1, []), ("other shard", 0, []),
])
def test_a_cue_acts_on_its_shards_first_incarnation_only(
    incarnation, shard, acts, tmp_path, monkeypatch
):
    """A replacement replayed to the cued barrier finds the cue's marker
    taken, so the misbehaviour that killed its predecessor does not loop;
    every worker still syncs at every barrier it reaches."""
    import repro.sim.tcpexec as tcpexec

    def run_worker(channel):
        for channel._barrier in range(4):
            channel.sync()

    acted = []
    monkeypatch.setattr(tcpexec, "_run_worker", run_worker)
    monkeypatch.setitem(misbehave.MISBEHAVIOURS, "crash",
                        lambda channel, stall_s: acted.append(channel._barrier))
    fleet = install(monkeypatch, tmp_path, ("crash", 1, 2))
    if incarnation == "replacement":
        tcpexec._run_worker(_Channel(1))
        acted.clear()
    channel = _Channel(shard)
    tcpexec._run_worker(channel)
    assert acted == acts
    assert channel.synced == [0, 1, 2, 3]
    assert fleet.fired() == ([] if shard == 0 else [("crash", 1, 2)])


def test_install_refuses_a_kind_it_cannot_act(tmp_path, monkeypatch):
    with pytest.raises(AssertionError, match="explode"):
        install(monkeypatch, tmp_path, ("explode", 0, 1))


# ---------------------------------------------------------------------------
# The nightly chaos sweep (REPRO_CHAOS_FULL=1): cues over overlay x K.
# ---------------------------------------------------------------------------

_FUZZ_MATRIX = [
    # (cues, overlay, shards)
    ((("crash", 1, 2),), "chord", 2),
    ((("crash", 0, 1), ("crash", 3, 4)), "chord", 4),
    ((("crash", 0, 3),), "superpeer", 2),
    ((("corrupt", 1, 1),), "chord", 2),
    ((("truncate", 2, 2),), "superpeer", 4),
    ((("crash", 1, 0), ("corrupt", 2, 4)), "chord", 4),
    ((("halfopen", 0, 2),), "superpeer", 2),
    ((("stall", 1, 1), ("crash", 0, 3)), "chord", 2),
]


@pytest.mark.skipif(
    not CHAOS_FULL, reason=f"full chaos sweep runs with {CHAOS_FULL_ENV}=1"
)
@pytest.mark.parametrize(
    "cues,overlay,shards",
    _FUZZ_MATRIX,
    ids=[
        "+".join(f"{k}@{w}:{s}" for k, s, w in cues) + f"/{o}/k{n}"
        for cues, o, n in _FUZZ_MATRIX
    ],
)
def test_chaos_fuzz_full(cues, overlay, shards, tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "8")
    fleet = install(monkeypatch, tmp_path, *cues, stall_s=1.5)
    run = _chaos_run(
        wal=str(tmp_path / "chaos.wal"), shards=shards, overlay=overlay,
    )
    assert run.digest() == golden(f"{overlay}/pace/none/k{shards}")
    assert sorted(fleet.fired()) == sorted(cues)
    deadly = [cue for cue in cues if cue[0] != "stall"]
    assert run.stats.faults["respawns"] == len(deadly)
    fleet.assert_torn_down()
