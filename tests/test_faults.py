"""The deterministic fault plane and the self-healing tcp fleet.

Three layers of coverage:

- the plan — spec grammar, seeded schedule determinism, the JSON
  description, worker-side injector filtering, WAL tearing;
- the plumbing — config validation (faults target the sharded tcp/mp
  fleet, never the serial threads), fingerprint exclusion (a faulted run
  resumes a clean log);
- chaos — tcp (and one mp) runs with injected crashes / wire garbage /
  half-open sockets / stalls, asserting the supervision loop respawns and
  WAL-replays workers to the **byte-identical** checked-in golden
  digest, that recovery without a WAL degrades to the loud abort naming
  the missing checkpoint, and that ``REPRO_TCP_MAX_RESPAWNS`` bounds it.

Tier-1 runs one crash-and-recover smoke per concern; ``REPRO_CHAOS_FULL=1``
(nightly) sweeps fault kinds over overlay x K and writes
the injected schedules to ``tests/artifacts/chaos_fault_schedules.json``
(git-ignored) as the CI artifact.
"""

import json
import os
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.faults import FaultEvent, FaultPlan, mix64, splitmix64
from repro.sim.tcpexec import TCP_MAX_RESPAWNS_ENV, TCP_TIMEOUT_ENV
from repro.sim.wal import WalReader, config_fingerprint
from determinism_fixtures import (
    build_scenario_config,
    run_training_sharded,
)
from tier_flags import env_flag

SHARDED_GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "training_digests_sharded.json"
)

#: gates the full chaos sweep (nightly CI); the schedule artifact lands in
#: tests/artifacts/ for upload
CHAOS_FULL_ENV = "REPRO_CHAOS_FULL"
SCHEDULE_ARTIFACT = (
    Path(__file__).parent / "artifacts" / "chaos_fault_schedules.json"
)

CHAOS_FULL = env_flag(CHAOS_FULL_ENV)


def golden(key: str) -> str:
    digests = json.loads(SHARDED_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert key in digests, f"no sharded golden digest for {key}"
    return digests[key]


# ---------------------------------------------------------------------------
# The plan: grammar and the drawn schedule.
# ---------------------------------------------------------------------------


def test_parse_none_and_blank_mean_no_plan():
    assert FaultPlan.parse(None) is None
    assert FaultPlan.parse("") is None
    assert FaultPlan.parse("   ") is None


def test_explicit_positions_are_used_verbatim():
    events = FaultPlan.parse("crash@3:1").resolve(4)
    assert events == [FaultEvent("crash", 3, 1)]


def test_missing_positions_are_drawn_deterministically():
    first = FaultPlan.parse("seed=7,crash,stall").resolve(4)
    second = FaultPlan.parse("seed=7,crash,stall").resolve(4)
    assert first == second
    assert all(0 <= e.window < 6 for e in first)  # default horizon
    assert all(0 <= e.shard < 4 for e in first)
    # a different seed draws a different schedule
    assert FaultPlan.parse("seed=8,crash,stall").resolve(4) != first


def test_schedule_depends_on_shard_count_but_not_workload_rng():
    plan = FaultPlan.parse("seed=7,crash")
    assert plan.resolve(2) == plan.resolve(2)
    # the draw stream is keyed on (seed, num_shards): shard positions
    # must be valid for the actual fleet size
    for num_shards in (1, 2, 4, 8):
        for event in plan.resolve(num_shards):
            assert 0 <= event.shard < num_shards


def test_count_expansion_and_knobs():
    plan = FaultPlan.parse("seed=3,horizon=12,stall_s=0.25,stall*3")
    assert plan.seed == 3 and plan.horizon == 12 and plan.stall_s == 0.25
    events = plan.resolve(2)
    assert len(events) == 3
    assert {e.kind for e in events} == {"stall"}
    assert all(0 <= e.window < 12 for e in events)


def test_tear_events_draw_byte_counts():
    events = FaultPlan.parse("seed=1,tear*2").resolve(2)
    assert [e.kind for e in events] == ["tear", "tear"]
    assert all(e.window == -1 and e.shard == -1 for e in events)
    assert all(1 <= e.arg <= 40 for e in events)


@pytest.mark.parametrize(
    "spec",
    [
        "explode@1",            # unknown kind
        "crash,",               # empty entry
        "seed=x,crash",         # bad knob value
        "horizon=0,crash",      # horizon must be >= 1
        "stall_s=0,stall",      # stall must be positive
        "depth=3,crash",        # unknown knob
        "crash@x",              # bad window
        "crash@1:x",            # bad shard
        "crash@-1",             # negative position
        "crash*0",              # bad repeat count
        "seed=5",               # knobs only, no faults
    ],
)
def test_bad_specs_are_configuration_errors(spec):
    with pytest.raises(ConfigurationError):
        FaultPlan(spec)


def test_explicit_shard_out_of_range_is_rejected():
    with pytest.raises(ConfigurationError, match="shard 5"):
        FaultPlan.parse("crash@1:5").resolve(2)


def test_describe_is_json_serializable():
    description = FaultPlan.parse("seed=7,crash,tear").describe(2)
    assert json.loads(json.dumps(description)) == description
    assert description["seed"] == 7
    assert [e["kind"] for e in description["events"]] == ["crash", "tear"]


def test_injector_filters_to_one_shard_and_skips_tears():
    plan = FaultPlan.parse("crash@2:0,stall@3:1,tear")
    injector = plan.injector(1, 2)
    assert injector is not None
    assert injector._barrier_faults == {3: "stall"}
    assert plan.injector(0, 2)._barrier_faults == {2: "crash"}
    # shard untouched by the schedule gets no injector at all
    assert FaultPlan.parse("crash@1:0").injector(1, 2) is None


def test_splitmix64_is_the_reference_stream():
    # First outputs from state 0 — pinned so the schedule (and therefore
    # every chaos golden assertion) can never drift silently.
    state, first = splitmix64(0)
    _, second = splitmix64(state)
    assert first == 0xE220A8397B1DCDAF
    assert second == 0x6E789E6AA1B965F4
    assert mix64(1, 2) != mix64(2, 1)


# ---------------------------------------------------------------------------
# Plumbing: config validation and fingerprint exclusion.
# ---------------------------------------------------------------------------


def test_faults_require_sharded_run():
    config = build_scenario_config("fullmesh", "none")
    config.faults = "crash@1"
    with pytest.raises(ConfigurationError, match="shards >= 1"):
        config.validate()


def test_bad_fault_spec_fails_config_validation():
    config = build_scenario_config(
        "fullmesh", "none", shards=2, rng_mode="perpeer"
    )
    config.faults = "explode@1"
    with pytest.raises(ConfigurationError, match="unknown fault kind"):
        config.validate()


# mp runs on the tcp fleet and heals like it: test_mp_heals_a_crash_from_the_wal
@pytest.mark.parametrize("executor", ["serial"])
def test_faults_reject_non_tcp_executors(executor):
    """``ShardedScenario.run`` refuses, naming the executor it was given."""
    refusal = f"tcp and mp executors.*executor={executor!r}"
    with pytest.raises(ConfigurationError, match=refusal):
        run_training_sharded(
            "pace", "chord", "none", 2, executor=executor, faults="crash@1"
        )


def test_fingerprint_excludes_faults():
    clean = build_scenario_config(
        "fullmesh", "none", shards=2, rng_mode="perpeer"
    )
    faulted = build_scenario_config(
        "fullmesh", "none", shards=2, rng_mode="perpeer"
    )
    faulted.faults = "seed=7,crash"
    assert config_fingerprint(clean) == config_fingerprint(faulted)


# ---------------------------------------------------------------------------
# WAL tears.
# ---------------------------------------------------------------------------


def test_apply_wal_tears_chops_the_tail(tmp_path):
    wal = tmp_path / "torn.wal"
    run_training_sharded("pace", "chord", "none", 2, wal=str(wal))
    size = os.path.getsize(wal)
    torn = FaultPlan.parse("tear,seed=3").apply_wal_tears(str(wal), 2)
    assert 1 <= torn <= 40
    assert os.path.getsize(wal) == size - torn
    # the torn log still opens; the mangled tail record is discarded
    assert WalReader(str(wal)).truncated


def test_apply_wal_tears_never_eats_the_header(tmp_path):
    wal = tmp_path / "tiny.wal"
    run_training_sharded("pace", "chord", "none", 2, wal=str(wal))
    plan = FaultPlan.parse("tear*4000,seed=1")  # far more than the file
    plan.apply_wal_tears(str(wal), 2)
    reader = WalReader(str(wal))  # header + meta survive; zero windows ok
    assert reader.num_shards == 2
    assert reader.windows == []


def test_apply_wal_tears_missing_file_is_a_noop(tmp_path):
    assert FaultPlan.parse("tear").apply_wal_tears(
        str(tmp_path / "absent.wal"), 2
    ) == 0


# ---------------------------------------------------------------------------
# Chaos: injected faults against the live tcp fleet.  Every recovered run
# must land the checked-in sharded golden digest byte-for-byte.
# ---------------------------------------------------------------------------


def _chaos_run(faults, wal=None, resume=None, shards=2, overlay="chord"):
    return run_training_sharded(
        "pace", overlay, "none", shards, executor="tcp",
        wal=wal, resume=resume, faults=faults,
    )


def test_crash_recovers_to_identical_digest(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    run = _chaos_run("crash@2", wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] >= 1
    assert run.stats.faults["replayed_windows"] >= 1
    assert run.stats.faults["worker_deaths"] >= 1


@pytest.mark.parametrize("fault", ["crash", "corrupt"])
def test_mp_heals_a_crash_from_the_wal(fault, tmp_path, monkeypatch):
    """mp is the tcp fleet with every slot forked locally, so a crashed
    mp worker, or one that garbles its sync, is quarantined, respawned and
    replayed from the WAL like a tcp one."""
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    run = run_training_sharded(
        "pace", "chord", "none", 2, executor="mp",
        wal=str(tmp_path / "chaos.wal"), faults=f"seed=3,{fault}@1",
    )
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["worker_deaths"] == 1
    assert run.stats.faults["respawns"] == 1
    assert run.stats.faults["replayed_windows"] >= 1


def test_crash_at_window_zero_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    run = _chaos_run("crash@0:1", wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 1
    # death at barrier 0: nothing logged yet, nothing to replay
    assert run.stats.faults["replayed_windows"] == 0


def test_corrupt_frame_quarantines_and_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    run = _chaos_run("corrupt@1", wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] >= 1


def test_truncated_frame_quarantines_and_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    run = _chaos_run("truncate@2", wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] >= 1


def test_half_open_worker_is_unmasked_and_recovered(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "4")
    run = _chaos_run("halfopen@2", wal=str(tmp_path / "chaos.wal"))
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] >= 1
    assert run.stats.faults["worker_deaths"] >= 1


def test_stalled_worker_heartbeats_through_the_deadline(monkeypatch):
    # The stall (6s) far exceeds the read deadline (4s): without the
    # heartbeat the coordinator would declare the worker dead.  No WAL on
    # purpose — a false death declaration would abort the run loudly.
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "4")
    run = _chaos_run("stall@1,stall_s=6")
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["stalls"] >= 1
    assert run.stats.faults["heartbeats"] >= 1
    assert run.stats.faults["respawns"] == 0


def test_crash_without_wal_aborts_naming_the_checkpoint(monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    with pytest.raises(SimulationError) as excinfo:
        _chaos_run("crash@1")
    message = str(excinfo.value)
    assert "died mid-window" in message
    assert "no WAL checkpoint" in message
    assert "ScenarioConfig.wal" in message


def test_respawn_budget_bounds_recovery(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    monkeypatch.setenv(TCP_MAX_RESPAWNS_ENV, "0")
    with pytest.raises(SimulationError, match=TCP_MAX_RESPAWNS_ENV):
        _chaos_run("crash@1", wal=str(tmp_path / "chaos.wal"))


def test_recover_replays_a_serial_written_log(tmp_path, monkeypatch):
    # Cross-executor RECOVER: the replay source was written by the serial
    # executor; tcp resumes it, a worker crashes mid-resume, and the
    # replacement replays from the foreign log to the same digest.
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    wal = tmp_path / "serial.wal"
    reference = run_training_sharded(
        "pace", "chord", "none", 2, executor="serial", wal=str(wal)
    )
    run = _chaos_run("crash@1", resume=str(wal))
    assert run.digest() == reference.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 1


def test_injected_tear_on_resume_log_replays_shorter_prefix(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    wal = tmp_path / "torn.wal"
    run_training_sharded(
        "pace", "chord", "none", 2, executor="serial", wal=str(wal)
    )
    run = _chaos_run("tear,seed=3", resume=str(wal))
    assert run.digest() == golden("chord/pace/none/k2")


def test_multiple_faults_in_one_run(tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "30")
    run = _chaos_run(
        "crash@1:0,crash@3:1", wal=str(tmp_path / "chaos.wal")
    )
    assert run.digest() == golden("chord/pace/none/k2")
    assert run.stats.faults["respawns"] == 2
    assert run.stats.faults["worker_deaths"] == 2


# ---------------------------------------------------------------------------
# The nightly chaos fuzz (REPRO_CHAOS_FULL=1): fault kinds over overlay x
# K, schedules dumped as the CI artifact.
# ---------------------------------------------------------------------------

_FUZZ_MATRIX = [
    # (faults, overlay, shards)
    ("seed=11,crash", "chord", 2),
    ("seed=12,crash*2", "chord", 4),
    ("seed=13,crash", "superpeer", 2),
    ("seed=14,corrupt", "chord", 2),
    ("seed=15,truncate", "superpeer", 4),
    ("seed=16,crash,corrupt", "chord", 4),
    ("seed=17,halfopen", "superpeer", 2),
    ("seed=18,stall,crash,stall_s=1.5", "chord", 2),
]


@pytest.mark.skipif(
    not CHAOS_FULL, reason=f"full chaos sweep runs with {CHAOS_FULL_ENV}=1"
)
@pytest.mark.parametrize(
    "faults,overlay,shards",
    _FUZZ_MATRIX,
    ids=[f"{f}/{o}/k{k}" for f, o, k in _FUZZ_MATRIX],
)
def test_chaos_fuzz_full(faults, overlay, shards, tmp_path, monkeypatch):
    monkeypatch.setenv(TCP_TIMEOUT_ENV, "8")
    run = _chaos_run(
        faults, wal=str(tmp_path / "chaos.wal"), shards=shards,
        overlay=overlay,
    )
    assert run.digest() == golden(f"{overlay}/pace/none/k{shards}")
    plan = FaultPlan.parse(faults)
    injected = plan.resolve(shards)
    # One respawn per shard with a deadly event: the first kill fires,
    # and the RECOVER-ed replacement suppresses the rest of that shard's
    # schedule (or recovery would crash-loop).
    deadly_shards = {
        e.shard for e in injected
        if e.kind in ("crash", "halfopen", "corrupt", "truncate")
    }
    assert run.stats.faults["respawns"] == len(deadly_shards)
    # append this schedule to the CI artifact
    SCHEDULE_ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    existing = (
        json.loads(SCHEDULE_ARTIFACT.read_text(encoding="utf-8"))
        if SCHEDULE_ARTIFACT.exists()
        else []
    )
    existing.append(
        {
            "schedule": plan.describe(shards),
            "overlay": overlay,
            "digest": run.digest(),
            "faults_observed": dict(run.stats.faults),
        }
    )
    SCHEDULE_ARTIFACT.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
