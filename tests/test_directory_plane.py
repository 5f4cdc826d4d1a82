"""Unit tests for the directory-served control plane (repro.sim.shard).

The differential fuzz (tests/test_shard_equivalence.py) proves end-to-end
byte-identity; this file pins the machinery underneath it:

- overlay snapshot/restore round trips and diff/apply equivalence for every
  registered overlay (the "route resolution against a snapshot view"
  contract);
- delta *ordering* at a window barrier when several control events tie on
  virtual time — a crafted constant-session churn model makes every peer
  leave at exactly the same instant, which real exponential draws never do;
- the advance cursor (no duplicate or missed records across windows) and
  the service-traffic accounting staying outside golden fingerprints.
"""

import numpy as np
import pytest

from repro.overlay import make_overlay, overlay_names
from repro.sim.churn import ChurnModel, DirectoryChurnClient
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.shard import DirectoryControlPlane, ShardedScenario
from repro.sim.stats import StatsCollector

from tests.determinism_fixtures import (
    build_scenario_config,
    digest_of,
    run_training_perpeer,
    training_workload,
)


class ConstantChurn(ChurnModel):
    """Every peer's session/downtime is the same constant: all leave events
    land on one virtual instant — the tie the ordering contract covers."""

    def __init__(self, session: float = 5.0, down: float = 2.0) -> None:
        self.session = session
        self.down = down

    def session_time(self, rng: np.random.Generator) -> float:
        return self.session

    def downtime(self, rng: np.random.Generator) -> float:
        return self.down


def _directory_config(overlay="chord", shards=2, variant="churn", seed=0):
    return build_scenario_config(
        overlay, variant, seed=seed, rng_mode="perpeer", shards=shards,
    )


# ---------------------------------------------------------------------------
# Overlay snapshot / delta machinery, per registered overlay.
# ---------------------------------------------------------------------------


def _build_joined(name, members=8):
    overlay = make_overlay(name, seed=3, degree=3)
    for address in range(members):
        overlay.join(address)
    overlay.stabilize()
    return overlay


def _observables(overlay):
    """Everything a worker reads from a view: membership, links, routes."""
    members = overlay.members()
    neighbors = {a: overlay.neighbors(a) for a in members}
    routes = [
        (r.owner, tuple(r.path), r.success)
        for a in members[:4]
        for r in [overlay.route(a, (a * 0x9E3779B9) & 0xFFFFFFFF)]
    ]
    return members, neighbors, routes


@pytest.mark.parametrize("name", overlay_names())
def test_snapshot_restore_round_trip(name):
    authority = _build_joined(name)
    view = make_overlay(name, seed=3, degree=3)
    view.restore_state(authority.export_state())
    assert _observables(view) == _observables(authority)
    # Restoration computes nothing: the construction-cost counter is the
    # numeric witness the O(N/K) claim rests on.
    assert view.entries_built == 0
    assert authority.entries_built > 0


@pytest.mark.parametrize("name", overlay_names())
def test_maintenance_diff_applies_to_an_identical_view(name):
    authority = _build_joined(name)
    view = make_overlay(name, seed=3, degree=3)
    view.restore_state(authority.export_state())

    # A churn leave is a membership op each side applies itself...
    authority.leave(2)
    view.leave(2)
    # ...then maintenance recomputes on the authority only and is served
    # to the view as route-table edits.
    before = authority.export_state()
    authority.stabilize()
    authority.repair()
    edits = authority.diff_state(before)
    built_before = view.entries_built
    view.apply_state_edits(edits)
    assert view.entries_built == built_before  # served, not computed
    assert _observables(view) == _observables(authority)
    # And the RNG-bearing overlays stay aligned for later joins.
    authority.join(2)
    view.join(2)
    assert _observables(view) == _observables(authority)


def test_diff_state_is_empty_without_changes():
    authority = _build_joined("chord")
    before = authority.export_state()
    assert authority.diff_state(before) == []


# ---------------------------------------------------------------------------
# Plane mechanics: ordering ties, the advance cursor, stop suppression.
# ---------------------------------------------------------------------------


def test_tied_delta_records_order_by_generation_seq(monkeypatch):
    """Five leaves at exactly t=5.0: emission order must be the schedule
    order (peer-address order), the order the flat kernel's driver pops
    them."""
    monkeypatch.setattr(
        ScenarioConfig, "build_churn_model", lambda self: ConstantChurn()
    )
    plane = DirectoryControlPlane(_directory_config())
    plane.handle_requests([("start_churn", 0.0)])
    records = plane.advance(6.0)
    assert [kind for _, kind, _ in records] == ["leave"] * 5
    assert [payload for _, _, payload in records] == [0, 1, 2, 3, 4]
    assert all(time == 5.0 for time, _, _ in records)
    # The rejoins tie too, at 7.0, again in peer order.
    rejoins = plane.advance(8.0)
    assert [(kind, payload) for _, kind, payload in rejoins] == [
        ("join", peer) for peer in range(5)
    ]


def test_advance_cursor_never_duplicates_or_misses(monkeypatch):
    monkeypatch.setattr(
        ScenarioConfig, "build_churn_model", lambda self: ConstantChurn()
    )
    plane = DirectoryControlPlane(_directory_config())
    plane.handle_requests([("start_churn", 0.0)])
    seen = []
    # Windows that revisit earlier horizons must not re-emit anything.
    for until in (1.0, 5.0, 4.0, 5.0, 7.5, 7.5, 40.0):
        seen.extend(plane.advance(until))
    times = [time for time, _, _ in seen]
    assert times == sorted(times)
    leaves = [r for r in seen if r[1] == "leave"]
    joins = [r for r in seen if r[1] == "join"]
    maint = [r for r in seen if r[1] == "maintenance"]
    # 5.0 leave, 7.0 rejoin, 12.0 leave, 14.0 rejoin, ... up to 40:
    assert len(leaves) == 5 * len({5.0, 12.0, 19.0, 26.0, 33.0, 40.0})
    assert len(joins) == 5 * len({7.0, 14.0, 21.0, 28.0, 35.0})
    assert len(maint) == 1  # stabilize interval is 30s in the fixtures
    assert plane.records_emitted == len(seen)


def test_a_second_start_schedules_nothing(monkeypatch):
    """Every peer cycles from the first start on, as on the flat kernel:
    a later start_churn adds no second leave or stabilize chain."""
    monkeypatch.setattr(
        ScenarioConfig, "build_churn_model", lambda self: ConstantChurn()
    )
    once = DirectoryControlPlane(_directory_config())
    once.handle_requests([("start_churn", 0.0)])
    twice = DirectoryControlPlane(_directory_config())
    twice.handle_requests([("start_churn", 0.0)])
    assert twice.advance(3.0) == once.advance(3.0) == []
    twice.handle_requests([("start_churn", 3.0)])
    assert twice.advance(40.0) == once.advance(40.0)
    assert twice.next_time() == once.next_time()


def test_no_churn_model_sends_no_start_request():
    class _Sim:
        now = 0.0

    requests = []
    config = _directory_config(variant="none")
    client = DirectoryChurnClient(
        _Sim(), config.build_churn_model(), lambda *a: requests.append(a)
    )
    client.start([0, 1])
    assert requests == []


# ---------------------------------------------------------------------------
# End to end: crafted ties stay byte-identical across every kernel shape.
# ---------------------------------------------------------------------------


def test_tied_barrier_deltas_are_byte_identical_across_kernels(monkeypatch):
    monkeypatch.setattr(
        ScenarioConfig, "build_churn_model", lambda self: ConstantChurn()
    )
    stats, now = run_training_perpeer("nbagg", "chord", "churn")
    reference = digest_of(stats, now)
    workload = training_workload("nbagg", "churn")
    serial = ShardedScenario(
        _directory_config(shards=3), executor="serial"
    ).run(workload)
    assert serial.digest() == reference
    parallel = ShardedScenario(
        _directory_config(shards=3), executor="mp"
    ).run(workload)
    assert parallel.digest() == reference


# ---------------------------------------------------------------------------
# Service-traffic accounting stays out of the fingerprint.
# ---------------------------------------------------------------------------


def test_directory_counters_do_not_touch_the_fingerprint():
    stats = StatsCollector()
    stats.record_traffic("m", 100, src=1, dst=2)
    before = stats.fingerprint_bytes()
    stats.record_directory(7, 1234, edits=3)
    assert stats.fingerprint_bytes() == before
    assert stats.directory == {
        "control_bytes": 1234,
        "control_edits": 3,
        "control_records": 7,
    }
    merged = StatsCollector()
    merged.merge(stats)
    assert merged.directory == stats.directory
    assert merged.fingerprint_bytes() == before


def test_directory_run_reports_service_traffic():
    run = ShardedScenario(
        _directory_config(shards=2), executor="serial"
    ).run(training_workload("pace", "churn"))
    assert run.control_records > 0
    assert run.control_bytes > 0
    # Every worker applied every record: K x emitted.
    assert (
        run.stats.directory["control_records"] == 2 * run.control_records
    )


def test_control_plane_is_a_spelling_not_a_choice():
    """``shards`` implies the plane: the field accepts only that plane's
    name or nothing, and names itself when it refuses."""
    from dataclasses import replace

    from repro.errors import ConfigurationError

    sharded = _directory_config()
    for plane in (None, "directory"):
        replace(sharded, control_plane=plane).validate()
    for plane in ("replicated", "Directory"):
        with pytest.raises(ConfigurationError, match="control_plane"):
            replace(sharded, control_plane=plane).validate()
    flat = ScenarioConfig()
    for plane in (None, "replicated"):
        replace(flat, control_plane=plane).validate()


def test_plain_scenario_rejects_directory_config():
    from repro.errors import ConfigurationError

    config = ScenarioConfig(num_peers=4, control_plane="directory")
    with pytest.raises(ConfigurationError):
        config.validate()
    config = _directory_config()
    with pytest.raises(ConfigurationError):
        Scenario(config)
