"""The seeded deterministic fault-injection plane.

A :class:`FaultPlan` turns a compact spec string into a concrete fault
schedule — which worker dies (or stalls, or mangles its wire frames) at
which window barrier — drawn entirely from the plan's **own** splitmix64
stream.  The workload RNGs are never touched, so the contract every
other layer of this stack lives by holds here too: a run with injected
faults (and the tcp coordinator's recovery machinery cleaning up after
them) must land the exact same golden digest as the never-faulted run.

Fault kinds
-----------

- ``crash`` — the worker process hard-exits (``os._exit``) at its
  window barrier, before syncing.  The coordinator sees EOF, respawns
  the slot, and replays the newcomer from the WAL prefix.
- ``stall`` — the worker sleeps ``stall_s`` seconds at the barrier
  while its heartbeat keeps flowing: a slow worker must *not* be
  declared dead under ``REPRO_TCP_TIMEOUT_S``.
- ``halfopen`` — the worker goes silent without closing its socket
  (heartbeat stopped, nothing sent or read); only the coordinator's
  activity deadline can unmask it.
- ``corrupt`` — the worker sends a garbage-magic frame in place of its
  sync, then exits: the coordinator must treat wire garbage as a dead
  worker, not honour it.
- ``truncate`` — the worker sends a frame header promising more payload
  bytes than it writes, then exits (a torn wire write).
- ``tear`` — chops a drawn number of bytes off the **resume** log's
  tail before the run opens it (the torn-tail crash simulator, as an
  injected fault); :class:`~repro.sim.wal.WalReader` already discards
  torn tails, so the digest cannot move.

Spec grammar
------------

A sharded run's ``ScenarioConfig.faults`` is comma-separated entries::

    seed=N | horizon=N | stall_s=F | kind[*count][@window[:shard]]

``seed`` (default 0) seeds the plan's splitmix64 stream; ``horizon``
(default 6) is the draw range for entries without an explicit
``@window``; ``stall_s`` (default 2.0) is the stall duration.  Window
and shard positions left out are drawn deterministically from the
stream, so ``seed=7,crash`` is a complete, reproducible schedule.

The plan is execution shape, not physics: like the tcp placement fields
it is excluded from the WAL config fingerprint
(:func:`repro.sim.wal.config_fingerprint`), so a faulted run can resume
a clean log and vice versa.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: splitmix64 constants — the same finalizer family as
#: ``repro.sim.network``'s per-peer stream seeding, reused verbatim so
#: the fault plane's draws are platform-stable 64-bit arithmetic.
_GAMMA = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_U64 = 0xFFFFFFFFFFFFFFFF

#: process faults fired at a window barrier, before the sync
_BARRIER_KINDS = ("crash", "stall", "halfopen")
#: wire faults fired in place of that barrier's sync frame
_WIRE_KINDS = ("corrupt", "truncate")
#: offline faults applied to the resume log before the run opens it
_FILE_KINDS = ("tear",)
KINDS = _BARRIER_KINDS + _WIRE_KINDS + _FILE_KINDS


def splitmix64(state: int) -> Tuple[int, int]:
    """One splitmix64 step: ``(next_state, uniform u64 output)``."""
    state = (state + _GAMMA) & _U64
    z = state
    z = ((z ^ (z >> 30)) * _MIX_B) & _U64
    z = ((z ^ (z >> 27)) * _MIX_C) & _U64
    return state, (z ^ (z >> 31)) & _U64


def mix64(*parts: int) -> int:
    """Order-sensitive mix of integers to one u64 (backoff-jitter seeds)."""
    value = 0x243F6A8885A308D3
    for part in parts:
        value = (value + (part & _U64) * _MIX_C) & _U64
        value ^= value >> 30
        value = (value * _MIX_B) & _U64
        value ^= value >> 27
        value = (value * _MIX_C) & _U64
        value ^= value >> 31
    return value


@dataclass(frozen=True)
class FaultEvent:
    """One resolved fault: where (window, shard) and what (kind).

    ``tear`` events have no window/shard position (both -1); ``arg``
    carries the drawn byte count to chop off the resume log's tail.
    """

    kind: str
    window: int
    shard: int
    arg: int = 0


class FaultPlan:
    """A parsed ``ScenarioConfig.faults`` spec plus its deterministic draw
    stream."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.seed = 0
        self.horizon = 6
        self.stall_s = 2.0
        #: (kind, window or None, shard or None), count-expanded,
        #: in spec order — the draw order is part of the schedule
        self._entries: List[Tuple[str, Optional[int], Optional[int]]] = []
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                raise ConfigurationError(
                    f"fault spec {spec!r} has an empty entry"
                )
            if "=" in entry:
                self._parse_knob(entry)
                continue
            self._parse_fault(entry)
        if not self._entries:
            raise ConfigurationError(
                f"fault spec {spec!r} sets knobs but schedules no faults"
            )

    def _parse_knob(self, entry: str) -> None:
        key, _, value = entry.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key == "seed":
                self.seed = int(value)
                return
            if key == "horizon":
                self.horizon = int(value)
                if self.horizon < 1:
                    raise ValueError
                return
            if key == "stall_s":
                self.stall_s = float(value)
                if not self.stall_s > 0:
                    raise ValueError
                return
        except ValueError:
            raise ConfigurationError(
                f"fault spec entry {entry!r}: invalid {key} value"
            ) from None
        raise ConfigurationError(
            f"fault spec entry {entry!r}: unknown knob {key!r} "
            "(expected seed, horizon, or stall_s)"
        )

    def _parse_fault(self, entry: str) -> None:
        kind, _, position = entry.partition("@")
        window: Optional[int] = None
        shard: Optional[int] = None
        if position:
            window_text, _, shard_text = position.partition(":")
            try:
                window = int(window_text)
                if shard_text:
                    shard = int(shard_text)
            except ValueError:
                raise ConfigurationError(
                    f"fault spec entry {entry!r}: expected "
                    "kind[*count][@window[:shard]]"
                ) from None
            if window < 0 or (shard is not None and shard < 0):
                raise ConfigurationError(
                    f"fault spec entry {entry!r}: window and shard "
                    "positions must be >= 0"
                )
        count = 1
        if "*" in kind:
            kind, _, count_text = kind.partition("*")
            try:
                count = int(count_text)
                if count < 1:
                    raise ValueError
            except ValueError:
                raise ConfigurationError(
                    f"fault spec entry {entry!r}: invalid repeat count"
                ) from None
        kind = kind.strip()
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r} in {self.spec!r}; "
                f"expected one of {', '.join(KINDS)}"
            )
        self._entries.extend([(kind, window, shard)] * count)

    @classmethod
    def parse(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """``None``/blank specs mean no plan; anything else must parse."""
        if spec is None or not spec.strip():
            return None
        return cls(spec)

    # -- the drawn schedule --------------------------------------------------

    def resolve(self, num_shards: int) -> List[FaultEvent]:
        """The fully drawn schedule for a ``num_shards``-shard run.

        Deterministic per (spec, num_shards): missing windows/shards and
        tear byte counts come from the plan's splitmix64 stream, in spec
        order, so the same spec always injects the same faults.
        """
        if num_shards < 1:
            raise ConfigurationError(
                "fault schedules target sharded runs (num_shards >= 1)"
            )
        state = mix64(self.seed, num_shards)
        events: List[FaultEvent] = []
        for kind, window, shard in self._entries:
            if kind in _FILE_KINDS:
                state, value = splitmix64(state)
                events.append(FaultEvent(kind, -1, -1, 1 + value % 40))
                continue
            if window is None:
                state, value = splitmix64(state)
                window = value % self.horizon
            if shard is None:
                state, value = splitmix64(state)
                shard = value % num_shards
            if shard >= num_shards:
                raise ConfigurationError(
                    f"fault spec {self.spec!r} names shard {shard} but "
                    f"the run has {num_shards} shards"
                )
            events.append(FaultEvent(kind, window, shard))
        return events

    def describe(self, num_shards: int) -> dict:
        """JSON-serializable schedule (the CI chaos-fuzz artifact)."""
        return {
            "spec": self.spec,
            "seed": self.seed,
            "horizon": self.horizon,
            "stall_s": self.stall_s,
            "num_shards": num_shards,
            "events": [
                {
                    "kind": event.kind,
                    "window": event.window,
                    "shard": event.shard,
                    "arg": event.arg,
                }
                for event in self.resolve(num_shards)
            ],
        }

    # -- applying the schedule -----------------------------------------------

    def injector(
        self,
        shard_id: int,
        num_shards: int,
        counters: Optional[Counter] = None,
        blackhole_s: float = 120.0,
    ) -> Optional["FaultInjector"]:
        """This shard's worker-side executioner, or None if the schedule
        never touches it."""
        events = [
            event
            for event in self.resolve(num_shards)
            if event.kind not in _FILE_KINDS and event.shard == shard_id
        ]
        if not events:
            return None
        return FaultInjector(events, self.stall_s, blackhole_s, counters)

    def apply_wal_tears(self, path: str, num_shards: int) -> int:
        """Chop the schedule's drawn tear bytes off the resume log's tail.

        Clamped to the file header, so the result is always a readable
        (possibly zero-window) WAL — :class:`~repro.sim.wal.WalReader`
        discards the torn record and resume replays the shorter prefix.
        Returns the bytes actually torn (0 when the schedule has no
        tears or the log is missing/header-only already).
        """
        tears = [e for e in self.resolve(num_shards) if e.kind == "tear"]
        if not tears or not os.path.exists(path):
            return 0
        from repro.sim.wal import _FILE_HEADER

        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            header = handle.read(_FILE_HEADER.size)
            if len(header) < _FILE_HEADER.size:
                return 0
            meta_len = _FILE_HEADER.unpack(header)[3]
            floor = _FILE_HEADER.size + meta_len
            target = max(floor, size - sum(e.arg for e in tears))
            handle.truncate(target)
        return size - target


class FaultInjector:
    """Worker-side fault executioner for one shard.

    Installed as ``_ShardRuntime.fault_hook`` (barrier faults) and into
    the fleet channel (wire faults).  Never installed on a recovering
    worker: a replacement replaying the WAL prefix must not re-fire the
    fault that killed its predecessor, or recovery would crash-loop.
    """

    def __init__(
        self,
        events: List[FaultEvent],
        stall_s: float,
        blackhole_s: float,
        counters: Optional[Counter] = None,
    ) -> None:
        self._barrier_faults: Dict[int, str] = {}
        self._wire_faults: Dict[int, str] = {}
        for event in events:
            if event.kind in _WIRE_KINDS:
                self._wire_faults[event.window] = event.kind
            else:
                self._barrier_faults[event.window] = event.kind
        self.stall_s = stall_s
        self.blackhole_s = blackhole_s
        #: survivable-fault accounting (stalls); folded into the worker's
        #: ``StatsCollector.faults`` family.  Crash-family faults cannot
        #: report (the process is gone) — the coordinator accounts those.
        self.counters = counters if counters is not None else Counter()
        self._heartbeat = None

    def bind_heartbeat(self, heartbeat) -> None:
        """The worker's PING thread, stopped by half-open faults."""
        self._heartbeat = heartbeat

    def at_barrier(self, window: int) -> None:
        """Fire this window's process fault (the runtime fault hook)."""
        kind = self._barrier_faults.get(window)
        if kind is None:
            return
        if kind == "crash":
            os._exit(3)
        if kind == "stall":
            # The heartbeat keeps flowing: the coordinator must wait the
            # stall out rather than declaring this worker dead.
            self.counters["stalls"] += 1
            time.sleep(self.stall_s)
            return
        # halfopen: stop the heartbeat and go dark without closing the
        # socket — only the coordinator's activity deadline can tell.
        # Exit (well after the coordinator gave up on us) so teardown
        # never waits on a zombie.
        if self._heartbeat is not None:
            self._heartbeat.stop()
        time.sleep(self.blackhole_s)
        os._exit(3)

    def wire_fault(self, barrier: int) -> Optional[str]:
        """'corrupt'/'truncate' when this barrier's sync frame should be
        mangled instead of sent, else None."""
        return self._wire_faults.get(barrier)
