"""Discrete-event simulation kernel.

A heap-based event loop with a virtual clock, engineered for million-message
runs: the heap holds plain ``(time, sequence, callback, args, handle)``
tuples (no per-event dataclass), the pending count is a live counter rather
than a queue scan, and :meth:`Simulator.schedule_batch` bulk-schedules whole
delivery blocks without allocating a handle per event.

Determinism is a hard requirement (experiments must be reproducible
bit-for-bit), so:

- ties in event time are broken by a monotonically increasing sequence
  number, never by object identity;
- all randomness flows from the simulator's single seeded
  :class:`numpy.random.Generator`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

EventCallback = Callable[..., None]


class Event:
    """Handle for a scheduled callback.

    The kernel stores bare tuples in its heap; this handle exists so callers
    can cancel an event or inspect its scheduled time.  Cancellation flips a
    flag the run loop checks when the entry surfaces — O(1), no heap surgery.
    """

    __slots__ = ("time", "sequence", "label", "cancelled", "fired", "_sim")

    def __init__(
        self, time: float, sequence: int, label: str, sim: "Simulator"
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.label = label
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event as void; the kernel will skip it."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired:
            self._sim._pending -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time} seq={self.sequence} {state} {self.label!r})"


#: heap entry layout: (time, sequence, callback, args, handle-or-None)
_QueueEntry = Tuple[float, int, EventCallback, tuple, Optional[Event]]


class _BlockRun:
    """A homogeneous delivery block living in the heap as ONE entry.

    :meth:`Simulator.schedule_block` pre-allocates the block's whole
    sequence-number range, then keeps exactly one heap entry alive for the
    block: popping record ``i`` pushes the entry for record ``i + 1`` (with
    its pre-allocated ``(time, seq)``) before firing the callback.  Because
    the block's times are non-decreasing and its sequence numbers are the
    same consecutive range a per-event ``schedule_batch_at`` would have
    assigned, the global pop order — and therefore every observable — is
    bit-identical to the per-event path, while the heap never balloons by
    the block size and no per-record entry/argument tuples exist up front.

    The run object itself is the heap entry's callback; per-record callback
    arguments are read out of the column sequences only when the record
    actually fires.
    """

    __slots__ = ("_sim", "times", "seq0", "callback", "columns", "count")

    def __init__(
        self,
        sim: "Simulator",
        times: Sequence[float],
        seq0: int,
        callback: EventCallback,
        columns: Sequence[Sequence[Any]],
    ) -> None:
        self._sim = sim
        self.times = times
        self.seq0 = seq0
        self.callback = callback
        self.columns = columns
        self.count = len(times)

    def __call__(self, index: int) -> None:
        successor = index + 1
        if successor < self.count:
            heapq.heappush(
                self._sim._queue,
                (
                    self.times[successor],
                    self.seq0 + successor,
                    self,
                    (successor,),
                    None,
                ),
            )
        self.callback(*[column[index] for column in self.columns])


class Simulator:
    """The event loop.

    Parameters
    ----------
    seed:
        Seed of the simulation-wide RNG (churn draws, latency jitter, ...).
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue: List[_QueueEntry] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._pending = 0
        #: time of the most recently executed event; unlike ``_now`` never
        #: moved by an ``until`` clamp — the sharded kernel agrees the
        #: global quiescence instant on it
        self._last_event_time = float("-inf")
        self.rng = np.random.default_rng(seed)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) queued events — O(1), maintained counter."""
        return self._pending

    def next_event_time(self) -> float:
        """Scheduled time of the earliest queued entry (``inf`` when empty).

        May report a cancelled entry's time — the window scheduler only
        needs a conservative lower bound, and a stale head merely yields one
        empty window before it is popped and skipped.
        """
        return self._queue[0][0] if self._queue else float("inf")

    def export_cursors(self) -> Dict[str, Any]:
        """Kernel cursor snapshot for the simulation WAL.

        Captures the virtual clock, the next tie-break sequence number, the
        live-event count, and the executed-event total — everything the WAL
        needs to assert that a resumed kernel sits at exactly the same point
        in the event stream.  Peeking the sequence counter consumes one
        value, so the counter is re-seeded at the peeked value: schedules
        issued after the snapshot draw the same numbers they would have
        drawn without it.
        """
        sequence = next(self._sequence)
        self._sequence = itertools.count(sequence)
        return {
            "now": self._now,
            "seq": sequence,
            "pending": self._pending,
            "events": self._events_processed,
        }

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        label: str = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Passing ``args`` instead of closing over state avoids building a
        closure per event on hot paths.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        sequence = next(self._sequence)
        event = Event(time, sequence, label, self)
        heapq.heappush(self._queue, (time, sequence, callback, args, event))
        self._pending += 1
        return event

    def schedule_at(
        self, time: float, callback: EventCallback, label: str = "", args: tuple = ()
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now {self._now}"
            )
        return self.schedule(time - self._now, callback, label, args)

    def schedule_batch(
        self,
        delays: Sequence[float],
        callback: EventCallback,
        args_seq: Optional[Iterable[tuple]] = None,
    ) -> int:
        """Bulk-schedule one callback over a block of delays.

        ``args_seq`` supplies per-event argument tuples (e.g. one message per
        delivery); when omitted the callback runs with no arguments.  No
        :class:`Event` handles are allocated — batch events cannot be
        cancelled individually, which is exactly right for in-flight message
        deliveries.  Returns the number of events scheduled.

        For large blocks the queue is extended and re-heapified in one O(n+k)
        pass instead of k O(log n) sifts.
        """
        now = self._now
        counter = self._sequence
        if args_seq is None:
            entries = [
                (now + delay, next(counter), callback, (), None)
                for delay in delays
            ]
        else:
            entries = [
                (now + delay, next(counter), callback, args, None)
                for delay, args in zip(delays, args_seq)
            ]
        return self._push_batch(entries)

    def schedule_batch_at(
        self,
        times: Sequence[float],
        callback: EventCallback,
        args_seq: Optional[Iterable[tuple]] = None,
    ) -> int:
        """Bulk-schedule one callback at a block of *absolute* virtual times.

        The scheduled-round primitive: a training round pre-computes every
        peer's activation time and registers the whole block here, so rounds
        from many peers interleave through one kernel run instead of
        serializing through repeated ``run(until=...)`` calls.  Times are
        used exactly as given (no ``now + delay`` re-addition), which keeps
        activation instants bit-identical to a sequential accumulation of
        the same gaps.  Like :meth:`schedule_batch`, no :class:`Event`
        handles are allocated.  Returns the number of events scheduled.
        """
        counter = self._sequence
        if args_seq is None:
            entries = [(time, next(counter), callback, (), None) for time in times]
        else:
            entries = [
                (time, next(counter), callback, args, None)
                for time, args in zip(times, args_seq)
            ]
        return self._push_batch(entries)

    def schedule_block(
        self,
        times: Sequence[float],
        callback: EventCallback,
        columns: Sequence[Sequence[Any]],
    ) -> int:
        """Array-native bulk schedule of one callback over a sorted block.

        The columnar injection primitive behind the sharded kernel's
        exchange path: ``times`` must be non-decreasing absolute virtual
        times and ``columns`` is one sequence per callback argument (record
        ``i`` fires ``callback(columns[0][i], columns[1][i], ...)``).  The
        whole block enters the heap as a single :class:`_BlockRun` entry —
        no per-event heap tuples, argument tuples, or :class:`Event`
        handles are allocated at schedule time — yet the pop order is
        bit-identical to :meth:`schedule_batch_at` over the same records:
        the block claims the same consecutive sequence-number range, and
        each record surfaces with its own pre-allocated ``(time, seq)``
        key.  Like the batch paths, block events cannot be cancelled
        individually.  Returns the number of events scheduled.
        """
        count = len(times)
        if count == 0:
            return 0
        now = self._now
        if times[0] < now:
            raise SimulationError(
                f"cannot schedule into the past (delay={times[0] - now})"
            )
        previous = times[0]
        for time in times:
            if time < previous:
                raise SimulationError(
                    "schedule_block requires non-decreasing times "
                    f"({time} after {previous})"
                )
            previous = time
        for column in columns:
            if len(column) != count:
                raise SimulationError(
                    "schedule_block column length mismatch "
                    f"({len(column)} != {count})"
                )
        seq0 = next(self._sequence)
        # Claim the rest of the block's sequence range in one hop: the
        # counter resumes exactly where per-event allocation would have
        # left it, so later schedules tie-break identically.
        self._sequence = itertools.count(seq0 + count)
        run = _BlockRun(self, times, seq0, callback, columns)
        heapq.heappush(self._queue, (times[0], seq0, run, (0,), None))
        self._pending += count
        return count

    def _push_batch(self, entries: List[_QueueEntry]) -> int:
        """Validate and push a block of heap entries (one O(n+k) heapify for
        large blocks instead of k O(log n) sifts)."""
        now = self._now
        queue = self._queue
        for entry in entries:
            if entry[0] < now:
                raise SimulationError(
                    f"cannot schedule into the past (delay={entry[0] - now})"
                )
        if len(entries) > 8 and len(entries) >= len(queue):
            queue.extend(entries)
            heapq.heapify(queue)
        else:
            push = heapq.heappush
            for entry in entries:
                push(queue, entry)
        self._pending += len(entries)
        return len(entries)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events; returns how many ran.

        ``until`` stops the clock at that virtual time (events beyond it stay
        queued); ``max_events`` bounds the number of callbacks executed.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        while queue:
            if max_events is not None and executed >= max_events:
                break
            time = queue[0][0]
            if until is not None and time > until:
                self._now = until
                break
            _, _, callback, args, handle = pop(queue)
            if handle is not None:
                if handle.cancelled:
                    continue
                handle.fired = True
            if time < self._now:
                raise SimulationError("event queue time went backwards")
            self._pending -= 1
            self._now = time
            self._last_event_time = time
            callback(*args)
            executed += 1
            self._events_processed += 1
        else:
            if until is not None and until > self._now:
                self._now = until
        return executed

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Drain the queue completely (with a runaway guard)."""
        executed = self.run(max_events=max_events)
        if self.pending_events and executed >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return executed

    def clear(self) -> None:
        """Drop all pending events (used between experiment phases)."""
        for _, _, _, _, handle in self._queue:
            if handle is not None and not handle.cancelled:
                handle.fired = True  # a cleared event can no longer cancel
        self._queue.clear()
        self._pending = 0
