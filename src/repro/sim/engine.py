"""Discrete-event simulation kernel.

A heap-based event loop with a virtual clock, engineered for million-message
runs: the heap holds plain ``(time, sequence, callback, args)`` tuples (no
per-event object), the pending count is a live counter rather than a queue
scan, :meth:`Simulator.schedule_batch` bulk-schedules a block of events in
one pass, and :meth:`Simulator.schedule_run` puts a whole delivery block in
the heap as one entry that walks its sorted rows (:class:`_BlockRun`).  A
scheduled event cannot be cancelled: every entry in the heap fires.

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


#: heap entry layout: (time, sequence, callback, args)
_QueueEntry = Tuple[float, int, EventCallback, tuple]

_heappush = heapq.heappush


def _untimely(time: float, now: float) -> SimulationError:
    """The error for an event time that is not ``>= now`` — in the past,
    or NaN, which every comparison fails and which would corrupt the
    heap's order silently."""
    return SimulationError(f"cannot schedule an event at t={time} (now {now})")


class _BlockRun:
    """A block of deliveries living in the heap as ONE entry.

    Row ``i`` fires ``callback(columns[0][i], columns[1][i], ...)`` at
    ``times[i]`` and carries ``seqs[i]``, the sequence number a per-event
    :meth:`Simulator.schedule_batch` would have given it.  The rows are
    sorted by ``(time, seq)``, so the run's head — the one heap entry it
    keeps alive — is always its smallest remaining key: popping row ``i``
    pushes row ``i + 1`` with its own ``(time, seq)`` before firing the
    callback.  Every queued row fires and no key is shared, so the global
    pop order, and with it ``next_event_time``, ``pending_events`` and
    ``export_cursors``, is bit-identical to one heap entry per row, while
    the heap never grows by the block size and no per-row entry or
    argument tuple exists before the row is due.

    The run itself is the heap entry's callback; its argument is the row.
    Rows fire strictly in order, so one ``map`` of the callback over the
    columns fires them, one ``next`` a row.
    """

    __slots__ = ("_queue", "times", "seqs", "callback", "columns", "count",
                 "_fire")

    def __init__(
        self,
        queue: List[_QueueEntry],
        times: Sequence[float],
        seqs: Sequence[int],
        callback: EventCallback,
        columns: Sequence[Sequence[Any]],
    ) -> None:
        self._queue = queue
        self.times = times
        self.seqs = seqs
        self.callback = callback
        self.columns = columns
        self.count = len(times)
        self._fire = (
            map(callback, *columns) if columns
            else itertools.starmap(callback, itertools.repeat((), self.count))
        )

    def __call__(self, index: int) -> None:
        successor = index + 1
        if successor < self.count:
            _heappush(
                self._queue,
                (self.times[successor], self.seqs[successor], self,
                 (successor,)),
            )
        next(self._fire)


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
        """Queued events not yet run — O(1), maintained counter."""
        return self._pending

    def next_event_time(self) -> float:
        """Scheduled time of the earliest queued event (``inf`` when empty).

        Exact: every queued entry fires, so the head is the next event.
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
        self, delay: float, callback: EventCallback, args: tuple = ()
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Passing ``args`` instead of closing over state avoids building a
        closure per event on hot paths.
        """
        if not delay >= 0:  # a NaN delay fails too
            raise _untimely(self._now + delay, self._now)
        heapq.heappush(
            self._queue,
            (self._now + delay, next(self._sequence), callback, args),
        )
        self._pending += 1

    def schedule_at(
        self, time: float, callback: EventCallback, args: tuple = ()
    ) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if not time >= self._now:
            raise _untimely(time, self._now)
        self.schedule(time - self._now, callback, args)

    def schedule_batch(
        self,
        delays: Sequence[float],
        callback: EventCallback,
        args_seq: Optional[Iterable[tuple]] = None,
    ) -> int:
        """Bulk-schedule one callback over a block of delays.

        ``args_seq`` supplies per-event argument tuples (e.g. one message per
        delivery); when omitted the callback runs with no arguments.
        Returns the number of events scheduled.

        For large blocks the queue is extended and re-heapified in one O(n+k)
        pass instead of k O(log n) sifts.
        """
        now = self._now
        counter = self._sequence
        # The counter zips last, so it advances once per scheduled row.
        if args_seq is None:
            entries = [
                (now + delay, seq, callback, ())
                for delay, seq in zip(delays, counter)
            ]
        else:
            entries = [
                (now + delay, seq, callback, args)
                for delay, args, seq in zip(delays, args_seq, counter)
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
        the same gaps.  Returns the number of events scheduled.
        """
        counter = self._sequence
        if args_seq is None:
            entries = [(time, next(counter), callback, ()) for time in times]
        else:
            entries = [
                (time, next(counter), callback, args)
                for time, args in zip(times, args_seq)
            ]
        return self._push_batch(entries)

    def schedule_run(
        self,
        delays: Sequence[float],
        callback: EventCallback,
        columns: Sequence[Sequence[Any]],
    ) -> int:
        """Bulk-schedule one callback over a block of rows as ONE heap entry.

        Observationally :meth:`schedule_batch` over ``zip(*columns)``:
        row ``i`` fires ``callback(columns[0][i], columns[1][i], ...)`` at
        ``now + delays[i]`` under the sequence number ``schedule_batch``
        would have given it, so the pop order and every cursor are the
        same.  The rows are sorted once by ``(time, row)`` — a stable
        argsort — and enter the heap as a :class:`_BlockRun`, the
        delivery block of a fan-out.  Returns the number of events
        scheduled.
        """
        count = len(delays)
        if count == 0:
            return 0
        times = self._now + np.asarray(delays, dtype=float)
        order = np.argsort(times, kind="stable")
        times = times[order]
        self._check_run(times[0], times[-1], columns, count)
        seq0 = self._claim(count)
        rows = order.tolist()
        self._push_run(
            times.tolist(), (order + seq0).tolist(), callback,
            [[column[row] for row in rows] for column in columns],
        )
        return count

    def schedule_block(
        self,
        times: Sequence[float],
        callback: EventCallback,
        columns: Sequence[Sequence[Any]],
    ) -> int:
        """:meth:`schedule_run` over rows already sorted by absolute time.

        The columnar injection primitive behind the sharded kernel's
        exchange path: ``times`` must be non-decreasing absolute virtual
        times and ``columns`` is one sequence per callback argument.  The
        rows keep their order, so the block claims the consecutive
        sequence range :meth:`schedule_batch_at` would, row ``i`` taking
        ``seq0 + i``, and its pop order is bit-identical to that per-event
        path.  Returns the number of events scheduled.
        """
        count = len(times)
        if count == 0:
            return 0
        previous = times[0]
        for time in times:
            if not time >= previous:
                raise SimulationError(
                    "schedule_block requires non-decreasing times "
                    f"({time} after {previous})"
                )
            previous = time
        self._check_run(times[0], times[-1], columns, count)
        seq0 = self._claim(count)
        self._push_run(times, range(seq0, seq0 + count), callback, columns)
        return count

    def _check_run(self, first: float, last: float,
                   columns: Sequence[Sequence[Any]], count: int) -> None:
        """Refuse a sorted run that starts in the past or ends in NaN (a
        stable argsort sorts NaN last, where a heap would not keep it), or
        whose columns do not hold one value per row."""
        for time in (first, last):
            if not time >= self._now:
                raise _untimely(time, self._now)
        for column in columns:
            if len(column) != count:
                raise SimulationError(
                    f"run column length mismatch ({len(column)} != {count})"
                )

    def _claim(self, count: int) -> int:
        """Claim ``count`` consecutive sequence numbers in one hop and
        return the first: the counter resumes exactly where per-event
        allocation would have left it, so later schedules tie-break
        identically."""
        seq0 = next(self._sequence)
        self._sequence = itertools.count(seq0 + count)
        return seq0

    def _push_run(self, times, seqs, callback, columns) -> None:
        run = _BlockRun(self._queue, times, seqs, callback, columns)
        _heappush(self._queue, (times[0], seqs[0], run, (0,)))
        self._pending += run.count

    def _push_batch(self, entries: List[_QueueEntry]) -> int:
        """Validate and push a block of heap entries (one O(n+k) heapify for
        large blocks instead of k O(log n) sifts)."""
        now = self._now
        queue = self._queue
        for entry in entries:
            if not entry[0] >= now:
                raise _untimely(entry[0], now)
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
            _, _, callback, args = pop(queue)
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
