"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import heap_entries
from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_schedule_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.schedule(1.0, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(5.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [5.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0


class TestRunControl:
    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(10.0, lambda: hits.append(2))
        executed = sim.run(until=5.0)
        assert executed == 1
        assert hits == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_then_continue(self):
        sim = Simulator()
        hits = []
        sim.schedule(10.0, lambda: hits.append(1))
        sim.run(until=5.0)
        sim.run()
        assert hits == [1]

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert sim.pending_events == 7

    def test_run_until_idle_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_deterministic_rng(self):
        a = Simulator(seed=42).rng.random()
        b = Simulator(seed=42).rng.random()
        assert a == b


class TestCallbackArgs:
    def test_args_passed_without_closure(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, hits.append, args=("payload",))
        sim.run()
        assert hits == ["payload"]


class TestScheduleBatch:
    def test_batch_interleaves_with_singles(self):
        sim = Simulator()
        order = []
        sim.schedule(2.5, lambda: order.append("single"))
        sim.schedule_batch(
            [1.0, 3.0, 2.0], order.append, [("a",), ("c",), ("b",)]
        )
        sim.run()
        assert order == ["a", "b", "single", "c"]

    def test_batch_ties_keep_submission_order(self):
        sim = Simulator()
        order = []
        sim.schedule_batch([1.0] * 4, order.append, [(i,) for i in range(4)])
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_batch_counts_as_pending(self):
        sim = Simulator()
        scheduled = sim.schedule_batch([1.0, 2.0], lambda: None)
        assert scheduled == 2
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_large_batch_heapify_path(self):
        # Batches larger than the live queue take the extend+heapify path;
        # ordering must be identical to one-by-one pushes.
        sim = Simulator()
        order = []
        delays = [float((i * 7) % 20 + 1) for i in range(50)]
        sim.schedule_batch(delays, order.append, [(d,) for d in delays])
        sim.run()
        assert order == sorted(delays) != delays

    def test_negative_batch_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch([1.0, -0.5], lambda: None)


class TestScheduleBatchAt:
    def test_absolute_times_used_exactly(self):
        # schedule_batch_at must not re-add `now`: the activation instants
        # land bit-identically on the given floats (the scheduled-round
        # pattern depends on this for scalar/batch equivalence).
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run()  # now == 0.5
        seen = []
        times = [0.5 + 0.1, 0.5 + 0.1 + 0.2]
        sim.schedule_batch_at(times, lambda: seen.append(sim.now))
        sim.run()
        assert seen == times

    def test_interleaves_with_relative_schedules(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("mid"))
        sim.schedule_batch_at([1.0, 3.0], order.append, [("a",), ("b",)])
        sim.run()
        assert order == ["a", "mid", "b"]

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_batch_at([0.5], lambda: None)

    def test_counts_as_pending_and_without_args(self):
        sim = Simulator()
        fired = []
        assert sim.schedule_batch_at([1.0, 2.0], lambda: fired.append(sim.now)) == 2
        assert sim.pending_events == 2
        sim.run()
        assert fired == [1.0, 2.0]
        assert sim.pending_events == 0


class TestPendingCounter:
    def test_pending_is_live_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.schedule_at(2.5, lambda: None)
        assert sim.pending_events == 6 == len(sim._queue)
        sim.run(max_events=2)
        assert sim.pending_events == 4 == len(sim._queue)
        sim.run(until=3.0)  # the clamp leaves the rest queued
        assert sim.pending_events == 2 == len(sim._queue)
        sim.run()
        assert sim.pending_events == 0


class TestScheduleBlock:
    """The array-native block path must be observationally identical to
    schedule_batch_at over the same records — same pop order, same
    sequence-number consumption, same pending accounting."""

    def _run_both(self, plan):
        """plan(sim, schedule) builds one scenario; schedule(times, cb,
        columns) is either the block or the per-event path."""

        def batch(sim, times, callback, columns):
            sim.schedule_batch_at(times, callback, zip(*columns))

        def block(sim, times, callback, columns):
            sim.schedule_block(times, callback, columns)

        logs = []
        for schedule in (batch, block):
            sim = Simulator(seed=9)
            log = []
            plan(sim, lambda t, cb, cols: schedule(sim, t, cb, cols), log)
            logs.append(log)
        assert logs[0] == logs[1]
        return logs[1]

    def test_matches_batch_pop_order_with_interleaving(self):
        def plan(sim, schedule, log):
            sim.schedule(1.5, lambda: log.append(("single", sim.now)))
            schedule(
                [1.0, 1.5, 1.5, 3.0],
                lambda tag: log.append((tag, sim.now)),
                [["a", "b", "c", "d"]],
            )
            # later schedules must tie-break AFTER the whole block's
            # pre-allocated sequence range
            sim.schedule_at(1.5, lambda: log.append(("late", sim.now)))
            sim.run()

        log = self._run_both(plan)
        assert [entry[0] for entry in log] == [
            "a", "single", "b", "c", "late", "d",
        ]

    def test_multi_column_arguments(self):
        sim = Simulator()
        seen = []
        sim.schedule_block(
            [1.0, 2.0],
            lambda a, b: seen.append((a, b, sim.now)),
            [[10, 20], ["x", "y"]],
        )
        sim.run()
        assert seen == [(10, "x", 1.0), (20, "y", 2.0)]

    def test_pending_accounting_and_return_value(self):
        sim = Simulator()
        assert sim.schedule_block([], lambda: None, []) == 0
        assert sim.schedule_block([1.0, 2.0, 3.0], lambda v: None, [[1, 2, 3]]) == 3
        assert sim.pending_events == 3
        sim.run(max_events=1)
        assert sim.pending_events == 2
        assert sim.events_processed == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 3

    def test_until_clamp_mid_block_resumes(self):
        sim = Simulator()
        seen = []
        sim.schedule_block(
            [1.0, 2.0, 3.0], seen.append, [["a", "b", "c"]]
        )
        sim.run(until=1.5)
        assert seen == ["a"] and sim.now == 1.5
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_block([0.5], lambda v: None, [[1]])

    def test_decreasing_times_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="non-decreasing"):
            sim.schedule_block([2.0, 1.0], lambda v: None, [[1, 2]])

    def test_column_length_mismatch_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="mismatch"):
            sim.schedule_block([1.0, 2.0], lambda v: None, [[1]])
        with pytest.raises(SimulationError, match="mismatch"):
            sim.schedule_run([1.0, 2.0], lambda v: None, [[1, 2, 3]])
        assert sim.pending_events == 0


class TestNotANumberTimes:
    """A NaN time fails every comparison, so a ``time < now`` guard lets it
    through and it corrupts the heap's order silently; every entry point
    refuses it, and names it."""

    NAN = float("nan")

    @pytest.mark.parametrize("schedule", [
        lambda sim, nan: sim.schedule(nan, lambda: None),
        lambda sim, nan: sim.schedule_at(nan, lambda: None),
        lambda sim, nan: sim.schedule_batch([1.0, nan], lambda: None),
        lambda sim, nan: sim.schedule_batch_at([nan], lambda: None),
        lambda sim, nan: sim.schedule_block([nan], lambda v: None, [[1]]),
        lambda sim, nan: sim.schedule_block(
            [1.0, nan], lambda v: None, [[1, 2]]
        ),
        lambda sim, nan: sim.schedule_run([nan, 1.0], lambda v: None, [[1, 2]]),
        lambda sim, nan: sim.schedule_run([1.0, nan], lambda v: None, [[1, 2]]),
    ])
    def test_refused_by_name_and_nothing_queued(self, schedule):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            schedule(sim, self.NAN)
        assert sim.pending_events == 0 and sim._queue == []

    def test_run_refuses_the_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="t=0.5"):
            sim.schedule_run([0.5, -0.5], lambda v: None, [[1, 2]])


# -- delivery runs: one heap entry, the pop order of one entry per row -------

#: few distinct delays, so rows tie exactly inside a block and across blocks
_DELAYS = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.5))


@st.composite
def _run_plans(draw):
    """Blocks to schedule up front (``run`` rows in any order, ``block``
    rows sorted, ``single`` one event), the blocks a row schedules when it
    fires, and the stops (``until`` / ``max_events``) the run makes."""

    def block():
        kind = draw(st.sampled_from(("run", "run", "block", "single")))
        delays = draw(st.lists(_DELAYS, min_size=1, max_size=6))
        if kind == "block":
            delays.sort()
        if kind == "single":
            delays = delays[:1]
        return kind, delays

    upfront = [block() for _ in range(draw(st.integers(1, 5)))]
    nested = [block() for _ in range(draw(st.integers(0, 3)))]
    stops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("until"), st.sampled_from((0.5, 1.0, 1.25, 2.5))),
            st.tuples(st.just("max"), st.integers(0, 7)),
        ),
        max_size=4,
    ))
    return upfront, nested, stops


class _Script:
    """Runs one plan on one simulator; ``as_runs`` picks how a block is
    scheduled — ``schedule_run`` / ``schedule_block``, or the per-event
    ``schedule_batch`` / ``schedule_batch_at`` over the same rows."""

    def __init__(self, plan, as_runs):
        self.upfront, self.nested, self.stops = plan
        self.as_runs = as_runs
        self.sim = Simulator()
        self.log = []
        self.blocks = 0

    def schedule(self, kind, delays):
        sim = self.sim
        tags = [(self.blocks, row) for row in range(len(delays))]
        self.blocks += 1
        if kind == "single":
            sim.schedule(delays[0], self.fire, (tags[0],))
        elif kind == "block":
            times = [sim.now + delay for delay in delays]
            if self.as_runs:
                sim.schedule_block(times, self.fire, [tags])
            else:
                sim.schedule_batch_at(times, self.fire, zip(tags))
        elif self.as_runs:
            sim.schedule_run(delays, self.fire, [tags])
        else:
            sim.schedule_batch(delays, self.fire, zip(tags))

    def fire(self, tag):
        self.log.append((self.sim.now, tag))
        # the first rows to fire schedule the nested blocks, mid-run
        if len(self.log) <= len(self.nested):
            self.schedule(*self.nested[len(self.log) - 1])

    def observed(self):
        sim = self.sim
        heap = sorted(
            (time, seq, args) for time, seq, _, args in heap_entries(sim._queue)
        )
        return (list(self.log), heap, sim.pending_events, sim.now,
                sim.next_event_time(), sim.export_cursors())

    def __call__(self):
        for block in self.upfront:
            self.schedule(*block)
        seen = [self.observed()]
        for stop, value in self.stops:
            if stop == "until":
                self.sim.run(until=self.sim.now + value)
            else:
                self.sim.run(max_events=value)
            seen.append(self.observed())
        self.sim.run()
        seen.append(self.observed())
        return seen


#: two runs whose rows are not in time order, stopped while both are half
#: fired: the heap then holds rows whose sequence number is not their
#: sorted position — what a run keyed by sorted position gets wrong
_UNSORTED_MID_RUN = (
    [("run", [2.5, 0.0, 1.0, 0.0]), ("single", [1.0]),
     ("run", [1.0, 0.5, 0.0])],
    [("run", [1.5, 0.0])],
    [("until", 1.0), ("max", 1)],
)


@settings(max_examples=200, deadline=None)
@given(plan=_run_plans())
@example(plan=_UNSORTED_MID_RUN)
def test_a_run_pops_as_one_event_per_row(plan):
    """Runs interleaved with ordinary events, with other runs and with
    blocks a firing row schedules, stopped by ``until`` and
    ``max_events`` in the middle of a run: the pop order, the heap read
    one row per entry, ``pending_events``, ``next_event_time`` and
    ``export_cursors`` equal ``schedule_batch`` over the same rows."""
    assert _Script(plan, as_runs=True)() == _Script(plan, as_runs=False)()
