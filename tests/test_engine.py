"""Tests for the discrete-event kernel."""

import pytest

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
