"""Unit tests for the simulator's cancellable event queue (its heap)."""

import functools
import random

import pytest

from repro.simulation.errors import SimulationTimeError


def live_scan(simulator) -> int:
    """Ground truth for ``pending_events``: the heap entries not cancelled."""
    return sum(1 for event in simulator._heap if not event.handle.cancelled)


class TestEventQueue:
    def test_empty_queue_has_no_next_time(self, simulator):
        assert simulator.pending_events == 0
        assert simulator.peek_time() is None
        assert simulator.run_until_idle() == 0
        assert simulator.now == 0.0

    def test_events_pop_in_time_order(self, simulator):
        order = []
        simulator.schedule_at(3.0, order.append, "c")
        simulator.schedule_at(1.0, order.append, "a")
        simulator.schedule_at(2.0, order.append, "b")
        assert simulator.run_until_idle() == 3
        assert order == ["a", "b", "c"]

    def test_same_time_events_pop_in_insertion_order(self, simulator):
        labels = []
        for label in ["first", "second", "third"]:
            simulator.schedule_at(1.0, labels.append, label)
        simulator.run_until_idle()
        assert labels == ["first", "second", "third"]

    def test_entries_never_compare_their_callbacks(self, simulator):
        # partial objects do not order: a tie on (time, sequence) would raise.
        fired = []
        for label in range(50):
            simulator.schedule_at(1.0, functools.partial(fired.append, label))
        simulator.run_until_idle()
        assert fired == list(range(50))

    def test_negative_time_rejected(self, simulator):
        with pytest.raises(SimulationTimeError):
            simulator.schedule_at(-1.0, lambda: None)
        with pytest.raises(SimulationTimeError):
            simulator.schedule_fire_and_forget_at(-1.0, lambda: None)
        assert simulator.pending_events == 0

    def test_cancelled_event_is_skipped(self, simulator):
        fired = []
        handle = simulator.schedule_at(1.0, fired.append, "cancelled")
        simulator.schedule_at(2.0, fired.append, "kept")
        handle.cancel()
        assert simulator.pending_events == 1
        assert simulator.run_until_idle() == 1
        assert fired == ["kept"]

    def test_cancelling_twice_is_harmless(self, simulator):
        handle = simulator.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert simulator.pending_events == 0

    def test_peek_time_skips_cancelled_head(self, simulator):
        head = simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(5.0, lambda: None)
        head.cancel()
        assert simulator.peek_time() == 5.0

    def test_peek_time_after_a_window_is_the_next_event(self, simulator):
        # A shard runs one window with ``run(until=...)``, then reads the next event.
        simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(3.0, lambda: None)
        assert simulator.run(until=2.0) == 1
        assert (simulator.now, simulator.peek_time()) == (2.0, 3.0)

    def test_len_counts_only_live_events(self, simulator):
        handles = [simulator.schedule_at(float(i), lambda: None) for i in range(5)]
        handles[0].cancel()
        handles[3].cancel()
        assert simulator.pending_events == 3


class TestLiveCounter:
    def test_len_is_constant_time_counter(self, simulator):
        """``pending_events`` does not scan the heap: it reads a maintained count."""
        handles = [simulator.schedule_at(float(i), lambda: None) for i in range(10)]
        assert simulator.pending_events == 10
        for handle in handles[:4]:
            handle.cancel()
        # The counter and the ground truth (scan) must agree at every step.
        assert simulator.pending_events == live_scan(simulator) == 6

    def test_cancel_after_pop_does_not_corrupt_counter(self, simulator):
        first = simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(2.0, lambda: None)
        assert simulator.step() is True
        first.cancel()  # already executed: must not decrement the live count
        assert simulator.pending_events == 1
        assert simulator.step() is True
        assert simulator.step() is False

    def test_cancelled_pop_path_keeps_counter_consistent(self, simulator):
        doomed = simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(2.0, lambda: None)
        doomed.cancel()
        assert simulator.pending_events == 1
        assert simulator.peek_time() == 2.0  # discards the cancelled head
        assert simulator.pending_events == 1
        doomed.cancel()  # double-cancel after discard: still harmless
        assert simulator.pending_events == live_scan(simulator) == 1

    def test_cancellation_preserves_pop_order(self, simulator):
        rng = random.Random(5)
        popped = []
        handles = []
        for _ in range(192):
            time = rng.uniform(0.0, 100.0)
            handles.append(
                simulator.schedule_at(time, lambda: popped.append(simulator.now))
            )
        expected = sorted(
            ((h.time, h.sequence) for h in handles if h.sequence % 3 == 0),
        )
        for handle in handles:
            if handle.sequence % 3 != 0:  # cancel 2/3
                handle.cancel()
        assert simulator.run_until_idle() == len(expected)
        assert popped == [time for time, _ in expected]


class TestPushUnhandled:
    """Fire-and-forget events: no handle, the same ``(time, sequence)`` order."""

    def test_push_unhandled_shares_order_with_push(self, simulator):
        order = []
        simulator.schedule_at(1.0, order.append, "handled-early")
        simulator.schedule_fire_and_forget_at(1.0, order.append, "unhandled")
        simulator.schedule_at(1.0, order.append, "handled-late")
        simulator.run_until_idle()
        assert order == ["handled-early", "unhandled", "handled-late"]

    def test_unhandled_events_count(self, simulator):
        simulator.schedule_fire_and_forget_at(1.0, lambda: None)
        simulator.schedule_fire_and_forget_at(2.0, lambda: None)
        assert simulator.pending_events == 2
        assert simulator.run_until_idle() == 2
