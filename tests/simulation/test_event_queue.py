"""Unit tests for the cancellable event queue."""

import pytest

from repro.simulation.errors import SimulationTimeError
from repro.simulation.event_queue import EventQueue


class TestEventQueue:
    def test_empty_queue_has_no_next_time(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert len(queue) == 0
        assert queue.peek_time() is None
        assert queue.pop() is None

    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, order.append, "c")
        queue.push(1.0, order.append, "a")
        queue.push(2.0, order.append, "b")
        while queue:
            event = queue.pop()
            event.callback(*event.args)
        assert order == ["a", "b", "c"]

    def test_same_time_events_pop_in_insertion_order(self):
        queue = EventQueue()
        labels = []
        for label in ["first", "second", "third"]:
            queue.push(1.0, labels.append, label)
        popped = [queue.pop() for _ in range(3)]
        for event in popped:
            event.callback(*event.args)
        assert labels == ["first", "second", "third"]

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationTimeError):
            queue.push(-1.0, lambda: None)

    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        fired = []
        handle = queue.push(1.0, fired.append, "cancelled")
        queue.push(2.0, fired.append, "kept")
        handle.cancel()
        assert len(queue) == 1
        event = queue.pop()
        event.callback(*event.args)
        assert fired == ["kept"]

    def test_cancelling_twice_is_harmless(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert len(queue) == 0

    def test_peek_time_skips_cancelled_head(self):
        queue = EventQueue()
        head = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        head.cancel()
        assert queue.peek_time() == 5.0

    def test_len_counts_only_live_events(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(5)]
        handles[0].cancel()
        handles[3].cancel()
        assert len(queue) == 3


class TestLiveCounter:
    def test_len_is_constant_time_counter(self):
        """__len__ must not scan the heap: it reads a maintained counter."""
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        for handle in handles[:4]:
            handle.cancel()
        # The counter and the ground truth (scan) must agree at every step.
        live_scan = sum(1 for event in queue._heap if not event.handle.cancelled)
        assert len(queue) == live_scan == 6

    def test_cancel_after_pop_does_not_corrupt_counter(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped.handle is first
        first.cancel()  # already executed: must not decrement the live count
        assert len(queue) == 1
        assert queue.pop() is not None
        assert queue.pop() is None

    def test_cancelled_pop_path_keeps_counter_consistent(self):
        queue = EventQueue()
        doomed = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        doomed.cancel()
        assert len(queue) == 1
        assert queue.peek_time() == 2.0  # discards the cancelled head
        assert len(queue) == 1
        doomed.cancel()  # double-cancel after discard: still harmless
        assert len(queue) == 1

    def test_cancellation_preserves_pop_order(self):
        import random

        rng = random.Random(5)
        queue = EventQueue()
        handles = []
        for _ in range(192):
            handles.append(queue.push(rng.uniform(0.0, 100.0), lambda: None))
        expected = sorted(
            ((h.time, h.sequence) for h in handles if h.sequence % 3 == 0),
        )
        for handle in handles:
            if handle.sequence % 3 != 0:  # cancel 2/3
                handle.cancel()
        popped = []
        while queue:
            event = queue.pop()
            popped.append((event.time, event.sequence))
        assert popped == expected


class TestPushUnhandled:
    def test_push_unhandled_shares_order_with_push(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, order.append, "handled-early")
        queue.push_unhandled(1.0, order.append, "unhandled")
        queue.push(1.0, order.append, "handled-late")
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert order == ["handled-early", "unhandled", "handled-late"]

    def test_unhandled_events_count(self):
        queue = EventQueue()
        queue.push_unhandled(1.0, lambda: None)
        queue.push_unhandled(2.0, lambda: None)
        assert len(queue) == 2
