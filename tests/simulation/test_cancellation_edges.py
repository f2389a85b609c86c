"""Cancellation edge cases: the live counter and compaction stay consistent.

The event queue keeps an O(1) live counter (cancelled handles report back)
and compacts the heap once dead entries dominate.  These tests drive every
awkward cancellation path — ``cancel(None)``, double-cancel, cancel after
the event already fired, cancel *from inside* a running event — and assert
``Simulator.pending_events`` / the queue's dead-entry accounting never
drift, including across threshold-triggered compactions.
"""

from repro.simulation.engine import Simulator
from repro.simulation.event_queue import COMPACTION_MIN_DEAD, EventQueue


class TestCancelNone:
    def test_cancel_none_is_accepted_and_changes_nothing(self):
        simulator = Simulator(seed=1)
        simulator.schedule(1.0, lambda: None)
        simulator.cancel(None)
        assert simulator.pending_events == 1
        assert simulator.run_until_idle() == 1


class TestDoubleCancel:
    def test_double_cancel_counts_one_dead_entry(self):
        simulator = Simulator(seed=1)
        handle = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.cancel(handle)
        assert simulator.pending_events == 1
        simulator.cancel(handle)  # second cancel must not double-count
        assert simulator.pending_events == 1
        assert simulator._queue.dead_entries == 1
        assert simulator.run_until_idle() == 1
        assert simulator.pending_events == 0

    def test_many_double_cancels_never_drive_the_counter_negative(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(10)]
        for handle in handles[:5]:
            handle.cancel()
            handle.cancel()
            handle.cancel()
        assert len(queue) == 5
        assert queue.dead_entries == 5
        popped = 0
        while queue.pop() is not None:
            popped += 1
        assert popped == 5
        assert len(queue) == 0
        assert queue.dead_entries == 0


class TestCancelAfterFire:
    def test_cancel_after_fire_is_harmless(self):
        simulator = Simulator(seed=1)
        fired = []
        handle = simulator.schedule(1.0, fired.append, "x")
        simulator.schedule(2.0, lambda: None)
        simulator.run(until=1.5)
        assert fired == ["x"]
        # The event already executed; cancelling its handle must not touch
        # the dead-entry counter (the handle was detached at pop time).
        simulator.cancel(handle)
        assert simulator.pending_events == 1
        assert simulator._queue.dead_entries == 0
        assert simulator.run_until_idle() == 1


class TestCancelDuringDispatch:
    def test_event_cancels_a_later_event_mid_dispatch(self):
        simulator = Simulator(seed=1)
        fired = []
        victim = simulator.schedule(2.0, fired.append, "victim")
        simulator.schedule(1.0, lambda: simulator.cancel(victim))
        executed = simulator.run_until_idle()
        assert fired == []
        assert executed == 1
        assert simulator.pending_events == 0

    def test_event_cancels_a_same_instant_event_mid_dispatch(self):
        simulator = Simulator(seed=1)
        fired = []
        simulator.schedule(1.0, lambda: simulator.cancel(second))
        second = simulator.schedule(1.0, fired.append, "second")
        simulator.schedule(1.0, fired.append, "third")
        executed = simulator.run_until_idle()
        # Same-instant events fire in scheduling order; the second was
        # cancelled by the first while already at the top of the heap.
        assert fired == ["third"]
        assert executed == 2
        assert simulator.pending_events == 0

    def test_self_cancel_mid_dispatch_is_harmless(self):
        simulator = Simulator(seed=1)
        fired = []
        handles = {}

        def self_cancelling():
            # The event is already executing: its handle was detached at
            # pop time, so this cancel must not corrupt the counters.
            simulator.cancel(handles["me"])
            fired.append("ran")

        handles["me"] = simulator.schedule(1.0, self_cancelling)
        simulator.schedule(2.0, fired.append, "later")
        simulator.run_until_idle()
        assert fired == ["ran", "later"]
        assert simulator.pending_events == 0
        assert simulator._queue.dead_entries == 0


class TestCancellationWithCompaction:
    def test_mass_cancellation_triggers_compaction_and_preserves_order(self):
        simulator = Simulator(seed=1)
        queue = simulator._queue
        fired = []
        handles = []
        total = 4 * COMPACTION_MIN_DEAD
        for i in range(total):
            handles.append(simulator.schedule(float(i + 1), fired.append, i))
        # Cancel ~75%: crosses both compaction conditions (>= minimum and
        # dead entries outnumbering live ones).
        for handle in handles[: 3 * COMPACTION_MIN_DEAD]:
            simulator.cancel(handle)
        assert queue.dead_entries < COMPACTION_MIN_DEAD  # compaction ran
        assert simulator.pending_events == COMPACTION_MIN_DEAD
        executed = simulator.run_until_idle()
        assert executed == COMPACTION_MIN_DEAD
        assert fired == list(range(3 * COMPACTION_MIN_DEAD, total))

    def test_cancel_during_dispatch_keeps_counter_consistent_across_compaction(self):
        simulator = Simulator(seed=1)
        fired = []
        victims = []

        def cancel_wave():
            for handle in victims:
                simulator.cancel(handle)

        simulator.schedule(0.5, cancel_wave)
        total = 3 * COMPACTION_MIN_DEAD
        for i in range(total):
            victims.append(simulator.schedule(1.0 + i, fired.append, i))
        survivors = [simulator.schedule(1000.0 + i, fired.append, total + i) for i in range(5)]
        simulator.run_until_idle()
        assert fired == [total + i for i in range(len(survivors))]
        assert simulator.pending_events == 0
        assert simulator._queue.dead_entries == 0

    def test_pending_events_matches_queue_len_throughout(self):
        simulator = Simulator(seed=1)
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(200)]
        expected_live = 200
        for index, handle in enumerate(handles):
            if index % 3 != 0:
                simulator.cancel(handle)
                expected_live -= 1
            assert simulator.pending_events == expected_live
            assert simulator.pending_events == len(simulator._queue)
        executed = simulator.run_until_idle()
        assert executed == expected_live
