"""Cancellation edge cases: the live counter stays consistent.

The simulator keeps an O(1) live counter (cancelled handles report back).
These tests drive every awkward cancellation path — ``cancel(None)``,
double-cancel, cancel after the event already fired, cancel *from inside* a
running event, mass cancellation — and assert ``Simulator.pending_events``
and the dead entries left in the heap never drift.
"""

from repro.simulation.engine import Simulator

#: How many events a mass cancellation test schedules per unit.
MASS = 64


def dead_entries(simulator: Simulator) -> int:
    """Cancelled entries still in the heap: heap length minus live count."""
    return len(simulator._heap) - simulator.pending_events


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
        assert dead_entries(simulator) == 1
        assert simulator.run_until_idle() == 1
        assert simulator.pending_events == 0

    def test_many_double_cancels_never_drive_the_counter_negative(self):
        simulator = Simulator(seed=1)
        handles = [simulator.schedule_at(float(i), lambda: None) for i in range(10)]
        for handle in handles[:5]:
            handle.cancel()
            handle.cancel()
            handle.cancel()
        assert simulator.pending_events == 5
        assert dead_entries(simulator) == 5
        assert simulator.run_until_idle() == 5
        assert simulator.pending_events == 0
        assert dead_entries(simulator) == 0

    def test_peek_time_discards_a_cancelled_head(self):
        simulator = Simulator(seed=1)
        assert simulator.peek_time() is None
        doomed = simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(5.0, lambda: None)
        doomed.cancel()
        assert simulator.peek_time() == 5.0
        assert (simulator.pending_events, dead_entries(simulator)) == (1, 0)
        doomed.cancel()  # double-cancel after the discard: still harmless
        assert simulator.pending_events == 1


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
        assert dead_entries(simulator) == 0
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
        assert dead_entries(simulator) == 0


class TestMassCancellation:
    def test_mass_cancellation_preserves_order(self):
        simulator = Simulator(seed=1)
        fired = []
        handles = []
        total = 4 * MASS
        for i in range(total):
            handles.append(simulator.schedule(float(i + 1), fired.append, i))
        # Cancel 75 %: the dead entries outnumber the live ones.
        for handle in handles[: 3 * MASS]:
            simulator.cancel(handle)
        assert dead_entries(simulator) == 3 * MASS
        assert simulator.pending_events == MASS
        executed = simulator.run_until_idle()
        assert executed == MASS
        assert fired == list(range(3 * MASS, total))

    def test_a_cancel_wave_during_dispatch_keeps_the_counter_consistent(self):
        simulator = Simulator(seed=1)
        fired = []
        victims = []

        def cancel_wave():
            for handle in victims:
                simulator.cancel(handle)

        simulator.schedule(0.5, cancel_wave)
        total = 3 * MASS
        for i in range(total):
            victims.append(simulator.schedule(1.0 + i, fired.append, i))
        survivors = [simulator.schedule(1000.0 + i, fired.append, total + i) for i in range(5)]
        simulator.run_until_idle()
        assert fired == [total + i for i in range(len(survivors))]
        assert simulator.pending_events == 0
        assert dead_entries(simulator) == 0

    def test_pending_events_matches_queue_len_throughout(self):
        simulator = Simulator(seed=1)
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(200)]
        expected_live = 200
        for index, handle in enumerate(handles):
            if index % 3 != 0:
                simulator.cancel(handle)
                expected_live -= 1
            assert simulator.pending_events == expected_live
            assert simulator.pending_events == sum(
                1 for event in simulator._heap if not event.handle.cancelled
            )
        executed = simulator.run_until_idle()
        assert executed == expected_live
