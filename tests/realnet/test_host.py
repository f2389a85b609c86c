"""Unit tests for the wall-clock asyncio host."""

import pytest

from repro.core.host import Host, ScheduledHandle
from repro.realnet.errors import RealNetStateError
from repro.realnet.host import AsyncioHost, WallClockHandle
from repro.simulation.engine import Simulator

# Fast wall clock for timer-only tests: no gossip physics involved, so the
# 0.1+ scale guidance for full sessions does not apply here.
FAST = 0.02


class TestHostContract:
    def test_asyncio_host_satisfies_host_protocol(self):
        assert isinstance(AsyncioHost(seed=1), Host)

    def test_simulator_satisfies_host_protocol(self):
        assert isinstance(Simulator(seed=1), Host)

    def test_handle_satisfies_scheduled_handle_protocol(self):
        host = AsyncioHost(seed=1)
        handle = host.schedule(1.0, lambda: None)
        assert isinstance(handle, ScheduledHandle)

    def test_simulator_handle_satisfies_scheduled_handle_protocol(self):
        simulator = Simulator(seed=1)
        handle = simulator.schedule(1.0, lambda: None)
        assert isinstance(handle, ScheduledHandle)
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled
        assert simulator.pending_events == 0

    def test_backend_name(self):
        assert AsyncioHost().backend_name == "realnet-asyncio"

    def test_invalid_time_scale_rejected(self):
        with pytest.raises(ValueError):
            AsyncioHost(time_scale=0.0)
        with pytest.raises(ValueError):
            AsyncioHost(time_scale=-1.0)


class TestPreStart:
    def test_now_is_zero_before_run(self):
        assert AsyncioHost().now == 0.0

    def test_schedule_buffers_until_run(self):
        host = AsyncioHost()
        host.schedule(0.5, lambda: None)
        host.schedule(1.0, lambda: None)
        assert host.pending_events == 2
        assert host.events_processed == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            AsyncioHost().schedule(-0.1, lambda: None)

    def test_cancel_before_run(self):
        host = AsyncioHost(time_scale=FAST)
        fired = []
        handle = host.schedule(0.1, fired.append, 1)
        handle.cancel()
        assert handle.cancelled
        assert host.pending_events == 0
        host.run(until=0.2)
        assert fired == []

    def test_cancel_is_idempotent(self):
        host = AsyncioHost()
        handle = host.schedule(0.1, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancel_none_is_ignored(self):
        AsyncioHost().cancel(None)


class TestRun:
    def test_run_requires_until(self):
        with pytest.raises(RealNetStateError):
            AsyncioHost().run()

    def test_run_twice_rejected(self):
        host = AsyncioHost(time_scale=FAST)
        host.run(until=0.01)
        with pytest.raises(RealNetStateError):
            host.run(until=0.01)

    def test_callbacks_fire_in_virtual_order(self):
        host = AsyncioHost(time_scale=FAST)
        fired = []
        host.schedule(0.3, fired.append, "late")
        host.schedule(0.1, fired.append, "early")
        host.schedule(0.2, fired.append, "middle")
        executed = host.run(until=0.5)
        assert fired == ["early", "middle", "late"]
        assert executed == 3
        assert host.events_processed == 3

    def test_callbacks_past_horizon_do_not_fire(self):
        host = AsyncioHost(time_scale=FAST)
        fired = []
        host.schedule(0.1, fired.append, "in")
        host.schedule(10.0, fired.append, "out")
        host.run(until=0.5)
        assert fired == ["in"]
        assert host.pending_events == 0

    def test_now_reaches_horizon_after_run(self):
        host = AsyncioHost(time_scale=FAST)
        host.run(until=0.25)
        assert host.now >= 0.25

    def test_callbacks_can_reschedule(self):
        host = AsyncioHost(time_scale=FAST)
        times = []

        def tick():
            times.append(host.now)
            if len(times) < 3:
                host.schedule(0.1, tick)

        host.schedule(0.1, tick)
        host.run(until=1.0)
        assert len(times) == 3
        assert times == sorted(times)

    def test_schedule_at_clamps_past_times(self):
        host = AsyncioHost(time_scale=FAST)
        fired = []

        def late_scheduler():
            # The wall clock has passed t=0 by now; this must fire, not raise.
            host.schedule_at(0.0, fired.append, "clamped")

        host.schedule(0.1, late_scheduler)
        host.run(until=0.5)
        assert fired == ["clamped"]

    def test_schedule_after_stop_is_born_cancelled(self):
        host = AsyncioHost(time_scale=FAST)
        host.run(until=0.01)
        handle = host.schedule(0.1, lambda: None)
        assert handle.cancelled
        assert host.pending_events == 0

    def test_fire_and_forget_at_returns_no_handle(self):
        host = AsyncioHost(time_scale=FAST)
        fired = []
        assert host.schedule_fire_and_forget_at(0.2, fired.append, "b") is None
        host.schedule_at(0.1, fired.append, "a")
        host.run(until=0.5)
        assert fired == ["a", "b"]


class TestReservedSlots:
    def test_a_reserved_slot_keeps_its_virtual_time(self):
        # Slower than FAST: tens of wall milliseconds between the three
        # instants, so a late wake-up cannot reorder them.
        host = AsyncioHost(time_scale=0.1)
        fired = []
        slot = host.reserve(0.2)
        handles = []

        def promote():
            handles.append(host.schedule_reserved(slot, fired.append, "a"))

        host.schedule(0.05, promote)
        host.schedule(0.4, fired.append, "b")
        host.run(until=0.5)
        assert fired == ["a", "b"]
        assert handles[0].virtual_time == 0.2

    def test_reserve_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            AsyncioHost().reserve(-0.1)


class _StampRecorder:
    def __init__(self):
        self.stamps = []

    def on_event_dispatch(self, time, callback, args):
        self.stamps.append(time)


class TestObservers:
    def test_dispatch_observer_sees_monotone_stamps(self):
        host = AsyncioHost(time_scale=FAST)
        recorder = _StampRecorder()
        host.add_observer(recorder)
        for i in range(20):
            host.schedule(0.01 * (i + 1), lambda: None)
        host.run(until=0.5)
        assert len(recorder.stamps) == 20
        assert recorder.stamps == sorted(recorder.stamps)

    def test_now_never_regresses_across_dispatches(self):
        host = AsyncioHost(time_scale=FAST)
        reads = []
        for i in range(20):
            host.schedule(0.01 * (i + 1), lambda: reads.append(host.now))
        host.run(until=0.5)
        assert reads == sorted(reads)


class TestHandles:
    def test_handle_fires_once(self):
        host = AsyncioHost(time_scale=FAST)
        fired = []
        handle = host.schedule(0.05, fired.append, "x")
        assert isinstance(handle, WallClockHandle)
        host.run(until=0.2)
        assert fired == ["x"]
        assert not handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        host = AsyncioHost(time_scale=FAST)
        handle = host.schedule(0.05, lambda: None)
        host.run(until=0.2)
        handle.cancel()
        assert not handle.cancelled


class TestCallbackFailure:
    """A raising callback ends the run instead of being logged and skipped."""

    def test_first_timer_exception_stops_the_run_and_is_reraised(self):
        host = AsyncioHost(time_scale=FAST)
        fired, closed = [], []

        def boom(label):
            raise RuntimeError(label)

        async def shutdown():
            closed.append(host.now)

        host.add_shutdown_hook(shutdown)
        host.schedule(0.1, boom, "first")
        host.schedule(0.2, boom, "second")
        host.schedule(5.0, fired.append, "after")
        with pytest.raises(RuntimeError, match="first"):
            host.run(until=10.0)
        assert fired == []
        assert len(closed) == 1, "the shutdown hooks run before the re-raise"
        assert host.pending_events == 0
