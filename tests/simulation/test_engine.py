"""Unit tests for the simulator event loop."""

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.errors import SimulationStateError, SimulationTimeError


class TestScheduling:
    def test_schedule_runs_callback_at_right_time(self, simulator):
        times = []
        simulator.schedule(1.5, lambda: times.append(simulator.now))
        simulator.run_until_idle()
        assert times == [pytest.approx(1.5)]

    def test_schedule_at_absolute_time(self, simulator):
        times = []
        simulator.schedule_at(4.0, lambda: times.append(simulator.now))
        simulator.run_until_idle()
        assert times == [pytest.approx(4.0)]

    def test_schedule_negative_delay_raises(self, simulator):
        with pytest.raises(SimulationTimeError):
            simulator.schedule(-0.1, lambda: None)

    def test_schedule_at_past_raises(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run_until_idle()
        with pytest.raises(SimulationTimeError):
            simulator.schedule_at(0.5, lambda: None)

    def test_callback_arguments_are_passed(self, simulator):
        received = []
        simulator.schedule(0.1, received.append, "payload")
        simulator.run_until_idle()
        assert received == ["payload"]

    def test_cancel_prevents_execution(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, fired.append, "x")
        simulator.cancel(handle)
        simulator.run_until_idle()
        assert fired == []

    def test_cancel_none_is_noop(self, simulator):
        simulator.cancel(None)


class TestReservedSlots:
    def test_a_reserved_slot_keeps_its_place(self, simulator):
        fired = []
        slot = simulator.reserve(1.0)
        simulator.schedule(1.0, fired.append, "b")
        simulator.schedule_reserved(slot, fired.append, "a")
        simulator.run_until_idle()
        assert fired == ["a", "b"]

    def test_a_slot_scheduled_later_runs_at_its_reserved_time(self, simulator):
        fired = []
        slot = simulator.reserve(2.0)
        simulator.schedule(1.0, lambda: simulator.schedule_reserved(slot, fired.append, "a"))
        simulator.schedule(2.0, fired.append, "b")
        simulator.run_until_idle()
        assert fired == ["a", "b"]
        assert simulator.now == 2.0

    def test_an_unscheduled_slot_costs_no_event(self, simulator):
        simulator.reserve(1.0)
        assert simulator.pending_events == 0
        assert simulator.run_until_idle() == 0

    def test_reserve_negative_delay_raises(self, simulator):
        with pytest.raises(SimulationTimeError):
            simulator.reserve(-0.1)

    def test_a_passed_slot_is_rejected(self, simulator):
        slot = simulator.reserve(0.5)
        simulator.schedule(1.0, lambda: None)
        simulator.run_until_idle()
        with pytest.raises(SimulationTimeError):
            simulator.schedule_reserved(slot, lambda: None)


class TestRun:
    def test_run_until_limit_advances_clock_to_limit(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(10.0, lambda: None)
        executed = simulator.run(until=5.0)
        assert executed == 1
        assert simulator.now == pytest.approx(5.0)
        assert simulator.pending_events == 1

    def test_run_until_idle_executes_everything(self, simulator):
        count = []
        for i in range(10):
            simulator.schedule(i * 0.1, count.append, i)
        executed = simulator.run_until_idle()
        assert executed == 10
        assert simulator.pending_events == 0

    def test_events_scheduled_during_run_are_executed(self, simulator):
        order = []

        def chain(step):
            order.append(step)
            if step < 3:
                simulator.schedule(1.0, chain, step + 1)

        simulator.schedule(0.0, chain, 0)
        simulator.run_until_idle()
        assert order == [0, 1, 2, 3]
        assert simulator.now == pytest.approx(3.0)

    def test_max_events_stops_early(self, simulator):
        for i in range(100):
            simulator.schedule(i * 0.01, lambda: None)
        executed = simulator.run(max_events=10)
        assert executed == 10
        assert simulator.pending_events == 90

    def test_reentrant_run_raises(self, simulator):
        def nested():
            simulator.run()

        simulator.schedule(0.1, nested)
        with pytest.raises(SimulationStateError):
            simulator.run_until_idle()

    def test_events_processed_counter(self, simulator):
        for i in range(5):
            simulator.schedule(float(i), lambda: None)
        simulator.run_until_idle()
        assert simulator.events_processed == 5

    def test_step_returns_false_when_empty(self, simulator):
        assert simulator.step() is False


class TestFireAndForgetAt:
    def test_fire_and_forget_at_schedules_at_absolute_time(self, simulator):
        times = []
        simulator.schedule_fire_and_forget_at(2.5, lambda: times.append(simulator.now))
        simulator.run_until_idle()
        assert times == [pytest.approx(2.5)]

    def test_fire_and_forget_at_past_raises(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.run_until_idle()
        with pytest.raises(SimulationTimeError):
            simulator.schedule_fire_and_forget_at(0.5, lambda: None)


class TestDeterminism:
    def test_same_seed_gives_same_random_streams(self):
        first = Simulator(seed=99)
        second = Simulator(seed=99)
        draws_first = [first.rng.stream("loss").random() for _ in range(10)]
        draws_second = [second.rng.stream("loss").random() for _ in range(10)]
        assert draws_first == draws_second

    def test_different_seeds_differ(self):
        first = Simulator(seed=1)
        second = Simulator(seed=2)
        assert first.rng.stream("loss").random() != second.rng.stream("loss").random()
