"""Unit tests for the simulated clock (:attr:`Simulator.now`)."""

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.errors import SimulationTimeError


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        simulator = Simulator()
        assert simulator.now == 0.0
        simulator.schedule_at(0.0, lambda: None)
        with pytest.raises(SimulationTimeError):
            Simulator().schedule_at(-0.001, lambda: None)

    def test_advance_to_moves_forward(self, simulator):
        simulator.schedule_at(3.0, lambda: None)
        simulator.run_until_idle()
        assert simulator.now == 3.0
        with pytest.raises(SimulationTimeError):
            simulator.schedule_at(2.999, lambda: None)

    def test_without_a_horizon_the_clock_stays_at_the_last_event(self, simulator):
        simulator.schedule_at(1.0, lambda: None)
        simulator.schedule_at(4.0, lambda: None)
        assert simulator.run_until_idle() == 2
        assert simulator.now == 4.0

    def test_advance_to_same_time_is_allowed(self, simulator):
        seen = []
        simulator.schedule_at(2.0, lambda: simulator.schedule_at(2.0, seen.append, simulator.now))
        simulator.run_until_idle()
        assert (seen, simulator.now) == ([2.0], 2.0)
        with pytest.raises(SimulationTimeError):
            simulator.schedule_at(1.999, lambda: None)

    def test_advance_to_past_raises(self, simulator):
        simulator.run(until=5.0)
        assert simulator.now == 5.0
        simulator.run(until=4.999)  # an earlier horizon never moves the clock back
        assert simulator.now == 5.0
        with pytest.raises(SimulationTimeError):
            simulator.schedule_at(4.999, lambda: None)
