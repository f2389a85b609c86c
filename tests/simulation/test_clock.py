"""Unit tests for the simulated clock."""

import pytest

from repro.simulation.clock import SimulationClock
from repro.simulation.errors import SimulationTimeError


class TestSimulationClock:
    def test_starts_at_zero_by_default(self):
        clock = SimulationClock()
        clock.advance_to(0.0)
        with pytest.raises(SimulationTimeError):
            SimulationClock().advance_to(-0.001)

    def test_advance_to_moves_forward(self):
        clock = SimulationClock()
        clock.advance_to(3.0)
        with pytest.raises(SimulationTimeError):
            clock.advance_to(2.999)

    def test_advance_to_same_time_is_allowed(self):
        clock = SimulationClock()
        clock.advance_to(2.0)
        clock.advance_to(2.0)
        with pytest.raises(SimulationTimeError):
            clock.advance_to(1.999)

    def test_advance_to_past_raises(self):
        clock = SimulationClock()
        clock.advance_to(5.0)
        with pytest.raises(SimulationTimeError):
            clock.advance_to(4.999)
