"""Unit tests for the periodic timer."""

import pytest

from repro.simulation.timers import PeriodicTimer


class TestPeriodicTimer:
    def test_fires_every_period(self, simulator):
        fired = []
        timer = PeriodicTimer(simulator, 1.0, lambda: fired.append(simulator.now))
        timer.start()
        simulator.run(until=3.5)
        assert fired == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_custom_start_delay(self, simulator):
        fired = []
        timer = PeriodicTimer(
            simulator, 1.0, lambda: fired.append(simulator.now), start_delay=0.25
        )
        timer.start()
        simulator.run(until=2.0)
        assert fired[0] == pytest.approx(0.25)
        assert fired[1] == pytest.approx(1.25)

    def test_stop_halts_future_fires(self, simulator):
        fired = []
        timer = PeriodicTimer(simulator, 1.0, lambda: fired.append(simulator.now))
        timer.start()
        simulator.run(until=2.5)
        timer.stop()
        simulator.run(until=10.0)
        assert len(fired) == 2
        assert simulator.pending_events == 0

    def test_stop_inside_the_callback_schedules_nothing_more(self, simulator):
        fired = []

        def once():
            fired.append(simulator.now)
            timer.stop()

        timer = PeriodicTimer(simulator, 1.0, once)
        timer.start()
        simulator.run(until=1.5)
        assert fired == [pytest.approx(1.0)]
        assert simulator.pending_events == 0

    def test_double_start_is_noop(self, simulator):
        fired = []
        timer = PeriodicTimer(simulator, 1.0, lambda: fired.append(simulator.now))
        timer.start()
        timer.start()
        simulator.run(until=3.5)
        assert fired == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_invalid_period_rejected(self, simulator):
        with pytest.raises(ValueError):
            PeriodicTimer(simulator, 0.0, lambda: None)

    def test_fires_at_exact_multiples_of_its_period(self, simulator):
        fired = []
        timer = PeriodicTimer(simulator, 0.25, lambda: fired.append(simulator.now))
        timer.start()
        simulator.run(until=10.0)
        assert fired == [0.25 * k for k in range(1, 41)]

    def test_stop_and_restart(self, simulator):
        fired = []
        timer = PeriodicTimer(simulator, 1.0, lambda: fired.append(simulator.now))
        timer.start()
        simulator.run(until=1.5)
        timer.stop()
        timer.start()
        simulator.run(until=3.0)
        assert len(fired) == 2
