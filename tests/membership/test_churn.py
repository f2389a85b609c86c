"""Unit tests for churn schedules and the churn injector."""

import random

import pytest

from repro.membership.churn import CatastrophicChurn, ChurnEvent, ChurnInjector
from repro.simulation.engine import Simulator


class TestChurnEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=-1.0, victims=(1,))


class TestCatastrophicChurn:
    def test_kills_requested_fraction(self):
        schedule = CatastrophicChurn(time=30.0, fraction=0.4)
        events = schedule.events(list(range(100)), random.Random(1))
        assert len(events) == 1
        assert events[0].time == 30.0
        assert len(events[0].victims) == 40

    def test_zero_fraction_produces_no_event(self):
        schedule = CatastrophicChurn(time=30.0, fraction=0.0)
        assert schedule.events(list(range(100)), random.Random(1)) == []

    def test_full_fraction_kills_everyone(self):
        schedule = CatastrophicChurn(time=5.0, fraction=1.0)
        events = schedule.events(list(range(20)), random.Random(1))
        assert len(events[0].victims) == 20

    def test_victims_are_members_of_candidates(self):
        candidates = list(range(50, 90))
        schedule = CatastrophicChurn(time=5.0, fraction=0.5)
        events = schedule.events(candidates, random.Random(3))
        assert set(events[0].victims) <= set(candidates)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            CatastrophicChurn(time=1.0, fraction=1.5)

    def test_describe_mentions_fraction(self):
        assert "20%" in CatastrophicChurn(time=1.0, fraction=0.2).describe()

    def test_deterministic_given_rng(self):
        schedule = CatastrophicChurn(time=1.0, fraction=0.3)
        first = schedule.events(list(range(40)), random.Random(7))
        second = schedule.events(list(range(40)), random.Random(7))
        assert first == second


class TestChurnInjector:
    def test_applies_failures_at_scheduled_time(self):
        simulator = Simulator(seed=1)
        failed = []
        injector = ChurnInjector(
            simulator, CatastrophicChurn(time=5.0, fraction=0.5), on_fail=failed.extend
        )
        injector.arm(list(range(10)), random.Random(1))
        simulator.run(until=4.9)
        assert failed == []
        simulator.run(until=5.1)
        assert len(failed) == 5
        assert injector.failed_nodes == failed

    def test_planned_events_exposed(self):
        simulator = Simulator(seed=1)
        injector = ChurnInjector(
            simulator, CatastrophicChurn(time=5.0, fraction=0.2), on_fail=lambda v: None
        )
        events = injector.arm(list(range(20)), random.Random(1))
        assert injector.planned_events == events
        assert len(events[0].victims) == 4
