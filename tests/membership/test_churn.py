"""Unit tests for the catastrophic churn schedule."""

import random

import pytest

from repro.membership.churn import CatastrophicChurn


class TestCatastrophicChurn:
    def test_kills_requested_fraction(self):
        victims = CatastrophicChurn(time=30.0, fraction=0.4).victims(
            list(range(100)), random.Random(1)
        )
        assert len(victims) == 40
        assert list(victims) == sorted(set(victims))

    def test_zero_fraction_produces_no_event(self):
        rng = random.Random(1)
        assert CatastrophicChurn(time=30.0, fraction=0.0).victims(list(range(100)), rng) == ()
        assert rng.random() == random.Random(1).random(), "no victim draw is made"

    def test_full_fraction_kills_everyone(self):
        victims = CatastrophicChurn(time=5.0, fraction=1.0).victims(
            list(range(20)), random.Random(1)
        )
        assert victims == tuple(range(20))

    def test_victims_are_members_of_candidates(self):
        candidates = list(range(50, 90))
        victims = CatastrophicChurn(time=5.0, fraction=0.5).victims(candidates, random.Random(3))
        assert set(victims) <= set(candidates)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            CatastrophicChurn(time=1.0, fraction=1.5)
        with pytest.raises(ValueError):
            CatastrophicChurn(time=1.0, fraction=-0.1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CatastrophicChurn(time=-1.0, fraction=0.5)

    def test_describe_mentions_fraction(self):
        assert "20%" in CatastrophicChurn(time=1.0, fraction=0.2).describe()

    def test_deterministic_given_rng(self):
        schedule = CatastrophicChurn(time=1.0, fraction=0.3)
        first = schedule.victims(list(range(40)), random.Random(7))
        second = schedule.victims(list(range(40)), random.Random(7))
        assert first == second
