"""Unit tests for the flash-crowd join schedule."""

import pytest

from repro.membership.join import FlashCrowdJoin


class TestFlashCrowdJoin:
    def test_requested_fraction_joins_late(self):
        assert len(FlashCrowdJoin(time=8.0, fraction=0.4).joiners(list(range(1, 51)))) == 20

    def test_joiners_are_the_last_ids(self):
        assert FlashCrowdJoin(time=1.0, fraction=0.4).joiners([7, 3, 9, 1, 5]) == (7, 9)

    def test_zero_fraction_has_no_joiners(self):
        assert FlashCrowdJoin(time=1.0, fraction=0.0).joiners(list(range(10))) == ()

    def test_full_fraction_is_everyone(self):
        assert FlashCrowdJoin(time=1.0, fraction=1.0).joiners([2, 1, 3]) == (1, 2, 3)

    @pytest.mark.parametrize("time, fraction", [(-1.0, 0.5), (1.0, -0.1), (1.0, 1.5)])
    def test_invalid_arguments_rejected(self, time, fraction):
        with pytest.raises(ValueError):
            FlashCrowdJoin(time=time, fraction=fraction)

    def test_describe_mentions_fraction(self):
        assert "40%" in FlashCrowdJoin(time=8.0, fraction=0.4).describe()
