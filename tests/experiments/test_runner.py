"""Unit tests for experiment points and :func:`run_point`."""

from repro.experiments.runner import ExperimentPoint, format_rate, run_point
from repro.membership.partners import INFINITE


class TestFormatRate:
    def test_whole_rates_render_as_integers(self):
        assert format_rate(1) == "1"
        assert format_rate(20.0) == "20"

    def test_infinite_renders_as_inf(self):
        assert format_rate(INFINITE) == "inf"

    def test_fractional_rates_keep_their_fraction(self):
        assert format_rate(0.5) == "0.5"
        assert format_rate(2.25) == "2.25"


class TestExperimentPoint:
    def test_points_are_hashable_and_comparable(self):
        first = ExperimentPoint(scale_name="tiny", fanout=4)
        second = ExperimentPoint(scale_name="tiny", fanout=4)
        assert first == second
        assert hash(first) == hash(second)


class TestRunPoint:
    def test_run_point_produces_result(self, tiny_scale):
        result = run_point(tiny_scale, ExperimentPoint(scale_name="tiny", fanout=4))
        assert result.schedule.num_windows == tiny_scale.num_windows
        assert result.delivery_ratio() > 0.8
