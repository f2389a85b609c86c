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
    def test_describe_includes_relevant_fields(self):
        point = ExperimentPoint(
            scale_name="tiny", fanout=7, cap_kbps=700.0, refresh_every=INFINITE,
            feed_me_every=5, churn_fraction=0.2, seed_offset=3,
        )
        text = point.describe()
        assert "fanout=7" in text
        assert "cap=700kbps" in text
        assert "X=inf" in text
        assert "Y=5" in text
        assert "churn=20%" in text
        assert "seed+3" in text

    def test_describe_keeps_fractional_rates(self):
        """Regression: X=0.5 used to be truncated to X=0 (int(0.5) == 0)."""
        point = ExperimentPoint(scale_name="tiny", refresh_every=0.5, feed_me_every=2.5)
        text = point.describe()
        assert "X=0.5" in text
        assert "Y=2.5" in text

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
