"""Tests for the sim-vs-real comparison report."""

from dataclasses import replace

import pytest

from repro.realnet.compare import (
    DELIVERY_RATIO_TOLERANCE,
    BackendComparison,
    MetricDelta,
    compare_backends,
)
from repro.realnet.session import RealNetConfig

from tests.realnet.conftest import SMOKE_TIME_SCALE, realnet_session_config


class TestMetricDelta:
    def test_delta_is_real_minus_sim(self):
        delta = MetricDelta("delivery_ratio", sim=0.95, real=0.90)
        assert delta.delta == pytest.approx(-0.05)

    def test_within_tolerance(self):
        delta = MetricDelta("delivery_ratio", sim=0.95, real=0.90)
        assert delta.within(0.05)
        assert not delta.within(0.04)


@pytest.fixture(scope="module")
def comparison() -> BackendComparison:
    """One completed sim-vs-real comparison, shared per test module."""
    config = realnet_session_config(num_nodes=8, num_windows=2)
    return compare_backends(config, realnet=RealNetConfig(time_scale=SMOKE_TIME_SCALE))


class TestCompareBackends:
    def test_delivery_gate_passes_on_localhost(self, comparison):
        # The documented agreement claim at small n, no loss, ample caps.
        assert comparison.passed()
        assert abs(comparison.delivery_delta.delta) <= DELIVERY_RATIO_TOLERANCE

    def test_both_backends_delivered(self, comparison):
        assert comparison.delivery_delta.sim > 0.9
        assert comparison.delivery_delta.real > 0.9

    def test_report_covers_the_metric_set(self, comparison):
        names = [delta.name for delta in comparison.deltas]
        assert "delivery_ratio" in names
        assert "mean_upload_kbps" in names
        assert any(name.startswith("viewing_pct@") for name in names)
        assert any(name.startswith("complete_windows_pct@") for name in names)

    def test_unknown_metric_raises(self, comparison):
        with pytest.raises(KeyError):
            comparison.metric("nonexistent")

    def test_json_rendering(self, comparison):
        doc = comparison.to_json_dict()
        assert doc["passed"] is True
        assert doc["num_nodes"] == 8
        assert {entry["name"] for entry in doc["metrics"]} == {
            delta.name for delta in comparison.deltas
        }

    def test_text_rendering_carries_the_verdict(self, comparison):
        text = comparison.format_text()
        assert "delivery_ratio" in text
        assert "PASS" in text

    @pytest.mark.parametrize(
        "gap, passed",
        [(DELIVERY_RATIO_TOLERANCE, True), (2 * DELIVERY_RATIO_TOLERANCE, False)],
        ids=["at-the-bound", "past-the-bound"],
    )
    def test_delivery_ratio_tolerance_is_the_gate(self, comparison, gap, passed):
        # sim = 0 keeps |real - sim| exactly ``gap`` in floating point.
        deltas = [MetricDelta("delivery_ratio", sim=0.0, real=gap)]
        report = replace(comparison, deltas=deltas)
        assert report.passed() is passed
        assert report.to_json_dict()["passed"] is passed
        assert report.to_json_dict()["tolerance"] == DELIVERY_RATIO_TOLERANCE
        assert report.format_text().endswith("PASS" if passed else "FAIL")
