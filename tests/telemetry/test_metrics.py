"""Unit tests for the metrics registry: names, handles, histograms, collectors."""

import pytest

from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsError,
    MetricsRegistry,
    render_metric_name,
)


class TestRenderMetricName:
    def test_plain_name(self):
        assert render_metric_name("engine.events_dispatched") == "engine.events_dispatched"

    def test_labels_sorted_by_key(self):
        rendered = render_metric_name("net.bytes_sent", {"kind": "serve", "dir": "up"})
        assert rendered == "net.bytes_sent{dir=up,kind=serve}"

    def test_empty_name_raises(self):
        with pytest.raises(MetricsError):
            render_metric_name("")


class TestCounter:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc()
        assert counter.value == 2.0


class TestHistogramBuckets:
    """Upper-inclusive fixed buckets: bucket i counts bounds[i-1] < v <= bounds[i]."""

    def test_value_exactly_at_bound_lands_in_that_bucket(self):
        histogram = Histogram("h", (1.0, 2.0, 4.0))
        histogram.observe(2.0)
        assert histogram.counts == [0, 1, 0, 0]
        assert histogram.cumulative() == [(1.0, 0), (2.0, 1), (4.0, 1), (float("inf"), 1)]

    def test_value_below_first_bound_lands_in_first_bucket(self):
        histogram = Histogram("h", (1.0, 2.0))
        histogram.observe(-5.0)
        histogram.observe(0.0)
        assert histogram.counts == [2, 0, 0]

    def test_value_above_last_bound_lands_in_overflow(self):
        histogram = Histogram("h", (1.0, 2.0))
        histogram.observe(2.0001)
        histogram.observe(1e9)
        assert histogram.counts == [0, 0, 2]
        assert histogram.cumulative()[-1] == (float("inf"), 2)

    def test_sum_and_total(self):
        histogram = Histogram("h", (10.0,))
        histogram.observe(3.0)
        histogram.observe(4.5)
        assert histogram.total == 2
        assert histogram.sum == pytest.approx(7.5)

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(MetricsError):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(MetricsError):
            Histogram("h", (2.0, 1.0))

    def test_bounds_must_be_finite_and_non_empty(self):
        with pytest.raises(MetricsError):
            Histogram("h", ())
        with pytest.raises(MetricsError):
            Histogram("h", (1.0, float("inf")))


class TestMetricsRegistry:
    def test_handles_are_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("net.datagrams", fate="accepted")
        second = registry.counter("net.datagrams", fate="accepted")
        assert first is second
        first.inc()
        assert registry.snapshot()["net.datagrams{fate=accepted}"] == 1.0

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.histogram("x", (1.0,))

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(MetricsError):
            registry.histogram("h", (1.0, 3.0))
        # Same bounds: fine, same handle.
        assert registry.histogram("h", (1.0, 2.0)) is registry.histogram("h", (1.0, 2.0))

    def test_snapshot_expands_histograms_prometheus_style(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", (1.0, 2.0), kind="serve")
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(9.0)
        snap = registry.snapshot()
        assert snap["lat{kind=serve,le=1}"] == 1.0
        assert snap["lat{kind=serve,le=2}"] == 2.0
        assert snap["lat{kind=serve,le=+Inf}"] == 3.0
        assert snap["lat_count{kind=serve}"] == 3.0
        assert snap["lat_sum{kind=serve}"] == pytest.approx(11.0)

    def test_snapshot_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.last")
        registry.counter("a.first")
        assert list(registry.snapshot()) == ["a.first", "z.last"]

    def test_collector_merged_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"value": 1.0}
        registry.register_collector(lambda: {"engine.events_dispatched": state["value"]})
        assert registry.snapshot()["engine.events_dispatched"] == 1.0
        state["value"] = 7.0
        assert registry.snapshot()["engine.events_dispatched"] == 7.0

    def test_collector_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        registry.register_collector(lambda: {"x": 1.0})
        with pytest.raises(MetricsError):
            registry.snapshot()

    def test_empty_registry(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}
