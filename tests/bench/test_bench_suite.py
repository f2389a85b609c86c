"""The benchmark bodies of ``repro.bench.suite`` at test size.

CI runs these benchmarks at smoke scale through ``bench run``; here each
one runs shrunk (``--option nodes=12 windows=2``) through the harness, so
its declared metrics, its identity checks against the reference paths and
its failure messages are pinned without a minutes-long run.
"""

import math
from types import SimpleNamespace

import pytest

from repro.bench import suite
from repro.bench.figure_checks import FigureCheckSkipped
from repro.bench.runner import run_benchmark
from repro.bench.spec import BenchContext, default_registry
from repro.membership.partners import INFINITE

TINY = {"nodes": "12", "windows": "2"}


def run_tiny(name):
    (benchmark,) = default_registry().select([name])
    ctx = BenchContext("smoke", options=dict(TINY), verbose=False)
    return run_benchmark(benchmark, ctx).metrics


class TestBenchmarksAtTinySize:
    def test_telemetry_overhead_counts_more_frames_when_traced(self):
        metrics = run_tiny("telemetry-overhead")
        assert metrics["trace_events"] > 0 and metrics["events_processed"] > 0
        assert metrics["traced_frames_per_event"] > metrics["metrics_frames_per_event"] > 0
        slowdowns = ("idle_slowdown", "metrics_slowdown", "trace_slowdown")
        assert all(metrics[key] > 0 for key in slowdowns)

    def test_wire_round_trips_captured_traffic_at_least_twice_smaller(self):
        metrics = run_tiny("wire")
        assert metrics["roundtrip_exact"] == 1.0
        assert metrics["bytes_ratio"] >= 2.0
        assert metrics["windows"] <= metrics["datagrams"]
        per_datagram = metrics["compact_bytes"] / metrics["datagrams"]
        assert metrics["compact_bytes_per_datagram"] == per_datagram

    def test_sharded_session_is_checked_against_the_scalar_oracle(self):
        metrics = run_tiny("sharded-session")
        assert metrics["oracle_checked"] == 1.0
        assert metrics["events_per_window"] == metrics["events_processed"] / metrics["windows"]
        assert 0.0 < metrics["delivery_ratio"] <= 1.0

    def test_large_session_stages_match_their_references(self):
        metrics = run_tiny("large-session")
        assert metrics["identical_results"] == 1.0
        assert metrics["events_processed"] > 0
        assert metrics["metrics_speedup"] > 0


class TestStageReferences:
    def test_metrics_stage_rejects_a_diverged_reference(self, monkeypatch):
        from repro.metrics.reference import ReferenceQualityAnalyzer

        result = suite.run_once(suite.throughput_config(num_nodes=8, num_windows=2))
        assert suite.measure_metrics_stage(result)["reference_seconds"] > 0
        monkeypatch.setattr(ReferenceQualityAnalyzer, "viewing_ratio", lambda self, lag: -1.0)
        with pytest.raises(AssertionError, match="fast metrics stage diverged"):
            suite.measure_metrics_stage(result)


class TestChecksums:
    def test_table_checksum_is_an_exact_48_bit_float(self):
        checksum = suite._table_checksum("figure1 table")
        assert checksum == int(checksum) and 0 <= checksum < 2**48
        assert checksum == suite._table_checksum("figure1 table")
        assert checksum != suite._table_checksum("figure1 table ")

    def test_delivery_checksum_sees_every_delivery_time_bit(self):
        def result(deliveries):
            return SimpleNamespace(deliveries=SimpleNamespace(raw=lambda: deliveries))

        base = suite._delivery_checksum(result({1: {0: 0.5, 1: 0.75}, 2: {0: 0.25}}))
        reordered = {2: {0: 0.25}, 1: {1: 0.75, 0: 0.5}}
        assert suite._delivery_checksum(result(reordered)) == base
        nudged = {1: {0: 0.5, 1: math.nextafter(0.75, 1.0)}, 2: {0: 0.25}}
        assert suite._delivery_checksum(result(nudged)) != base


class TestTelemetrySessionConfig:
    def test_each_mode_arms_what_it_names(self, tmp_path):
        def telemetry(mode):
            return suite.telemetry_session_config(8, 2, mode, tmp_path).telemetry

        assert telemetry("disabled") is None
        assert telemetry("disarmed").metrics is False
        assert telemetry("disarmed").trace_path is None
        assert telemetry("metrics").metrics is True and telemetry("metrics").trace_path is None
        assert telemetry("traced").trace_path == str(tmp_path / "bench_traced.jsonl")
        assert set(suite.TELEMETRY_MODES) == {"disabled", "disarmed", "metrics", "traced"}


class _RefreshCache:
    """A summary cache in the figure-5 shape: X = 1 best, static mesh worst."""

    def get(self, scale, point):
        if point.refresh_every == INFINITE:
            offline, lagged = 60.0, 40.0
        else:
            offline, lagged = (95.0 if point.refresh_every == 1 else 92.0), 90.0
        return SimpleNamespace(
            viewing_percentage=lambda lag: offline if lag == math.inf else lagged
        )


class TestFigureBenchmark:
    @pytest.fixture
    def results_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(suite, "_results_dir", lambda: tmp_path / "results")
        return tmp_path / "results"

    def test_run_figure_checks_the_shape_and_writes_the_table(self, results_dir):
        ctx = BenchContext("smoke", cache=_RefreshCache(), verbose=False)
        metrics = suite.run_figure("figure5", ctx)
        table = (results_dir / "figure5_smoke.txt").read_text(encoding="utf-8")
        assert metrics["checks_run"] == 1.0
        assert metrics["series"] == 3.0 and metrics["points"] == 3.0 * len(ctx.scale.refresh_grid)
        assert metrics["table_checksum"] == suite._table_checksum(table.rstrip("\n"))
        assert metrics["headline"] == 95.0

    def test_a_skipped_shape_check_is_recorded_not_raised(self, results_dir, monkeypatch):
        def skip(result, scale, cache):
            raise FigureCheckSkipped("not expressible at this scale")

        monkeypatch.setitem(suite.FIGURE_CHECKS, "figure5", skip)
        ctx = BenchContext("smoke", cache=_RefreshCache(), verbose=False)
        assert suite.run_figure("figure5", ctx)["checks_run"] == 0.0

    def test_an_unwritable_results_dir_still_returns_the_table(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setattr(suite, "_results_dir", lambda: blocker / "results")
        result = SimpleNamespace(figure_id="figure1", scale_name="smoke", to_table=lambda: "t")
        assert suite.write_figure_table(result) == "t"
