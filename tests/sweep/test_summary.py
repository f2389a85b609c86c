"""Tests for point summaries: extraction, accessors, pickling, JSON."""

import math
import pickle

import pytest

from repro.experiments.runner import ExperimentPoint
from repro.metrics.quality import OFFLINE_LAG
from repro.sweep.executor import compute_summary, run_task
from repro.sweep.spec import SweepTask
from repro.sweep.summary import MetricsRequest, PointSummary, summarize


@pytest.fixture(scope="module")
def summary(sweep_scale):
    task = SweepTask(point=ExperimentPoint(scale_name=sweep_scale.name, fanout=4))
    return compute_summary(sweep_scale, task, MetricsRequest.for_scale(sweep_scale))


class TestMetricsRequest:
    def test_for_scale_covers_every_figure_lag(self, sweep_scale):
        request = MetricsRequest.for_scale(sweep_scale)
        assert 10.0 in request.viewing_lags
        assert 20.0 in request.viewing_lags
        assert OFFLINE_LAG in request.viewing_lags
        assert request.lag_cdf_grid == tuple(sweep_scale.fig2_lag_grid)
        assert 20.0 in request.window_lags


class TestExtraction:
    def test_summary_matches_session_result(self, sweep_scale):
        task = SweepTask(point=ExperimentPoint(scale_name=sweep_scale.name, fanout=4))
        result = run_task(sweep_scale, task)
        summary = summarize(
            result, MetricsRequest.for_scale(sweep_scale), task.cell_id, seed=99
        )
        assert summary.viewing_percentage(20.0) == result.viewing_percentage(lag=20.0)
        assert summary.viewing_percentage(OFFLINE_LAG) == result.viewing_percentage(
            lag=OFFLINE_LAG
        )
        assert (
            summary.average_complete_windows_percentage(20.0)
            == result.average_complete_windows_percentage(20.0)
        )
        assert summary.delivery_ratio == result.delivery_ratio()
        assert summary.sorted_usage() == result.bandwidth_usage().sorted_usage()
        assert summary.lag_cdf_values(sweep_scale.fig2_lag_grid) == list(
            result.quality().lag_cdf(sweep_scale.fig2_lag_grid)
        )
        assert summary.num_receivers == sweep_scale.num_nodes - 1

    def test_unknown_lag_raises(self, summary):
        with pytest.raises(KeyError):
            summary.viewing_percentage(123.456)
        with pytest.raises(KeyError):
            summary.average_complete_windows_percentage(123.456)
        with pytest.raises(KeyError):
            summary.lag_cdf_values([123.456])


class TestPickle:
    def test_summary_round_trips_through_pickle(self, summary):
        clone = pickle.loads(pickle.dumps(summary))
        assert clone == summary
        assert clone.viewing_percentage(20.0) == summary.viewing_percentage(20.0)

    def test_task_and_point_round_trip_through_pickle(self):
        task = SweepTask(
            point=ExperimentPoint(scale_name="smoke", fanout=7, seed_offset=2),
            patch=(("gossip.source_fanout", 3),),
        )
        assert pickle.loads(pickle.dumps(task)) == task


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, summary):
        clone = PointSummary.from_json_dict(summary.to_json_dict())
        assert clone == summary
        assert clone.wall_seconds == summary.wall_seconds

    def test_infinite_lags_encode_as_strings(self, summary):
        import json

        data = summary.to_json_dict()
        text = json.dumps(data)  # must be standard JSON: no bare Infinity
        assert "Infinity" not in text
        clone = PointSummary.from_json_dict(json.loads(text))
        assert clone.viewing_percentage(OFFLINE_LAG) == summary.viewing_percentage(
            OFFLINE_LAG
        )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            PointSummary.from_json_dict({"cell_id": "c", "seed": 1, "bogus": 2})

    def test_wall_seconds_excluded_from_equality(self):
        first = PointSummary(cell_id="c", seed=1, wall_seconds=1.0)
        second = PointSummary(cell_id="c", seed=1, wall_seconds=9.0)
        assert first == second


class TestZeroWindows:
    def test_summary_handles_inf_sentinels(self):
        summary = PointSummary(
            cell_id="c",
            seed=1,
            viewing=((math.inf, 42.0),),
        )
        assert summary.viewing_percentage(math.inf) == 42.0


class TestTelemetryMetrics:
    def test_metrics_key_omitted_when_empty(self):
        """Store records written before telemetry existed — and the golden
        files pinning them — must stay byte-identical."""
        summary = PointSummary(cell_id="c", seed=1)
        assert "metrics" not in summary.to_json_dict()

    def test_metrics_round_trip_when_present(self):
        import json

        summary = PointSummary(
            cell_id="c",
            seed=1,
            metrics=(("engine.events_dispatched", 123.0), ("net.bytes_sent", 456.0)),
        )
        data = summary.to_json_dict()
        assert data["metrics"] == [
            ["engine.events_dispatched", 123.0],
            ["net.bytes_sent", 456.0],
        ]
        clone = PointSummary.from_json_dict(json.loads(json.dumps(data)))
        assert clone == summary

    def test_include_metrics_flows_through_compute_summary(self, sweep_scale):
        import dataclasses

        task = SweepTask(point=ExperimentPoint(scale_name=sweep_scale.name))
        request = dataclasses.replace(
            MetricsRequest.for_scale(sweep_scale), include_metrics=True
        )
        armed = compute_summary(sweep_scale, task, request)
        assert armed.metrics
        assert dict(armed.metrics)["engine.events_dispatched"] == float(armed.events_processed)
        bare = compute_summary(
            sweep_scale, task, MetricsRequest.for_scale(sweep_scale)
        )
        # Arming metrics never perturbs the figure-facing numbers.
        assert dataclasses.replace(armed, metrics=()) == bare
