"""Tests for the summary cache, plan recording, and figure integration."""

import pytest

from repro.experiments.figures import ALL_FIGURES, figure_points, figure1_fanout_700
from repro.experiments.runner import ExperimentPoint
from repro.sweep.cache import RecordingCache, SummaryCache
from repro.sweep.executor import SerialExecutor, run_sweep
from repro.sweep.spec import SweepTask


class TestSummaryCache:
    def test_cache_avoids_reruns(self, sweep_scale):
        cache = SummaryCache()
        point = ExperimentPoint(scale_name=sweep_scale.name, fanout=4)
        first = cache.get(sweep_scale, point)
        second = cache.get(sweep_scale, point)
        assert first is second
        recorder = RecordingCache()
        recorder.get(sweep_scale, point)
        recorder.get(sweep_scale, point)
        assert recorder.points() == [point]

    def test_scale_mismatch_rejected(self, sweep_scale):
        cache = SummaryCache()
        with pytest.raises(ValueError):
            cache.get(sweep_scale, ExperimentPoint(scale_name="reduced", fanout=4))

    def test_primed_results_serve_without_running(self, sweep_scale):
        tasks = [
            SweepTask(point=ExperimentPoint(scale_name=sweep_scale.name, fanout=f))
            for f in (2, 4)
        ]
        outcome = run_sweep(sweep_scale, tasks, executor=SerialExecutor())
        cache = SummaryCache()
        assert cache.prime(outcome.results) == 2
        summary = cache.get(sweep_scale, tasks[0].point)
        assert summary is outcome.results[tasks[0]]  # served, not computed

    def test_patched_tasks_are_not_primed(self, sweep_scale):
        task = SweepTask(
            point=ExperimentPoint(scale_name=sweep_scale.name),
            patch=(("gossip.source_fanout", 1),),
        )
        outcome = run_sweep(sweep_scale, [task], executor=SerialExecutor())
        recorder = RecordingCache()
        assert recorder.prime(outcome.results) == 0
        recorder.get(sweep_scale, task.point)
        assert recorder.points() == [task.point]  # computed: nothing was primed


class TestRecordingCache:
    def test_records_points_without_simulating(self, sweep_scale):
        recorder = RecordingCache()
        result = figure1_fanout_700(sweep_scale, recorder)
        # A dry run: real series structure, all-zero values.
        assert [series.label for series in result.series]
        assert all(y == 0.0 for series in result.series for y in series.ys())
        assert len(recorder.points()) == len(sweep_scale.fanout_grid)

    def test_records_each_point_once_in_first_request_order(self, sweep_scale):
        recorder = RecordingCache()
        first, second = (
            ExperimentPoint(scale_name=sweep_scale.name, fanout=fanout) for fanout in (4, 2)
        )
        for point in (first, second, first, second):
            recorder.get(sweep_scale, point)
        assert recorder.points() == [first, second]

    def test_figure_points_matches_generator_requests(self, sweep_scale):
        points = figure_points("figure1", sweep_scale)
        expected = [
            ExperimentPoint(scale_name=sweep_scale.name, fanout=f)
            for f in sweep_scale.fanout_grid
        ]
        assert points == expected

    def test_figure_points_unknown_figure(self, sweep_scale):
        with pytest.raises(KeyError):
            figure_points("figure99", sweep_scale)

    def test_figures_share_overlapping_points(self, sweep_scale):
        """Figure 7 and Figure 8 request identical points (shared runs)."""
        assert set(figure_points("figure7", sweep_scale)) == set(
            figure_points("figure8", sweep_scale)
        )

    @pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
    def test_every_figure_dry_runs_on_zero_metrics(self, figure_id, sweep_scale):
        """The planning pass of ``--jobs N``: every metric reads as zero or empty."""
        recorder = RecordingCache()
        result = ALL_FIGURES[figure_id](sweep_scale, recorder)
        assert all(y == 0.0 for series in result.series for y in series.ys())
        points = recorder.points()
        assert points and len(set(points)) == len(points)
