"""Structural tests of the figure generators, at a tiny scale.

These tests check that every generator produces the right series (labels,
x grids, value ranges) and that obviously expected relationships hold (e.g.
offline viewing is never worse than 10 s-lag viewing).  The quantitative
shape checks against the paper live in ``test_paper_claims.py``.
"""

import pytest

from repro.experiments.figures import (
    figure1_fanout_700,
    figure2_lag_cdf,
    figure3_fanout_relaxed_caps,
    figure4_bandwidth_usage,
    figure5_refresh_rate,
    figure6_feedme_rate,
    figure7_churn_unaffected,
    figure8_churn_windows,
)
from repro.sweep.cache import RecordingCache, SummaryCache


@pytest.fixture(scope="module")
def cache() -> SummaryCache:
    """One cache shared by every figure test in this module."""
    return SummaryCache()


class TestFigure1:
    def test_series_and_grid(self, tiny_scale, cache):
        result = figure1_fanout_700(tiny_scale, cache)
        assert result.figure_id == "figure1"
        labels = [series.label for series in result.series]
        assert labels == ["offline viewing", "20s lag", "10s lag"]
        for series in result.series:
            assert series.xs() == [float(f) for f in tiny_scale.fanout_grid]
            assert all(0.0 <= y <= 100.0 for y in series.ys())

    def test_offline_viewing_dominates_finite_lags(self, tiny_scale, cache):
        result = figure1_fanout_700(tiny_scale, cache)
        offline = result.series_by_label("offline viewing")
        ten = result.series_by_label("10s lag")
        for x in offline.xs():
            assert offline.y_at(x) >= ten.y_at(x) - 1e-9

    def test_to_table_renders(self, tiny_scale, cache):
        text = figure1_fanout_700(tiny_scale, cache).to_table()
        assert "figure1" in text
        assert "fanout" in text


class TestFigure2:
    def test_one_series_per_fanout_and_monotone_cdf(self, tiny_scale, cache):
        result = figure2_lag_cdf(tiny_scale, cache)
        assert len(result.series) == len(tiny_scale.fig2_fanouts)
        for series in result.series:
            ys = series.ys()
            assert all(later >= earlier - 1e-9 for earlier, later in zip(ys, ys[1:]))
            assert all(0.0 <= y <= 100.0 for y in ys)


class TestFigure3:
    def test_two_series_per_cap(self, tiny_scale, cache):
        result = figure3_fanout_relaxed_caps(tiny_scale, cache)
        assert len(result.series) == 2 * len(tiny_scale.fig3_caps_kbps)
        for series in result.series:
            assert series.xs() == [float(f) for f in tiny_scale.fanout_grid]


class TestFigure4:
    def test_usage_sorted_descending(self, tiny_scale, cache):
        result = figure4_bandwidth_usage(tiny_scale, cache)
        assert len(result.series) == len(tiny_scale.fig4_pairs)
        for series in result.series:
            ys = series.ys()
            assert all(earlier >= later - 1e-9 for earlier, later in zip(ys, ys[1:]))
            assert len(ys) == tiny_scale.num_nodes - 1


class TestFigure5And6:
    def test_refresh_sweep_x_values(self, tiny_scale, cache):
        result = figure5_refresh_rate(tiny_scale, cache)
        for series in result.series:
            assert series.xs() == [1.0, 10.0, -1.0]

    def test_feedme_sweep_runs_with_static_views(self, tiny_scale, cache):
        result = figure6_feedme_rate(tiny_scale, cache)
        assert "X is infinite" in result.notes
        for series in result.series:
            assert len(series.points) == len(tiny_scale.feedme_grid)


class TestFigure7And8:
    def test_churn_series_structure(self, tiny_scale, cache):
        result = figure7_churn_unaffected(tiny_scale, cache)
        assert len(result.series) == 2 * len(tiny_scale.churn_refresh_values)
        for series in result.series:
            assert series.xs() == [fraction * 100.0 for fraction in tiny_scale.churn_grid]

    def test_figure8_shares_runs_with_figure7(self, tiny_scale):
        recorder = RecordingCache()
        figure7_churn_unaffected(tiny_scale, recorder)
        planned = recorder.points()
        figure8_churn_windows(tiny_scale, recorder)
        assert recorder.points() == planned

    def test_fractional_refresh_labels_render_honestly(self, tiny_scale):
        """Regression: X=0.5 series labels used to truncate to X=0.

        GossipConfig only accepts whole rates, so this is a dry run against a
        recording cache: the labels must render honestly even for values the
        simulation itself would reject.
        """
        result = figure7_churn_unaffected(
            tiny_scale, RecordingCache(), churn_fractions=(0.2,), refresh_values=(0.5,)
        )
        assert all("X=0.5" in series.label for series in result.series)

    def test_window_percentages_in_range(self, tiny_scale, cache):
        result = figure8_churn_windows(tiny_scale, cache)
        for series in result.series:
            assert all(0.0 <= y <= 100.0 for y in series.ys())
