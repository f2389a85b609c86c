"""The paper-shape checks ``bench run --filter figureN`` asserts.

Each check runs here on hand-built figure results: one in the shape the
paper reports, which must pass, and one per guarded property with just that
property broken, which must fail with the check's own message.  The smoke
scale has no congestion-collapse regime; ``COLLAPSING`` is the same grid
with the regime switched on.
"""

import dataclasses

import pytest

from repro.bench.figure_checks import (
    FIGURE_CHECKS,
    STATIC_X,
    FigureCheckSkipped,
    check_figure1,
    check_figure2,
    check_figure3,
    check_figure4,
    check_figure5,
    check_figure6,
    check_figure7,
    check_figure8,
)
from repro.experiments.figures import ALL_FIGURES, FigureResult
from repro.experiments.scale import SMOKE
from repro.metrics.report import Series

COLLAPSING = dataclasses.replace(SMOKE, fanout_collapse_expected=True)


def figure(figure_id, curves):
    """A result holding one series per ``label: {x: y}`` entry."""
    series = [Series(label, sorted(points.items())) for label, points in curves.items()]
    return FigureResult(figure_id, "", "", "", SMOKE.name, series)


def changed(points, updates):
    """``points`` with the y values of ``updates`` (``{x: y}``) replaced."""
    return {**points, **updates}


def by_fanout(*ys):
    """% values at SMOKE.fanout_grid = (3, 4, 5, 7, 10, 15, 20)."""
    return {float(fanout): y for fanout, y in zip(SMOKE.fanout_grid, ys)}


OFFLINE_BY_FANOUT = by_fanout(92.0, 95.0, 97.0, 99.0, 99.0, 99.0, 99.0)
TEN_SECOND_BY_FANOUT = by_fanout(40.0, 70.0, 85.0, 95.0, 96.0, 96.0, 97.0)


def figure1(offline=OFFLINE_BY_FANOUT, ten_second=TEN_SECOND_BY_FANOUT):
    return figure("figure1", {"offline viewing": offline, "10s lag": ten_second})


class TestFigure1:
    def test_paper_shape_passes_without_collapse(self):
        check_figure1(figure1(), SMOKE)

    def test_optimal_fanout_must_serve_almost_everyone(self):
        result = figure1(offline=changed(OFFLINE_BY_FANOUT, {7.0: 80.0}))
        with pytest.raises(AssertionError, match="offline viewing at the optimal fanout"):
            check_figure1(result, SMOKE)

    def test_smallest_fanout_must_underperform_the_optimum(self):
        result = figure1(ten_second=changed(TEN_SECOND_BY_FANOUT, {3.0: 95.0}))
        with pytest.raises(AssertionError, match="smallest fanout"):
            check_figure1(result, SMOKE)

    def test_collapse_is_required_where_the_caps_saturate(self):
        with pytest.raises(AssertionError, match="congestion-collapse"):
            check_figure1(figure1(), COLLAPSING)
        collapsed = figure1(ten_second=changed(TEN_SECOND_BY_FANOUT, {20.0: 40.0}))
        check_figure1(collapsed, COLLAPSING)

    def test_largest_fanout_must_stay_high_without_collapse(self):
        collapsed = figure1(ten_second=changed(TEN_SECOND_BY_FANOUT, {20.0: 40.0}))
        with pytest.raises(AssertionError, match="largest fanout underperforms"):
            check_figure1(collapsed, SMOKE)


def cdf(reach_time, final=100.0):
    """A lag CDF over SMOKE.fig2_lag_grid that reaches ``final`` at ``reach_time``."""
    return {
        lag: final if lag >= reach_time else final * lag / reach_time
        for lag in SMOKE.fig2_lag_grid
    }


def figure2(**overrides):
    # SMOKE.fig2_fanouts = (4, 7, 15, 20); SMOKE.optimal_fanout = 7
    reach_times = {4: 40.0, 7: 15.0, 15: 20.0, 20: 25.0}
    curves = {f"fanout {fanout}": cdf(reach) for fanout, reach in reach_times.items()}
    curves.update(overrides)
    return figure("figure2", curves)


class TestFigure2:
    def test_proper_cdfs_pass(self):
        check_figure2(figure2(), SMOKE)

    def test_skipped_when_the_optimal_fanout_is_not_plotted(self):
        result = figure2()
        result.series = [s for s in result.series if s.label != "fanout 7"]
        with pytest.raises(FigureCheckSkipped, match="does not plot the optimal fanout"):
            check_figure2(result, SMOKE)

    def test_a_falling_series_is_not_a_cdf(self):
        result = figure2(**{"fanout 4": changed(cdf(40.0), {30.0: 10.0})})
        with pytest.raises(AssertionError, match="'fanout 4' is not monotone"):
            check_figure2(result, SMOKE)

    def test_values_beyond_a_hundred_percent_are_rejected(self):
        result = figure2(**{"fanout 15": cdf(20.0, final=101.0)})
        with pytest.raises(AssertionError, match="'fanout 15' leaves the \\[0, 100\\] range"):
            check_figure2(result, SMOKE)

    def test_optimal_fanout_must_reach_almost_everyone(self):
        result = figure2(**{"fanout 7": cdf(15.0, final=85.0)})
        with pytest.raises(AssertionError, match="optimal fanout only reaches 85.0%"):
            check_figure2(result, SMOKE)

    def test_optimal_must_beat_the_oversized_fanout_mid_cdf_where_caps_saturate(self):
        check_figure2(figure2(), COLLAPSING)
        # At the mid lag (20 s) the optimum has reached 2/3 of the nodes, the
        # oversized fanout all of them.
        faster_oversized = figure2(**{"fanout 7": cdf(30.0), "fanout 20": cdf(10.0)})
        with pytest.raises(AssertionError, match="no longer beats the oversized one"):
            check_figure2(faster_oversized, COLLAPSING)

    def test_largest_fanout_must_reach_almost_everyone_without_collapse(self):
        result = figure2(**{"fanout 20": cdf(25.0, final=60.0)})
        with pytest.raises(AssertionError, match="largest fanout fails"):
            check_figure2(result, SMOKE)


def figure3(offline=OFFLINE_BY_FANOUT, ten_second=TEN_SECOND_BY_FANOUT):
    # SMOKE.fig3_caps_kbps = (2000.0,)
    return figure(
        "figure3",
        {"offline viewing, 2000kbps cap": offline, "10s lag, 2000kbps cap": ten_second},
    )


class TestFigure3:
    def test_loose_caps_pass(self):
        check_figure3(figure3(), SMOKE)

    def test_loosest_cap_must_carry_the_largest_fanout(self):
        result = figure3(offline=changed(OFFLINE_BY_FANOUT, {20.0: 60.0}))
        with pytest.raises(AssertionError, match="no longer carries the largest fanout"):
            check_figure3(result, SMOKE)

    def test_every_series_must_be_excellent_at_the_optimal_fanout(self):
        result = figure3(ten_second=changed(TEN_SECOND_BY_FANOUT, {7.0: 75.0}))
        with pytest.raises(AssertionError, match="'10s lag, 2000kbps cap' is poor"):
            check_figure3(result, SMOKE)

    def test_ten_second_viewing_never_exceeds_offline_viewing(self):
        result = figure3(ten_second=changed(TEN_SECOND_BY_FANOUT, {4.0: 96.0}))
        with pytest.raises(AssertionError, match="exceeds offline viewing"):
            check_figure3(result, SMOKE)


def usage(*kbps):
    """Per-rank upload usage, rank 1 first."""
    return {float(rank): value for rank, value in enumerate(kbps, 1)}


class TestFigure4:
    def test_sorted_usage_under_the_cap_passes(self):
        result = figure(
            "figure4",
            {
                "fanout 5, 700kbps cap": usage(710.0, 650.0, 400.0, 300.0),
                "fanout 20, 2000kbps cap": usage(1900.0, 1200.0, 800.0, 0.0),
            },
        )
        check_figure4(result, SMOKE)

    def test_usage_must_be_sorted_by_contribution(self):
        result = figure("figure4", {"fanout 5, 700kbps cap": usage(400.0, 650.0, 300.0)})
        with pytest.raises(AssertionError, match="is not sorted by contribution"):
            check_figure4(result, SMOKE)

    def test_usage_above_the_cap_is_rejected(self):
        # 5 % over the cap is the limiter's averaging slack; 6 % is not.
        check_figure4(figure("figure4", {"fanout 5, 700kbps cap": usage(735.0, 300.0)}), SMOKE)
        result = figure("figure4", {"fanout 5, 700kbps cap": usage(742.0, 300.0)})
        with pytest.raises(AssertionError, match="exceeds its upload cap"):
            check_figure4(result, SMOKE)


# X (or Y) -> % of nodes; STATIC_X encodes X = infinity.
OFFLINE_BY_RATE = {1.0: 95.0, 2.0: 94.0, 10.0: 90.0, 100.0: 80.0, STATIC_X: 60.0}
TEN_SECOND_BY_RATE = {1.0: 90.0, 2.0: 88.0, 10.0: 80.0, 100.0: 60.0, STATIC_X: 40.0}


def figure5(offline=OFFLINE_BY_RATE, ten_second=TEN_SECOND_BY_RATE):
    return figure("figure5", {"offline viewing": offline, "10s lag": ten_second})


class TestFigure5:
    def test_refresh_every_round_is_best(self):
        check_figure5(figure5(), SMOKE)

    def test_x_equal_one_must_be_among_the_best(self):
        result = figure5(offline=changed(OFFLINE_BY_RATE, {1.0: 83.0}))
        with pytest.raises(AssertionError, match="X = 1 is no longer among the best"):
            check_figure5(result, SMOKE)

    def test_static_mesh_must_be_clearly_worse(self):
        result = figure5(
            offline=changed(OFFLINE_BY_RATE, {STATIC_X: 80.0}),
            ten_second=changed(TEN_SECOND_BY_RATE, {STATIC_X: 70.0}),
        )
        with pytest.raises(AssertionError, match="static mesh stopped being clearly worse"):
            check_figure5(result, SMOKE)

    def test_ten_second_curve_must_decline_fastest(self):
        result = figure5(ten_second=changed(TEN_SECOND_BY_RATE, {STATIC_X: 70.0}))
        with pytest.raises(AssertionError, match="10s-lag curve no longer declines fastest"):
            check_figure5(result, SMOKE)


class _FixedBaseline:
    """A summary cache whose every point views at ``percentage``; records requests."""

    def __init__(self, percentage):
        self.percentage = percentage
        self.points = []

    def get(self, scale, point):
        self.points.append(point)
        return self

    def viewing_percentage(self, lag):
        return self.percentage


OFFLINE_BY_FEEDME = {1.0: 78.0, 2.0: 80.0, 10.0: 84.0, 100.0: 82.0, STATIC_X: 76.0}


def figure6(offline=OFFLINE_BY_FEEDME):
    return figure("figure6", {"offline viewing": offline})


class TestFigure6:
    def test_feed_me_helps_but_does_not_beat_plain_gossip(self):
        baseline = _FixedBaseline(92.0)
        check_figure6(figure6(), SMOKE, baseline)
        # The X = 1 baseline is one figure-5 point, fetched through the cache.
        assert [(p.scale_name, p.refresh_every) for p in baseline.points] == [("smoke", 1)]

    def test_some_feed_me_rate_must_improve_on_the_static_mesh(self):
        result = figure6(changed(OFFLINE_BY_FEEDME, {STATIC_X: 90.0}))
        with pytest.raises(AssertionError, match="no feed-me rate improves"):
            check_figure6(result, SMOKE, _FixedBaseline(92.0))

    def test_frequent_requests_must_help_where_caps_saturate(self):
        result = figure6(changed(OFFLINE_BY_FEEDME, {1.0: 70.0}))
        check_figure6(result, SMOKE, _FixedBaseline(92.0))  # only the weak form at smoke
        with pytest.raises(AssertionError, match="frequent feed-me requests stopped helping"):
            check_figure6(result, COLLAPSING, _FixedBaseline(92.0))

    def test_feed_me_must_not_beat_plain_refresh(self):
        with pytest.raises(AssertionError, match="now beats plain X = 1 gossip"):
            check_figure6(figure6(), SMOKE, _FixedBaseline(70.0))


def by_churn(*ys):
    """% values at SMOKE.churn_grid, on the figures' percent axis."""
    return {fraction * 100.0: y for fraction, y in zip(SMOKE.churn_grid, ys)}


def churn_figure(figure_id, dynamic, static):
    return figure(figure_id, {"20s lag, X=1": dynamic, "20s lag, X=inf": static})


class TestFigure7:
    def test_dynamic_mesh_keeps_the_most_survivors_unaffected(self):
        result = churn_figure("figure7", by_churn(70.0, 50.0, 20.0), by_churn(55.0, 30.0, 5.0))
        check_figure7(result, SMOKE)

    def test_light_churn_must_leave_many_survivors_unaffected(self):
        result = churn_figure("figure7", by_churn(35.0, 30.0, 20.0), by_churn(30.0, 20.0, 5.0))
        with pytest.raises(AssertionError, match="only 35.0% of survivors"):
            check_figure7(result, SMOKE)

    def test_dynamic_mesh_must_beat_the_static_one_at_light_churn(self):
        result = churn_figure("figure7", by_churn(70.0, 50.0, 20.0), by_churn(75.0, 30.0, 5.0))
        with pytest.raises(AssertionError, match="no longer beats the static one"):
            check_figure7(result, SMOKE)

    def test_heavy_churn_cannot_leave_more_nodes_untouched(self):
        result = churn_figure("figure7", by_churn(60.0, 50.0, 65.0), by_churn(55.0, 30.0, 5.0))
        with pytest.raises(AssertionError, match="heavy churn leaves more nodes untouched"):
            check_figure7(result, SMOKE)


class TestFigure8:
    def test_survivors_keep_decoding_under_moderate_churn(self):
        # Only churn up to 50 % is moderate: 80 % may fall below the bar.
        result = churn_figure("figure8", by_churn(98.0, 90.0, 60.0), by_churn(95.0, 80.0, 40.0))
        check_figure8(result, SMOKE)

    def test_moderate_churn_must_stay_above_85_percent(self):
        result = churn_figure("figure8", by_churn(98.0, 84.0, 60.0), by_churn(95.0, 80.0, 40.0))
        with pytest.raises(AssertionError, match="decode only 84.0% of windows at 50% churn"):
            check_figure8(result, SMOKE)

    def test_dynamic_mesh_must_win_on_average(self):
        result = churn_figure("figure8", by_churn(98.0, 90.0, 60.0), by_churn(99.0, 95.0, 70.0))
        with pytest.raises(AssertionError, match="no longer outperforms the static one"):
            check_figure8(result, SMOKE)


def test_every_figure_has_a_shape_check():
    assert sorted(FIGURE_CHECKS) == sorted(ALL_FIGURES)
