"""Paper-shape assertions for every figure benchmark.

These are the assertions ``python -m repro.bench run --filter figureN``
makes on a regenerated figure.  Each
``check_figureN(result, scale, cache)`` raises :class:`AssertionError` with
a readable message when the regenerated figure loses the shape the paper
reports, or :class:`FigureCheckSkipped` when the scale cannot express the
check at all.

The scale-awareness story (PR 3) is unchanged: the congestion-collapse
regime on the right edge of Figures 1 and 2 only exists where the upload
caps saturate (``scale.fanout_collapse_expected``); at the 30-node smoke
scale the contrapositive is asserted instead — the curve must *stay high*
at the largest fanout.
"""

from __future__ import annotations

from repro.experiments.figures import FigureResult, figure5_refresh_rate
from repro.experiments.scale import ExperimentScale

#: The X = ∞ / Y = ∞ sentinel used on the numeric axes of Figures 5–8.
STATIC_X = -1.0


class FigureCheckSkipped(Exception):
    """The scale cannot express this check."""


def check_figure1(result: FigureResult, scale: ExperimentScale, cache=None) -> None:
    """Bell shape: rising left edge, high plateau, scale-aware right edge."""
    offline = result.series_by_label("offline viewing")
    ten_second = result.series_by_label("10s lag")
    optimal = float(scale.optimal_fanout)
    smallest = float(min(scale.fanout_grid))
    largest = float(max(scale.fanout_grid))

    # Shape check 1: the optimal fanout serves (almost) everyone.
    assert offline.y_at(optimal) >= 90.0, (
        f"figure1: offline viewing at the optimal fanout dropped to {offline.y_at(optimal):.1f}%"
    )
    # Shape check 2: the smallest fanout is clearly worse than the optimum.
    assert ten_second.y_at(smallest) < ten_second.y_at(optimal), (
        "figure1: the smallest fanout no longer underperforms the optimum"
    )
    if scale.fanout_collapse_expected:
        # Shape check 3: the largest fanout collapses for real-time lags.
        assert ten_second.y_at(largest) < ten_second.y_at(optimal) - 30.0, (
            "figure1: the congestion-collapse regime at oversized fanouts disappeared"
        )
    else:
        # No collapse regime at this scale: the caps never saturate, so the
        # largest fanout must be at least as good as the optimum.
        assert ten_second.y_at(largest) >= ten_second.y_at(optimal), (
            "figure1: the largest fanout underperforms at a scale without collapse"
        )


def check_figure2(result: FigureResult, scale: ExperimentScale, cache=None) -> None:
    """Every series a proper CDF; the optimal fanout reaches everyone fast."""
    largest_lag = max(scale.fig2_lag_grid)
    optimal_label = f"fanout {scale.optimal_fanout}"
    try:
        optimal_series = result.series_by_label(optimal_label)
    except KeyError:
        raise FigureCheckSkipped(
            f"scale {scale.name!r} does not plot the optimal fanout in figure 2"
        ) from None

    # Every series is a CDF: monotone, bounded by 100.
    for series in result.series:
        ys = series.ys()
        assert all(later >= earlier - 1e-9 for earlier, later in zip(ys, ys[1:])), (
            f"figure2: series {series.label!r} is not monotone"
        )
        assert all(0.0 <= y <= 100.0 for y in ys), (
            f"figure2: series {series.label!r} leaves the [0, 100] range"
        )

    # The optimal fanout reaches (almost) everyone within the plotted lags.
    assert optimal_series.y_at(largest_lag) >= 90.0, (
        f"figure2: the optimal fanout only reaches {optimal_series.y_at(largest_lag):.1f}%"
    )
    largest_fanout = max(scale.fig2_fanouts)
    oversized_series = result.series_by_label(f"fanout {largest_fanout}")
    if scale.fanout_collapse_expected:
        # ... and does so faster than the largest fanout in the plot.
        mid_lag = scale.fig2_lag_grid[len(scale.fig2_lag_grid) // 3]
        assert optimal_series.y_at(mid_lag) >= oversized_series.y_at(mid_lag), (
            "figure2: the optimal fanout no longer beats the oversized one mid-CDF"
        )
    else:
        # No collapse regime at this scale: the largest fanout also serves
        # (almost) everyone within the plotted lags.
        assert oversized_series.y_at(largest_lag) >= 90.0, (
            "figure2: the largest fanout fails at a scale without collapse"
        )


def check_figure3(result: FigureResult, scale: ExperimentScale, cache=None) -> None:
    """Looser caps widen the good-fanout region."""
    largest = float(max(scale.fanout_grid))
    loosest_cap = max(scale.fig3_caps_kbps)
    loose_offline = result.series_by_label(f"offline viewing, {loosest_cap:.0f}kbps cap")
    loose_ten = result.series_by_label(f"10s lag, {loosest_cap:.0f}kbps cap")

    # With plenty of headroom the largest fanout still performs well offline.
    assert loose_offline.y_at(largest) >= 70.0, (
        f"figure3: the loosest cap no longer carries the largest fanout "
        f"({loose_offline.y_at(largest):.1f}%)"
    )
    # And the optimal fanout is excellent at every cap.
    optimal = float(scale.optimal_fanout)
    for series in result.series:
        assert series.y_at(optimal) >= 80.0, (
            f"figure3: series {series.label!r} is poor at the optimal fanout"
        )
    # 10 s-lag viewing never exceeds offline viewing.
    for fanout in loose_ten.xs():
        assert loose_ten.y_at(fanout) <= loose_offline.y_at(fanout) + 1e-9, (
            "figure3: 10s-lag viewing exceeds offline viewing"
        )


def check_figure4(result: FigureResult, scale: ExperimentScale, cache=None) -> None:
    """Sorted contributions under the cap; heterogeneous even when capped."""
    for series in result.series:
        ys = series.ys()
        # Sorted by contribution, largest first.
        assert all(earlier >= later - 1e-9 for earlier, later in zip(ys, ys[1:])), (
            f"figure4: series {series.label!r} is not sorted by contribution"
        )
        cap = float(series.label.rsplit(",", 1)[1].replace("kbps cap", "").strip())
        # Usage is averaged over the whole run, so the throttling limiter
        # keeps every node at (or marginally below) its configured cap.
        assert max(ys) <= cap * 1.05, (
            f"figure4: series {series.label!r} exceeds its upload cap"
        )
        # Heterogeneity: the top contributor clearly outworks the median.
        median = ys[len(ys) // 2]
        if median > 0:
            assert ys[0] >= median, (
                f"figure4: series {series.label!r} lost its contribution spread"
            )


def check_figure5(result: FigureResult, scale: ExperimentScale, cache=None) -> None:
    """X = 1 is best; a fully static mesh is clearly worse."""
    offline = result.series_by_label("offline viewing")
    ten_second = result.series_by_label("10s lag")

    # X = 1 is (one of) the best settings; the static mesh is clearly worse.
    assert offline.y_at(1.0) >= offline.max_y() - 10.0, (
        "figure5: X = 1 is no longer among the best refresh rates"
    )
    assert offline.y_at(1.0) > offline.y_at(STATIC_X) + 20.0, (
        "figure5: the static mesh stopped being clearly worse than X = 1"
    )
    # The decline is steepest for the shortest lag (the paper's observation
    # that the 10 s-lag curve has the most negative slope).
    drop_offline = offline.y_at(1.0) - offline.y_at(STATIC_X)
    drop_ten = ten_second.y_at(1.0) - ten_second.y_at(STATIC_X)
    assert drop_ten >= drop_offline - 1e-9, (
        "figure5: the 10s-lag curve no longer declines fastest"
    )


def check_figure6(result: FigureResult, scale: ExperimentScale, cache=None) -> None:
    """Feed-me helps a static mesh but never beats plain X = 1."""
    offline = result.series_by_label("offline viewing")

    # Some feed-me rate improves on (or at least matches) the fully static
    # mesh; in the congestion regime the paper's stronger claim holds —
    # even *frequent* requests help.  At the 30-node smoke scale a static
    # mesh is already well connected and Y = 1 adds load for nothing, so
    # only the weaker form is asserted there.
    enabled_best = max(y for x, y in offline.points if x != STATIC_X)
    assert enabled_best >= offline.y_at(STATIC_X) - 1e-9, (
        "figure6: no feed-me rate improves on the fully static mesh"
    )
    if scale.fanout_collapse_expected:
        assert offline.y_at(1.0) >= offline.y_at(STATIC_X) - 1e-9, (
            "figure6: frequent feed-me requests stopped helping the static mesh"
        )

    # ...but do not beat plain X = 1 (compare against the Figure 5 baseline,
    # re-run here through the cache-backed generator at a single point).
    baseline = figure5_refresh_rate(scale, cache, refresh_values=(1,))
    x1_offline = baseline.series_by_label("offline viewing").y_at(1.0)
    # "does not provide any improvement over standard gossip": allow a small
    # tolerance since a single node flipping state moves these percentages
    # by a couple of points at reduced scales.
    assert x1_offline >= offline.max_y() - 10.0, (
        "figure6: the feed-me mechanism now beats plain X = 1 gossip"
    )


def check_figure7(result: FigureResult, scale: ExperimentScale, cache=None) -> None:
    """A dynamic mesh keeps the most survivors unaffected by churn."""
    smallest_churn = min(scale.churn_grid) * 100.0
    largest_churn = max(scale.churn_grid) * 100.0
    dynamic_20s = result.series_by_label("20s lag, X=1")
    static_20s = result.series_by_label("20s lag, X=inf")

    # A dynamic mesh keeps a sizeable fraction of survivors fully unaffected
    # at light churn, and beats the static mesh there.
    assert dynamic_20s.y_at(smallest_churn) >= 40.0, (
        f"figure7: only {dynamic_20s.y_at(smallest_churn):.1f}% of survivors "
        f"unaffected at light churn"
    )
    assert dynamic_20s.y_at(smallest_churn) >= static_20s.y_at(smallest_churn), (
        "figure7: the dynamic mesh no longer beats the static one at light churn"
    )
    # Heavier churn leaves fewer nodes untouched than light churn.
    assert dynamic_20s.y_at(largest_churn) <= dynamic_20s.y_at(smallest_churn) + 1e-9, (
        "figure7: heavy churn leaves more nodes untouched than light churn"
    )


def check_figure8(result: FigureResult, scale: ExperimentScale, cache=None) -> None:
    """X = 1 survivors keep decoding ≥ 85 % of windows under moderate churn."""
    dynamic = result.series_by_label("20s lag, X=1")
    static = result.series_by_label("20s lag, X=inf")
    moderate_churn = [x for x in dynamic.xs() if x <= 50.0]

    # X = 1 keeps survivors above 85 % complete windows for moderate churn.
    for churn in moderate_churn:
        assert dynamic.y_at(churn) >= 85.0, (
            f"figure8: survivors decode only {dynamic.y_at(churn):.1f}% of windows "
            f"at {churn:.0f}% churn"
        )
    # And outperforms the fully static mesh on average (the gap is wide at
    # the reduced/paper scales and narrower at the smoke scale, where a
    # 30-node static graph is still fairly well connected).
    dynamic_mean = sum(dynamic.ys()) / len(dynamic.ys())
    static_mean = sum(static.ys()) / len(static.ys())
    assert dynamic_mean > static_mean, (
        "figure8: the dynamic mesh no longer outperforms the static one on average"
    )


FIGURE_CHECKS = {
    "figure1": check_figure1,
    "figure2": check_figure2,
    "figure3": check_figure3,
    "figure4": check_figure4,
    "figure5": check_figure5,
    "figure6": check_figure6,
    "figure7": check_figure7,
    "figure8": check_figure8,
}
"""Check function per figure id (consumed by the suite)."""
