"""Generators for every figure of the paper's evaluation section.

Each ``figureN_*`` function sweeps the parameter the original figure varies,
obtains one :class:`~repro.sweep.PointSummary` per point through a
:class:`~repro.sweep.SummaryCache` (which runs the session serially on a
miss, or serves results precomputed by the parallel sweep executor) and
returns a :class:`FigureResult` whose series correspond to the lines of the
original plot.  ``FigureResult.to_table()`` renders the same data as text.

To regenerate figures on several cores, collect their points with
:func:`figure_points`, execute them with :func:`repro.sweep.run_sweep`,
prime a cache with the outcome and call the generators against it — this is
exactly what ``python -m repro.experiments --jobs N`` does.

The x/y semantics follow the paper exactly:

====== ============================================ =========================
Figure x axis                                       y axis
====== ============================================ =========================
1      fanout (700 kbps cap)                        % nodes with < 1 % jitter
2      stream lag t (700 kbps cap)                  % nodes with critical lag ≤ t
3      fanout (1000 / 2000 kbps caps)               % nodes with < 1 % jitter
4      node rank (sorted by contribution)           upload bandwidth (kbps)
5      view refresh rate X                          % nodes with < 1 % jitter
6      feed-me request rate Y                       % nodes with < 1 % jitter
7      % of nodes failing                           % survivors with < 1 % jitter
8      % of nodes failing                           avg % complete windows
====== ============================================ =========================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.membership.partners import INFINITE
from repro.metrics.quality import OFFLINE_LAG
from repro.metrics.report import Series, format_series_table

from repro.experiments.runner import ExperimentPoint, format_rate
from repro.experiments.scale import REDUCED, ExperimentScale

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sweep.cache import SummaryCache


def _default_cache() -> "SummaryCache":
    """The process-wide summary cache (imported lazily: sweep imports us)."""
    from repro.sweep.cache import shared_summary_cache

    return shared_summary_cache


@dataclass
class FigureResult:
    """The regenerated data of one paper figure."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    scale_name: str
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def series_by_label(self, label: str) -> Series:
        """Find one series by its label."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"{self.figure_id} has no series labelled {label!r}")

    def to_table(self, precision: int = 1) -> str:
        """Render all series as one aligned text table."""
        header = (
            f"{self.figure_id}: {self.title}\n"
            f"(scale={self.scale_name}; y = {self.y_label})\n"
        )
        return header + format_series_table(self.series, x_label=self.x_label, precision=precision)


def _lag_label(lag: float) -> str:
    if math.isinf(lag):
        return "offline viewing"
    return f"{lag:.0f}s lag"


def _x_value(value: float) -> float:
    """Represent X / Y sweep values on a numeric axis (∞ → -1 sentinel)."""
    return -1.0 if value == INFINITE else float(value)


def _rate_label(value: float) -> str:
    return format_rate(value)


# ----------------------------------------------------------------------
# Figure 1 — fanout sweep at 700 kbps
# ----------------------------------------------------------------------
def figure1_fanout_700(
    scale: ExperimentScale = REDUCED,
    cache: Optional[SummaryCache] = None,
    fanouts: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Percentage of nodes viewing with < 1 % jitter vs fanout (700 kbps cap)."""
    cache = cache if cache is not None else _default_cache()
    fanouts = tuple(fanouts) if fanouts is not None else scale.fanout_grid
    lags = sorted(scale.lag_values, reverse=True)

    result = FigureResult(
        figure_id="figure1",
        title="Nodes viewing the stream with <1% jitter vs fanout (700 kbps cap)",
        x_label="fanout",
        y_label="% of nodes",
        scale_name=scale.name,
        series=[Series(label=_lag_label(lag)) for lag in lags],
    )
    for fanout in fanouts:
        point = ExperimentPoint(scale_name=scale.name, fanout=fanout)
        summary = cache.get(scale, point)
        for lag, series in zip(lags, result.series):
            series.add(float(fanout), summary.viewing_percentage(lag))
    return result


# ----------------------------------------------------------------------
# Figure 2 — cumulative distribution of stream lag
# ----------------------------------------------------------------------
def figure2_lag_cdf(
    scale: ExperimentScale = REDUCED,
    cache: Optional[SummaryCache] = None,
    fanouts: Optional[Sequence[int]] = None,
) -> FigureResult:
    """Cumulative distribution of per-node critical lag for several fanouts."""
    cache = cache if cache is not None else _default_cache()
    fanouts = tuple(fanouts) if fanouts is not None else scale.fig2_fanouts

    result = FigureResult(
        figure_id="figure2",
        title="Cumulative distribution of stream lag (700 kbps cap)",
        x_label="stream lag (s)",
        y_label="% of nodes with 99% of windows within the lag",
        scale_name=scale.name,
    )
    for fanout in fanouts:
        point = ExperimentPoint(scale_name=scale.name, fanout=fanout)
        summary = cache.get(scale, point)
        series = Series(label=f"fanout {fanout}")
        fractions = summary.lag_cdf_values(scale.fig2_lag_grid)
        for lag, fraction in zip(scale.fig2_lag_grid, fractions):
            series.add(lag, fraction * 100.0)
        result.series.append(series)
    return result


# ----------------------------------------------------------------------
# Figure 3 — fanout sweep at 1000 / 2000 kbps
# ----------------------------------------------------------------------
def figure3_fanout_relaxed_caps(
    scale: ExperimentScale = REDUCED,
    cache: Optional[SummaryCache] = None,
    fanouts: Optional[Sequence[int]] = None,
    caps_kbps: Optional[Sequence[float]] = None,
) -> FigureResult:
    """Fanout sweep under looser upload caps (offline and 10 s lag)."""
    cache = cache if cache is not None else _default_cache()
    fanouts = tuple(fanouts) if fanouts is not None else scale.fanout_grid
    caps = tuple(caps_kbps) if caps_kbps is not None else scale.fig3_caps_kbps

    result = FigureResult(
        figure_id="figure3",
        title="Nodes viewing the stream with <1% jitter vs fanout (1000/2000 kbps caps)",
        x_label="fanout",
        y_label="% of nodes",
        scale_name=scale.name,
    )
    for cap in caps:
        for lag in (OFFLINE_LAG, 10.0):
            series = Series(label=f"{_lag_label(lag)}, {cap:.0f}kbps cap")
            for fanout in fanouts:
                point = ExperimentPoint(scale_name=scale.name, fanout=fanout, cap_kbps=cap)
                summary = cache.get(scale, point)
                series.add(float(fanout), summary.viewing_percentage(lag))
            result.series.append(series)
    return result


# ----------------------------------------------------------------------
# Figure 4 — distribution of upload bandwidth usage
# ----------------------------------------------------------------------
def figure4_bandwidth_usage(
    scale: ExperimentScale = REDUCED,
    cache: Optional[SummaryCache] = None,
    pairs: Optional[Sequence[tuple]] = None,
) -> FigureResult:
    """Per-node upload usage sorted by contribution, for (fanout, cap) pairs."""
    cache = cache if cache is not None else _default_cache()
    pairs = tuple(pairs) if pairs is not None else scale.fig4_pairs

    result = FigureResult(
        figure_id="figure4",
        title="Distribution of upload bandwidth usage among nodes",
        x_label="node rank (1 = largest contributor)",
        y_label="upload bandwidth used (kbps)",
        scale_name=scale.name,
    )
    for fanout, cap in pairs:
        point = ExperimentPoint(scale_name=scale.name, fanout=fanout, cap_kbps=cap)
        summary = cache.get(scale, point)
        usage = summary.sorted_usage(descending=True)
        series = Series(label=f"fanout {fanout}, {cap:.0f}kbps cap")
        for rank, kbps in enumerate(usage, start=1):
            series.add(float(rank), kbps)
        result.series.append(series)
    return result


# ----------------------------------------------------------------------
# Figure 5 — view refresh rate X
# ----------------------------------------------------------------------
def figure5_refresh_rate(
    scale: ExperimentScale = REDUCED,
    cache: Optional[SummaryCache] = None,
    refresh_values: Optional[Sequence[float]] = None,
) -> FigureResult:
    """Viewing percentage as a function of the view refresh rate X."""
    cache = cache if cache is not None else _default_cache()
    refresh_values = (
        tuple(refresh_values) if refresh_values is not None else scale.refresh_grid
    )
    lags = sorted(scale.lag_values, reverse=True)

    result = FigureResult(
        figure_id="figure5",
        title="Nodes viewing the stream with at most 1% jitter vs view refresh rate X",
        x_label="X (gossip periods; -1 denotes infinity)",
        y_label="% of nodes",
        scale_name=scale.name,
        series=[Series(label=_lag_label(lag)) for lag in lags],
        notes="x = -1 encodes X = infinity (a fully static partner set)",
    )
    for refresh in refresh_values:
        point = ExperimentPoint(scale_name=scale.name, refresh_every=refresh)
        summary = cache.get(scale, point)
        for lag, series in zip(lags, result.series):
            series.add(_x_value(refresh), summary.viewing_percentage(lag))
    return result


# ----------------------------------------------------------------------
# Figure 6 — feed-me request rate Y
# ----------------------------------------------------------------------
def figure6_feedme_rate(
    scale: ExperimentScale = REDUCED,
    cache: Optional[SummaryCache] = None,
    feedme_values: Optional[Sequence[float]] = None,
) -> FigureResult:
    """Viewing percentage as a function of the feed-me request rate Y.

    As in the paper, the feed-me mechanism is evaluated on top of an
    otherwise static view (X = ∞): the only view changes come from feed-me
    insertions, so the sweep isolates the effect of Y.
    """
    cache = cache if cache is not None else _default_cache()
    feedme_values = tuple(feedme_values) if feedme_values is not None else scale.feedme_grid
    lags = sorted(scale.lag_values, reverse=True)

    result = FigureResult(
        figure_id="figure6",
        title="Nodes viewing the stream with at most 1% jitter vs feed-me request rate Y",
        x_label="Y (gossip periods; -1 denotes infinity)",
        y_label="% of nodes",
        scale_name=scale.name,
        series=[Series(label=_lag_label(lag)) for lag in lags],
        notes="x = -1 encodes Y = infinity (feed-me disabled); X is infinite throughout",
    )
    for feedme in feedme_values:
        point = ExperimentPoint(
            scale_name=scale.name,
            refresh_every=INFINITE,
            feed_me_every=feedme,
        )
        summary = cache.get(scale, point)
        for lag, series in zip(lags, result.series):
            series.add(_x_value(feedme), summary.viewing_percentage(lag))
    return result


# ----------------------------------------------------------------------
# Figures 7 and 8 — churn
# ----------------------------------------------------------------------
def figure7_churn_unaffected(
    scale: ExperimentScale = REDUCED,
    cache: Optional[SummaryCache] = None,
    churn_fractions: Optional[Sequence[float]] = None,
    refresh_values: Optional[Sequence[float]] = None,
) -> FigureResult:
    """Percentage of *surviving* nodes with < 1 % jitter after a catastrophic failure."""
    cache = cache if cache is not None else _default_cache()
    churn_fractions = (
        tuple(churn_fractions) if churn_fractions is not None else scale.churn_grid
    )
    refresh_values = (
        tuple(refresh_values) if refresh_values is not None else scale.churn_refresh_values
    )

    result = FigureResult(
        figure_id="figure7",
        title="Surviving nodes with <1% jitter vs percentage of failing nodes",
        x_label="% of nodes failing",
        y_label="% of surviving nodes",
        scale_name=scale.name,
    )
    for refresh in refresh_values:
        for lag in (OFFLINE_LAG, 20.0):
            series = Series(label=f"{_lag_label(lag)}, X={_rate_label(refresh)}")
            for fraction in churn_fractions:
                point = ExperimentPoint(
                    scale_name=scale.name,
                    refresh_every=refresh,
                    churn_fraction=fraction,
                )
                summary = cache.get(scale, point)
                series.add(fraction * 100.0, summary.viewing_percentage(lag))
            result.series.append(series)
    return result


def figure8_churn_windows(
    scale: ExperimentScale = REDUCED,
    cache: Optional[SummaryCache] = None,
    churn_fractions: Optional[Sequence[float]] = None,
    refresh_values: Optional[Sequence[float]] = None,
) -> FigureResult:
    """Average percentage of complete windows over survivors vs churn (20 s lag)."""
    cache = cache if cache is not None else _default_cache()
    churn_fractions = (
        tuple(churn_fractions) if churn_fractions is not None else scale.churn_grid
    )
    refresh_values = (
        tuple(refresh_values) if refresh_values is not None else scale.churn_refresh_values
    )

    result = FigureResult(
        figure_id="figure8",
        title="Average percentage of complete windows for surviving nodes (20s lag)",
        x_label="% of nodes failing",
        y_label="average % of complete windows",
        scale_name=scale.name,
    )
    for refresh in refresh_values:
        series = Series(label=f"20s lag, X={_rate_label(refresh)}")
        for fraction in churn_fractions:
            point = ExperimentPoint(
                scale_name=scale.name,
                refresh_every=refresh,
                churn_fraction=fraction,
            )
            summary = cache.get(scale, point)
            series.add(fraction * 100.0, summary.average_complete_windows_percentage(20.0))
        result.series.append(series)
    return result


ALL_FIGURES = {
    "figure1": figure1_fanout_700,
    "figure2": figure2_lag_cdf,
    "figure3": figure3_fanout_relaxed_caps,
    "figure4": figure4_bandwidth_usage,
    "figure5": figure5_refresh_rate,
    "figure6": figure6_feedme_rate,
    "figure7": figure7_churn_unaffected,
    "figure8": figure8_churn_windows,
}
"""All figure generators keyed by figure id (used by the CLI-style examples)."""


def figure_points(figure_id: str, scale: ExperimentScale) -> List[ExperimentPoint]:
    """The experiment points ``figure_id`` needs at ``scale``, without running.

    Implemented as a dry run of the generator against a
    :class:`~repro.sweep.RecordingCache`, so the plan is exactly the
    generator's real request sequence (deduplicated) and cannot drift from
    its implementation.
    """
    if figure_id not in ALL_FIGURES:
        raise KeyError(f"unknown figure {figure_id!r}; available: {sorted(ALL_FIGURES)}")
    from repro.sweep.cache import RecordingCache

    recorder = RecordingCache()
    ALL_FIGURES[figure_id](scale, recorder)
    return recorder.points()
