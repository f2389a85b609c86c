"""Compact, picklable summaries of one experiment point.

The parallel executor ships :class:`~repro.core.session.SessionResult`
analysis to the *workers*: each worker runs its session, extracts the
figure-facing metrics into a :class:`PointSummary`, and only that small
record crosses the process boundary (a full session result holds every
delivery of every packet at every node — hundreds of thousands of floats).

Which metrics are extracted is declared up front by a
:class:`MetricsRequest` (derived from the experiment scale), because the
worker cannot know which playout lags or CDF grids the figures will ask
for after the fact.

Summaries also serialize to and from plain JSON dictionaries, which is what
the :class:`~repro.sweep.store.ResultStore` appends to its JSONL file.
Infinite lags ("offline viewing") are encoded as the string ``"inf"`` so the
records remain standard JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence, Tuple

from repro.core.session import SessionResult
from repro.metrics.quality import OFFLINE_LAG

LagValues = Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class MetricsRequest:
    """Which metrics a worker must extract from its session result.

    Attributes
    ----------
    viewing_lags:
        Playout lags at which the viewing percentage is evaluated
        (Figures 1, 3, 5, 6, 7).
    window_lags:
        Lags at which the average complete-window percentage is evaluated
        (Figure 8).
    lag_cdf_grid:
        The critical-lag CDF grid (Figure 2).
    include_usage:
        Whether to extract the sorted per-node upload usage (Figure 4).
    include_metrics:
        Whether to run the point with the telemetry metrics registry armed
        and persist its snapshot into the summary (the value of every
        rendered metric name).  Off by default: metrics add rows to every
        store record and most sweeps only need the figure-facing numbers.
    """

    viewing_lags: Tuple[float, ...] = (10.0, 20.0, OFFLINE_LAG)
    window_lags: Tuple[float, ...] = (20.0,)
    lag_cdf_grid: Tuple[float, ...] = ()
    include_usage: bool = True
    include_metrics: bool = False

    @classmethod
    def for_scale(cls, scale) -> "MetricsRequest":
        """Everything the eight figure generators need at ``scale``."""
        lags = sorted(set(scale.lag_values) | {10.0, 20.0, OFFLINE_LAG})
        return cls(
            viewing_lags=tuple(lags),
            window_lags=(20.0,),
            lag_cdf_grid=tuple(scale.fig2_lag_grid),
            include_usage=True,
        )


@dataclass(frozen=True)
class PointSummary:
    """The figure-facing metrics of one completed experiment point.

    ``wall_seconds`` is excluded from equality: two runs of the same point
    are *the same result* regardless of how long they took, which is what
    lets determinism tests compare serial and parallel sweeps directly.
    """

    cell_id: str
    seed: int
    viewing: LagValues = ()
    complete_windows: LagValues = ()
    lag_cdf: LagValues = ()
    sorted_usage_kbps: Tuple[float, ...] = ()
    delivery_ratio: float = 0.0
    num_receivers: int = 0
    num_survivors: int = 0
    num_failed: int = 0
    events_processed: int = 0
    end_time: float = 0.0
    metrics: Tuple[Tuple[str, float], ...] = ()
    wall_seconds: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------------
    # Figure-facing accessors (mirroring SessionResult's headline API)
    # ------------------------------------------------------------------
    def viewing_percentage(self, lag: float) -> float:
        """Percentage of nodes viewing with < 1 % jitter at ``lag``."""
        for recorded_lag, value in self.viewing:
            if recorded_lag == lag:
                return value
        raise KeyError(f"summary of {self.cell_id!r} has no viewing lag {lag!r}")

    def average_complete_windows_percentage(self, lag: float) -> float:
        """Average percentage of decodable windows at ``lag`` (Figure 8)."""
        for recorded_lag, value in self.complete_windows:
            if recorded_lag == lag:
                return value
        raise KeyError(f"summary of {self.cell_id!r} has no window lag {lag!r}")

    def lag_cdf_values(self, lag_grid: Sequence[float]) -> List[float]:
        """Cumulative node fractions for ``lag_grid`` (Figure 2)."""
        recorded = dict(self.lag_cdf)
        missing = [lag for lag in lag_grid if lag not in recorded]
        if missing:
            raise KeyError(f"summary of {self.cell_id!r} has no CDF lags {missing!r}")
        return [recorded[lag] for lag in lag_grid]

    def sorted_usage(self, descending: bool = True) -> List[float]:
        """Per-node upload usage in kbps, sorted by contribution (Figure 4)."""
        usage = list(self.sorted_usage_kbps)
        return usage if descending else usage[::-1]

    @property
    def delivery_percentage(self) -> float:
        """Percentage of (survivor, packet) pairs delivered."""
        return self.delivery_ratio * 100.0

    # ------------------------------------------------------------------
    # JSON round-trip (ResultStore records)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """A standard-JSON-safe dictionary (``inf`` encoded as a string).

        The ``metrics`` key appears only when a snapshot was captured:
        store records written before the telemetry layer existed — and the
        golden files pinning them — stay byte-identical.
        """
        record: Dict[str, object] = {
            "cell_id": self.cell_id,
            "seed": self.seed,
            "viewing": [[_dump_float(lag), value] for lag, value in self.viewing],
            "complete_windows": [
                [_dump_float(lag), value] for lag, value in self.complete_windows
            ],
            "lag_cdf": [[_dump_float(lag), value] for lag, value in self.lag_cdf],
            "sorted_usage_kbps": list(self.sorted_usage_kbps),
            "delivery_ratio": self.delivery_ratio,
            "num_receivers": self.num_receivers,
            "num_survivors": self.num_survivors,
            "num_failed": self.num_failed,
            "events_processed": self.events_processed,
            "end_time": self.end_time,
            "wall_seconds": self.wall_seconds,
        }
        if self.metrics:
            record["metrics"] = [[name, value] for name, value in self.metrics]
        return record

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "PointSummary":
        """Rebuild a summary from :meth:`to_json_dict` output."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown summary fields: {sorted(unknown)}")
        return cls(
            cell_id=str(data["cell_id"]),
            seed=int(data["seed"]),
            viewing=_load_pairs(data.get("viewing", ())),
            complete_windows=_load_pairs(data.get("complete_windows", ())),
            lag_cdf=_load_pairs(data.get("lag_cdf", ())),
            sorted_usage_kbps=tuple(float(v) for v in data.get("sorted_usage_kbps", ())),
            delivery_ratio=float(data.get("delivery_ratio", 0.0)),
            num_receivers=int(data.get("num_receivers", 0)),
            num_survivors=int(data.get("num_survivors", 0)),
            num_failed=int(data.get("num_failed", 0)),
            events_processed=int(data.get("events_processed", 0)),
            end_time=float(data.get("end_time", 0.0)),
            metrics=tuple(
                (str(name), float(value)) for name, value in data.get("metrics", ())
            ),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )


def _dump_float(value: float) -> object:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _load_float(value: object) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)  # type: ignore[arg-type]


def _load_pairs(pairs) -> LagValues:
    return tuple((_load_float(lag), float(value)) for lag, value in pairs)


def summarize(
    result: SessionResult,
    request: MetricsRequest,
    cell_id: str,
    seed: int,
    wall_seconds: float = 0.0,
) -> PointSummary:
    """Extract the requested metrics from a full session result.

    This is the worker-side boundary of the parallel executor: everything
    after this call is small and picklable.
    """
    quality = result.quality()
    viewing = tuple(
        (lag, ratio * 100.0)
        for lag, ratio in quality.viewing_ratio_curve(request.viewing_lags)
    )
    complete = tuple(
        (lag, ratio * 100.0)
        for lag, ratio in quality.complete_window_curve(request.window_lags)
    )
    lag_cdf: LagValues = ()
    if request.lag_cdf_grid:
        fractions = quality.lag_cdf(request.lag_cdf_grid)
        lag_cdf = tuple(zip(request.lag_cdf_grid, fractions))
    usage: Tuple[float, ...] = ()
    if request.include_usage:
        usage = tuple(result.bandwidth_usage().sorted_usage(descending=True))
    metrics: Tuple[Tuple[str, float], ...] = ()
    if request.include_metrics and result.telemetry is not None:
        snapshot = result.telemetry.metrics
        metrics = tuple(sorted(snapshot.items()))
    return PointSummary(
        cell_id=cell_id,
        seed=seed,
        viewing=viewing,
        complete_windows=complete,
        lag_cdf=lag_cdf,
        sorted_usage_kbps=usage,
        delivery_ratio=result.delivery_ratio(),
        num_receivers=len(result.receivers()),
        num_survivors=len(result.survivors()),
        num_failed=len(result.failed_nodes),
        events_processed=result.events_processed,
        end_time=result.end_time,
        metrics=metrics,
        wall_seconds=wall_seconds,
    )
