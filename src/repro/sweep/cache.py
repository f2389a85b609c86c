"""Cross-figure caching of point summaries.

:class:`SummaryCache` is what the figure generators consume: it memoizes
:class:`~repro.sweep.summary.PointSummary` records by experiment point, runs
points serially on a miss, and can be *primed* with the results of a
parallel sweep so that figure generation afterwards touches no simulation at
all.  It replaces the old ``experiments.runner.shared_cache`` (which held
full in-memory session results and died with the process).

:class:`RecordingCache` is the planning half of the same interface: calling
a figure generator against it records exactly which points the figure needs
— without running anything — which is how the CLI builds the task list it
hands to the parallel executor.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.experiments.runner import ExperimentPoint
from repro.experiments.scale import ExperimentScale

from repro.sweep.spec import SweepTask
from repro.sweep.summary import MetricsRequest, PointSummary


class SummaryCache:
    """Memoizes point summaries; the figure generators' result provider."""

    def __init__(self) -> None:
        self._summaries: Dict[ExperimentPoint, PointSummary] = {}

    def get(self, scale: ExperimentScale, point: ExperimentPoint) -> PointSummary:
        """The summary for ``point``, running its session serially if needed."""
        cached = self._summaries.get(point)
        if cached is not None:
            return cached
        summary = self._compute(scale, point)
        self._summaries[point] = summary
        return summary

    def _compute(self, scale: ExperimentScale, point: ExperimentPoint) -> PointSummary:
        # Imported here: executor imports experiments modules that in turn
        # import this module at package-init time.
        from repro.sweep.executor import compute_summary

        return compute_summary(scale, SweepTask(point=point), MetricsRequest.for_scale(scale))

    def prime(self, results: Mapping[SweepTask, PointSummary]) -> int:
        """Install sweep results (patch-free tasks only) as cache entries.

        Returns the number of entries installed.  Patched tasks are skipped:
        their results do not correspond to any plain experiment point.
        """
        installed = 0
        for task, summary in results.items():
            if task.patch:
                continue
            self._summaries[task.point] = summary
            installed += 1
        return installed


class _PlanningSummary(PointSummary):
    """A summary stand-in whose every metric is zero (plan collection only)."""

    def viewing_percentage(self, lag: float) -> float:
        return 0.0

    def average_complete_windows_percentage(self, lag: float) -> float:
        return 0.0

    def lag_cdf_values(self, lag_grid) -> List[float]:
        return [0.0 for _ in lag_grid]

    def sorted_usage(self, descending: bool = True) -> List[float]:
        return []


class RecordingCache(SummaryCache):
    """Records requested points instead of running them.

    Running a figure generator against a recording cache is a dry run: the
    generator's control flow executes (so the recorded plan is exactly its
    real request sequence, deduplicated) but every metric reads as zero and
    no simulation happens.
    """

    def __init__(self) -> None:
        super().__init__()
        self._points: List[ExperimentPoint] = []

    def _compute(self, scale: ExperimentScale, point: ExperimentPoint) -> PointSummary:
        # Called once per point: ``get`` serves every repeat from the memo.
        self._points.append(point)
        return _PlanningSummary(cell_id=SweepTask(point=point).cell_id, seed=scale.seed + point.seed_offset)

    def points(self) -> List[ExperimentPoint]:
        """The recorded points, in first-request order, deduplicated."""
        return list(self._points)


shared_summary_cache = SummaryCache()
"""Process-wide cache shared by all figure generators by default."""
