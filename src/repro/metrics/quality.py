"""Stream quality and stream lag analysis.

All of the paper's evaluation quantities derive from one observation per
(node, window): the sorted list of per-packet *lags* — delivery time minus
publish time — of the window's packets that were eventually delivered.

From those sorted lags, for any playout lag ``L``:

* the window is **viewable at lag L** iff at least ``required_packets`` of
  its packets have individual lag ≤ L;
* a node's **jitter at lag L** is the fraction of windows not viewable;
* a node **views the stream** at lag L if its jitter is ≤ 1 % (Figures 1, 3,
  5, 6, 7);
* a node's **critical lag** (Figure 2) is the smallest L at which it views
  the stream — computed exactly from the per-window critical lags;
* the **complete-window ratio** at lag L (Figure 8) is the fraction of
  windows viewable at L, averaged over nodes.

"Offline viewing" is simply ``L = ∞`` (:data:`OFFLINE_LAG`).

Fast path
---------
A window is viewable at ``L`` iff its *critical lag* (the
``required``-th-smallest packet lag, ``∞`` when fewer than ``required``
packets ever arrived) is ≤ ``L``.  The analyzer therefore precomputes, per
node, the **sorted array of finite window-critical lags** (plus a count of
never-decodable windows) exactly once; every jitter / viewing /
complete-window / CDF query over any number of lag values then reduces to
one ``bisect`` per (node, lag) instead of a scan over all windows.  The
per-window lag arrays are taken straight from the delivery log's incremental
accumulators, so the analyzer never iterates per-delivery dictionaries at
all.  Results are float-for-float identical to
:class:`repro.metrics.reference.ReferenceQualityAnalyzer` — pinned by test.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.delivery import DeliveryLog
from repro.network.message import NodeId
from repro.streaming.schedule import StreamSchedule

OFFLINE_LAG: float = math.inf
"""Playout lag representing offline viewing (download now, watch later)."""


class StreamQualityAnalyzer:
    """Computes jitter, viewing ratios, critical lags and window completeness.

    Parameters
    ----------
    schedule:
        The stream schedule of the run (windows, publish times, thresholds).
    deliveries:
        The run's delivery log, built for the same stream (``ValueError``
        otherwise).
    nodes:
        The node ids to analyze (typically all non-source nodes, or the
        survivors of a churn experiment).  Nodes with no deliveries at all
        are still analyzed — they simply have 100 % jitter.
    """

    def __init__(
        self,
        schedule: StreamSchedule,
        deliveries: DeliveryLog,
        nodes: Sequence[NodeId],
    ) -> None:
        self._schedule = schedule
        self._deliveries = deliveries
        self._nodes: List[NodeId] = list(nodes)
        # Per node, per window: sorted per-packet lags of delivered packets.
        self._window_lags: Dict[NodeId, List[array]] = {}
        # Per node: sorted finite window-critical lags + never-decodable count.
        self._critical_finite: Dict[NodeId, array] = {}
        self._critical_inf: Dict[NodeId, int] = {}
        self._precompute()

    def _precompute(self) -> None:
        deliveries = self._deliveries
        if deliveries.schedule.config != self._schedule.config:
            raise ValueError(
                "the delivery log records a different stream than the analyzed schedule"
            )
        required = self.required_packets
        for node_id in self._nodes:
            finite = array("d")
            inf_count = 0
            sorted_windows: List[array] = []
            for lags in deliveries.window_lags_of(node_id):
                ordered = array("d", sorted(lags))
                sorted_windows.append(ordered)
                if len(ordered) < required:
                    inf_count += 1
                else:
                    finite.append(ordered[required - 1])
            finite = array("d", sorted(finite))
            self._window_lags[node_id] = sorted_windows
            self._critical_finite[node_id] = finite
            self._critical_inf[node_id] = inf_count

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_windows(self) -> int:
        """Number of windows in the analyzed stream."""
        return self._schedule.num_windows

    @property
    def required_packets(self) -> int:
        """Packets needed to decode one window (101 with paper defaults)."""
        return self._schedule.config.source_packets_per_window

    # ------------------------------------------------------------------
    # Per-window / per-node quantities
    # ------------------------------------------------------------------
    def window_viewable(self, node_id: NodeId, window_index: int, lag: float) -> bool:
        """Whether ``node_id`` can decode ``window_index`` at playout lag ``lag``."""
        lags = self._window_lags[node_id][window_index]
        required = self.required_packets
        if len(lags) < required:
            return False
        if math.isinf(lag):
            return True
        return lags[required - 1] <= lag

    def _viewable_windows(self, node_id: NodeId, lag: float) -> int:
        finite = self._critical_finite[node_id]
        if math.isinf(lag):
            return len(finite)
        return bisect.bisect_right(finite, lag)

    def node_jitter(self, node_id: NodeId, lag: float) -> float:
        """Fraction of windows ``node_id`` cannot decode at playout lag ``lag``."""
        num_windows = self.num_windows
        if num_windows == 0:
            return 0.0
        jittered = num_windows - self._viewable_windows(node_id, lag)
        return jittered / num_windows

    def node_views_stream(self, node_id: NodeId, lag: float, max_jitter: float = 0.01) -> bool:
        """The paper's viewing criterion: jitter at ``lag`` is at most ``max_jitter``."""
        return self.node_jitter(node_id, lag) <= max_jitter

    def node_complete_window_ratio(self, node_id: NodeId, lag: float) -> float:
        """Fraction of windows ``node_id`` decodes at ``lag`` (Figure 8's metric)."""
        return 1.0 - self.node_jitter(node_id, lag)

    def node_critical_lag(self, node_id: NodeId, max_jitter: float = 0.01) -> float:
        """Smallest playout lag at which the node views the stream.

        Equals the ``ceil((1 - max_jitter) * W)``-th smallest per-window
        critical lag; ``inf`` when too many windows never decode at all.
        """
        num_windows = self.num_windows
        if num_windows == 0:
            return 0.0
        needed_windows = math.ceil((1.0 - max_jitter) * num_windows)
        needed_windows = min(max(needed_windows, 1), num_windows)
        finite = self._critical_finite[node_id]
        if needed_windows <= len(finite):
            return finite[needed_windows - 1]
        return math.inf

    # ------------------------------------------------------------------
    # Aggregates over nodes (the paper's figures)
    # ------------------------------------------------------------------
    def viewing_ratio(
        self,
        lag: float,
        max_jitter: float = 0.01,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> float:
        """Fraction of nodes viewing the stream with ≤ ``max_jitter`` at ``lag``.

        This is the y-axis of Figures 1, 3, 5, 6 and 7.
        """
        node_list = list(nodes) if nodes is not None else self._nodes
        if not node_list:
            return 0.0
        viewing = sum(
            1 for node_id in node_list if self.node_views_stream(node_id, lag, max_jitter)
        )
        return viewing / len(node_list)

    def viewing_ratio_curve(
        self,
        lags: Sequence[float],
        max_jitter: float = 0.01,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> List[Tuple[float, float]]:
        """``(lag, viewing_ratio)`` for every lag in ``lags``.

        A convenience over per-lag calls; each point costs one bisect per
        node thanks to the precomputed critical-lag arrays.
        """
        node_list = list(nodes) if nodes is not None else self._nodes
        return [(lag, self.viewing_ratio(lag, max_jitter, node_list)) for lag in lags]

    def average_complete_window_ratio(
        self,
        lag: float,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> float:
        """Average fraction of decodable windows across nodes (Figure 8)."""
        node_list = list(nodes) if nodes is not None else self._nodes
        if not node_list:
            return 0.0
        total = sum(self.node_complete_window_ratio(node_id, lag) for node_id in node_list)
        return total / len(node_list)

    def complete_window_curve(
        self,
        lags: Sequence[float],
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> List[Tuple[float, float]]:
        """``(lag, average_complete_window_ratio)`` for every lag in ``lags``."""
        node_list = list(nodes) if nodes is not None else self._nodes
        return [(lag, self.average_complete_window_ratio(lag, node_list)) for lag in lags]

    def critical_lags(self, nodes: Optional[Iterable[NodeId]] = None) -> List[float]:
        """Critical lag of every node (Figure 2's underlying distribution)."""
        node_list = list(nodes) if nodes is not None else self._nodes
        return [self.node_critical_lag(node_id) for node_id in node_list]

    def lag_cdf(
        self,
        lag_grid: Sequence[float],
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> List[float]:
        """Cumulative fraction of nodes whose critical lag is ≤ each grid value.

        This is Figure 2: "percentage of nodes that can view at least 99 % of
        the stream with a lag shorter than t".
        """
        node_list = list(nodes) if nodes is not None else self._nodes
        if not node_list:
            return [0.0 for _ in lag_grid]
        critical = sorted(self.node_critical_lag(node_id) for node_id in node_list)
        fractions: List[float] = []
        for lag in lag_grid:
            count = bisect.bisect_right(critical, lag)
            fractions.append(count / len(node_list))
        return fractions

