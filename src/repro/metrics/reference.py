"""Reference (pre-fast-path) quality analyzer, kept for pinning and benchmarks.

This is the original per-call implementation of
:class:`~repro.metrics.quality.StreamQualityAnalyzer`, preserved verbatim:
it re-derives every quantity by walking the per-window lag lists on each
call (``node_jitter`` scans all windows per lag value, ``node_critical_lag``
re-sorts the per-window critical lags per call).

Two consumers keep it alive:

* the equivalence tests in ``tests/metrics/test_quality_fast_path.py``,
  which pin the fast one-pass analyzer against this implementation on
  randomized delivery logs, float-for-float;
* ``python -m repro.bench run --filter large-session``, which reports the measured
  speedup of the fast path over this implementation on a real session's
  delivery log.

Do not "optimize" this module — its value is being the slow, obviously
correct baseline.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.metrics.delivery import DeliveryLog
from repro.network.message import NodeId
from repro.streaming.schedule import StreamSchedule

OFFLINE_LAG: float = math.inf
"""Playout lag representing offline viewing (download now, watch later)."""


class ReferenceQualityAnalyzer:
    """The pre-fast-path quality analyzer (see module docstring)."""

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
        self._window_lags: Dict[NodeId, List[List[float]]] = {}
        self._precompute()

    def _precompute(self) -> None:
        schedule = self._schedule
        num_windows = schedule.num_windows
        per_window = schedule.config.packets_per_window
        raw = self._deliveries.raw()
        publish_times = [descriptor.publish_time for descriptor in schedule.packets()]

        for node_id in self._nodes:
            node_deliveries = raw.get(node_id, {})
            lags: List[List[float]] = [[] for _ in range(num_windows)]
            for packet_id, delivered_at in node_deliveries.items():
                if packet_id >= len(publish_times):
                    continue
                window_index = packet_id // per_window
                lags[window_index].append(delivered_at - publish_times[packet_id])
            for window_lags in lags:
                window_lags.sort()
            self._window_lags[node_id] = lags

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        """The nodes covered by this analyzer."""
        return list(self._nodes)

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
        on_time = bisect.bisect_right(lags, lag)
        return on_time >= required

    def window_critical_lag(self, node_id: NodeId, window_index: int) -> float:
        """Smallest lag at which the window decodes (``inf`` if it never does)."""
        lags = self._window_lags[node_id][window_index]
        required = self.required_packets
        if len(lags) < required:
            return math.inf
        return lags[required - 1]

    def node_jitter(self, node_id: NodeId, lag: float) -> float:
        """Fraction of windows ``node_id`` cannot decode at playout lag ``lag``."""
        num_windows = self.num_windows
        if num_windows == 0:
            return 0.0
        jittered = sum(
            1
            for window_index in range(num_windows)
            if not self.window_viewable(node_id, window_index, lag)
        )
        return jittered / num_windows

    def node_views_stream(self, node_id: NodeId, lag: float, max_jitter: float = 0.01) -> bool:
        """The paper's viewing criterion: jitter at ``lag`` is at most ``max_jitter``."""
        return self.node_jitter(node_id, lag) <= max_jitter

    def node_complete_window_ratio(self, node_id: NodeId, lag: float) -> float:
        """Fraction of windows ``node_id`` decodes at ``lag`` (Figure 8's metric)."""
        return 1.0 - self.node_jitter(node_id, lag)

    def node_critical_lag(self, node_id: NodeId, max_jitter: float = 0.01) -> float:
        """Smallest playout lag at which the node views the stream."""
        num_windows = self.num_windows
        if num_windows == 0:
            return 0.0
        critical_lags = sorted(
            self.window_critical_lag(node_id, window_index)
            for window_index in range(num_windows)
        )
        needed_windows = math.ceil((1.0 - max_jitter) * num_windows)
        needed_windows = min(max(needed_windows, 1), num_windows)
        return critical_lags[needed_windows - 1]

    # ------------------------------------------------------------------
    # Aggregates over nodes (the paper's figures)
    # ------------------------------------------------------------------
    def viewing_ratio(
        self,
        lag: float,
        max_jitter: float = 0.01,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> float:
        """Fraction of nodes viewing the stream with ≤ ``max_jitter`` at ``lag``."""
        node_list = list(nodes) if nodes is not None else self._nodes
        if not node_list:
            return 0.0
        viewing = sum(
            1 for node_id in node_list if self.node_views_stream(node_id, lag, max_jitter)
        )
        return viewing / len(node_list)

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

    def critical_lags(self, nodes: Optional[Iterable[NodeId]] = None) -> List[float]:
        """Critical lag of every node (Figure 2's underlying distribution)."""
        node_list = list(nodes) if nodes is not None else self._nodes
        return [self.node_critical_lag(node_id) for node_id in node_list]

    def lag_cdf(
        self,
        lag_grid: Sequence[float],
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> List[float]:
        """Cumulative fraction of nodes whose critical lag is ≤ each grid value."""
        node_list = list(nodes) if nodes is not None else self._nodes
        if not node_list:
            return [0.0 for _ in lag_grid]
        critical = sorted(self.node_critical_lag(node_id) for node_id in node_list)
        fractions: List[float] = []
        for lag in lag_grid:
            count = bisect.bisect_right(critical, lag)
            fractions.append(count / len(node_list))
        return fractions

    def delivery_ratio(self, node_id: NodeId) -> float:
        """Fraction of all stream packets ever delivered to ``node_id``."""
        total = self._schedule.num_packets
        if total == 0:
            return 0.0
        return self._deliveries.packets_delivered(node_id) / total
