"""Per-node upload bandwidth usage (Figure 4).

Figure 4 plots, for several (fanout, cap) combinations, the upload bandwidth
actually used by every node, sorted from the largest contributor to the
smallest.  The interesting observation is that even with a homogeneous cap
the distribution is heterogeneous, and the heterogeneity grows with spare
capacity.

:class:`BandwidthUsage` derives that curve from the network's traffic
statistics and the measured duration.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.network.message import NodeId
from repro.network.stats import TrafficStats


class BandwidthUsage:
    """Upload usage of each node over a measurement duration.

    Parameters
    ----------
    stats:
        The traffic statistics collected by the network during the run.
    duration_seconds:
        Length of the interval over which the average is taken (the session
        uses the full run duration — stream plus drain — so saturated nodes
        report at most their cap).
    nodes:
        Nodes to include; defaults to every node that sent traffic.
    """

    def __init__(
        self,
        stats: TrafficStats,
        duration_seconds: float,
        nodes: Optional[Sequence[NodeId]] = None,
    ) -> None:
        if duration_seconds <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_seconds!r}")
        self._stats = stats
        self.duration_seconds = float(duration_seconds)
        self._nodes: List[NodeId] = list(nodes) if nodes is not None else list(stats.raw())

    def node_upload_kbps(self, node_id: NodeId) -> float:
        """Average upload rate of one node over the measurement duration."""
        return self._stats.node(node_id).upload_kbps(self.duration_seconds)

    def per_node(self) -> Dict[NodeId, float]:
        """Upload rate of every analyzed node, keyed by node id."""
        return {node_id: self.node_upload_kbps(node_id) for node_id in self._nodes}

    def sorted_usage(self, descending: bool = True) -> List[float]:
        """Upload rates sorted by contribution — the x-axis ordering of Figure 4."""
        return sorted(self.per_node().values(), reverse=descending)

    def mean_kbps(self) -> float:
        """Average upload rate across the analyzed nodes."""
        usage = self.per_node()
        if not usage:
            return 0.0
        return sum(usage.values()) / len(usage)

    def max_kbps(self) -> float:
        """Largest per-node upload rate."""
        usage = self.per_node()
        return max(usage.values()) if usage else 0.0

    def heterogeneity(self) -> float:
        """Coefficient of variation of per-node upload rates.

        Near 0 when every node contributes equally (the 700 kbps saturated
        regime); grows with spare capacity (the 2000 kbps regime).
        """
        usage = list(self.per_node().values())
        if not usage:
            return 0.0
        mean = sum(usage) / len(usage)
        if mean == 0.0:
            return 0.0
        variance = sum((value - mean) ** 2 for value in usage) / len(usage)
        return variance ** 0.5 / mean

    def top_contributor_share(self, top_fraction: float = 0.1) -> float:
        """Fraction of total upload carried by the top ``top_fraction`` of nodes."""
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction!r}")
        usage = self.sorted_usage(descending=True)
        if not usage:
            return 0.0
        total = sum(usage)
        if total == 0.0:
            return 0.0
        top_count = max(1, int(round(len(usage) * top_fraction)))
        return sum(usage[:top_count]) / total
