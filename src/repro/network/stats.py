"""Traffic accounting.

The paper's Figure 4 plots the distribution of *used* upload bandwidth across
nodes for several (fanout, cap) combinations.  :class:`TrafficStats` records,
per node and per message kind, how many bytes were accepted by the upload
limiter, dropped due to congestion, lost in flight, and received — enough to
regenerate that figure and to sanity-check every experiment.

These counters are also the single source of the telemetry layer's ``net.*``
metrics: :meth:`TrafficStats.bind_registry` registers a snapshot-time
collector on a :class:`~repro.telemetry.metrics.MetricsRegistry`, so
Figure-4 accounting and telemetry share one recording code path (the
:class:`NodeTraffic` cells) instead of double-counting on the transport hot
path.  The per-node API stays exactly as before — it is the thin view the
figures read.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

from repro.network.message import NodeId


@dataclass(slots=True)
class NodeTraffic:
    """Byte and message counters for a single node."""

    bytes_sent: int = 0
    bytes_received: int = 0
    bytes_dropped_congestion: int = 0
    bytes_lost_in_flight: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    messages_dropped_congestion: int = 0
    messages_lost_in_flight: int = 0
    sent_bytes_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    received_bytes_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def upload_kbps(self, duration_seconds: float) -> float:
        """Average upload rate over ``duration_seconds``, in kbps."""
        if duration_seconds <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_seconds!r}")
        return self.bytes_sent * 8.0 / duration_seconds / 1000.0


class TrafficStats:
    """Per-node traffic counters.

    The transport updates a node's sent and received counters in its cell
    directly; drops and losses go through the two ``record_*`` methods.
    """

    def __init__(self) -> None:
        self._per_node: Dict[NodeId, NodeTraffic] = defaultdict(NodeTraffic)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_congestion_drop(self, node_id: NodeId, kind: str, size_bytes: int) -> None:
        """Record a datagram dropped by ``node_id``'s upload limiter."""
        traffic = self._per_node[node_id]
        traffic.bytes_dropped_congestion += size_bytes
        traffic.messages_dropped_congestion += 1

    def record_in_flight_loss(self, node_id: NodeId, kind: str, size_bytes: int) -> None:
        """Record a datagram from ``node_id`` lost by the network after sending."""
        traffic = self._per_node[node_id]
        traffic.bytes_lost_in_flight += size_bytes
        traffic.messages_lost_in_flight += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: NodeId) -> NodeTraffic:
        """Counters for ``node_id`` (zeros if it never appeared)."""
        return self._per_node[node_id]

    def raw(self) -> Dict[NodeId, NodeTraffic]:
        """Direct (read-only by convention) access to the per-node cells.

        Mirrors :meth:`repro.metrics.delivery.DeliveryLog.raw`: the sharded
        runner's merge step re-homes whole cells — every counter of a node
        is recorded on the shard that owns it, so cells never need summing.
        """
        return self._per_node

    def adopt_cell(self, node_id: NodeId, cell: NodeTraffic) -> None:
        """Install a node's counter cell wholesale (shard-merge path).

        Refuses to overwrite: a cell arriving for an already-populated node
        means two shards both recorded traffic for it, which violates the
        ownership invariant the merge relies on.
        """
        if node_id in self._per_node:
            raise ValueError(f"traffic cell for node {node_id} is already populated")
        self._per_node[node_id] = cell

    def total_congestion_drops(self) -> int:
        """Total messages dropped by upload limiters across all nodes."""
        return sum(
            traffic.messages_dropped_congestion for traffic in self._per_node.values()
        )

    def total_in_flight_losses(self) -> int:
        """Total messages lost in flight across all nodes."""
        return sum(traffic.messages_lost_in_flight for traffic in self._per_node.values())

    # ------------------------------------------------------------------
    # Telemetry view
    # ------------------------------------------------------------------
    def bind_registry(self, registry) -> None:
        """Export these counters through a telemetry metrics registry.

        Registers :meth:`metrics_view` as a snapshot-time collector: the
        :class:`NodeTraffic` cells stay the only recording path and the
        registry reads them lazily, so arming telemetry adds zero cost to
        the transport hot path.
        """
        registry.register_collector(self.metrics_view)

    def metrics_view(self) -> Dict[str, float]:
        """The aggregate ``net.*`` metric snapshot of the current counters.

        Totals are summed across nodes; byte counters are additionally
        split per message kind (``net.bytes_sent{kind=serve}`` …), which is
        the shape the paper's Figure-4 phase-budget analysis wants.
        """
        from repro.telemetry.metrics import render_metric_name

        totals = NodeTraffic()
        by_kind_sent: Dict[str, int] = defaultdict(int)
        by_kind_received: Dict[str, int] = defaultdict(int)
        for traffic in self._per_node.values():
            totals.bytes_sent += traffic.bytes_sent
            totals.bytes_received += traffic.bytes_received
            totals.bytes_dropped_congestion += traffic.bytes_dropped_congestion
            totals.bytes_lost_in_flight += traffic.bytes_lost_in_flight
            totals.messages_sent += traffic.messages_sent
            totals.messages_received += traffic.messages_received
            totals.messages_dropped_congestion += traffic.messages_dropped_congestion
            totals.messages_lost_in_flight += traffic.messages_lost_in_flight
            for kind, size in traffic.sent_bytes_by_kind.items():
                by_kind_sent[kind] += size
            for kind, size in traffic.received_bytes_by_kind.items():
                by_kind_received[kind] += size
        out = {
            "net.bytes_sent": float(totals.bytes_sent),
            "net.bytes_received": float(totals.bytes_received),
            "net.bytes_dropped_congestion": float(totals.bytes_dropped_congestion),
            "net.bytes_lost_in_flight": float(totals.bytes_lost_in_flight),
            "net.messages_sent": float(totals.messages_sent),
            "net.messages_received": float(totals.messages_received),
            "net.messages_dropped_congestion": float(totals.messages_dropped_congestion),
            "net.messages_lost_in_flight": float(totals.messages_lost_in_flight),
        }
        for kind in sorted(by_kind_sent):
            name = render_metric_name("net.bytes_sent", {"kind": kind})
            out[name] = float(by_kind_sent[kind])
        for kind in sorted(by_kind_received):
            name = render_metric_name("net.bytes_received", {"kind": kind})
            out[name] = float(by_kind_received[kind])
        return out
