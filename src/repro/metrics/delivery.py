"""The delivery log: every first-time packet delivery observed in a run.

Gossip nodes invoke their delivery listener exactly once per (node, packet);
the :class:`DeliveryLog` is the listener used by
:class:`repro.core.session.StreamingSession` and is the single source of
truth for all quality and lag metrics.

Lag accumulators
----------------
A log is built for one stream schedule.  Every :meth:`record` call also
appends the delivery's **lag** — delivery time minus publish time — to a
compact per-(node, window) ``array('d')``.  The quality analyzer consumes
those arrays directly instead of re-walking hundreds of thousands of
per-delivery dictionary entries per analysis pass, which is what makes
1,000-node sessions analyzable in milliseconds.  The per-delivery mapping is
still kept: it backs :meth:`raw` (the reference analyzer's input),
:meth:`packets_delivered` and duplicate suppression.
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.network.message import NodeId
from repro.streaming.packets import PacketId
from repro.streaming.schedule import StreamSchedule


class DeliveryLog:
    """Records the first delivery time of every packet at every node.

    Parameters
    ----------
    schedule:
        The stream schedule whose packets are recorded: its publish times
        and window layout shape the lag accumulators.
    """

    def __init__(self, schedule: StreamSchedule) -> None:
        self._by_node: Dict[NodeId, Dict[PacketId, float]] = {}
        self._total_deliveries = 0
        self._schedule = schedule
        self._per_window = schedule.config.packets_per_window
        self._num_windows = schedule.num_windows
        self._num_packets = schedule.num_packets
        self._publish_times = array(
            "d", (descriptor.publish_time for descriptor in schedule.packets())
        )
        # Per node: one array('d') of lags per window, in delivery order.
        self._window_lags: Dict[NodeId, List[array]] = {}

    @property
    def schedule(self) -> StreamSchedule:
        """The stream schedule this log records against."""
        return self._schedule

    def window_lags_of(self, node_id: NodeId) -> List[array]:
        """Per-window lag arrays of one node (unsorted, delivery order).

        A node that never delivered anything gets empty windows.  The arrays
        are the log's own accumulators — treat them as read-only.
        """
        lags = self._window_lags.get(node_id)
        if lags is None:
            return [array("d") for _ in range(self._num_windows)]
        return lags

    # ------------------------------------------------------------------
    # Recording (used as a GossipNode delivery listener)
    # ------------------------------------------------------------------
    def record(self, node_id: NodeId, packet_id: PacketId, time: float) -> None:
        """Record one first-time delivery (the nodes' listener); duplicates are ignored."""
        try:
            node_log = self._by_node[node_id]
        except KeyError:
            node_log = self._by_node[node_id] = {}
        if packet_id in node_log:
            return
        node_log[packet_id] = time
        self._total_deliveries += 1
        if not 0 <= packet_id < self._num_packets:
            return
        try:
            lags = self._window_lags[node_id]
        except KeyError:
            lags = self._window_lags[node_id] = [array("d") for _ in range(self._num_windows)]
        lags[packet_id // self._per_window].append(time - self._publish_times[packet_id])

    __call__ = record  # the log itself is a valid delivery listener

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_deliveries(self) -> int:
        """Total number of (node, packet) deliveries recorded."""
        return self._total_deliveries

    def packets_delivered(self, node_id: NodeId) -> int:
        """Number of distinct packets delivered to ``node_id``."""
        return len(self._by_node.get(node_id, {}))

    def raw(self) -> Dict[NodeId, Dict[PacketId, float]]:
        """Direct (read-only by convention) access to the underlying mapping.

        The reference quality analyzer iterates over every delivery;
        exposing the raw dictionaries avoids copying hundreds of thousands
        of entries.
        """
        return self._by_node

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the observations, not the derived lag accumulators.

        Worker processes ship results back through pickles; the lag arrays
        and publish-time table are pure derivations of (deliveries,
        schedule), so they are rebuilt on unpickle instead of being copied
        across the process boundary.
        """
        return {"by_node": self._by_node, "schedule": self._schedule}

    def __setstate__(self, state) -> None:
        self.__init__(state["schedule"])
        # Re-recording in the pickled (chronological per node) order keeps
        # record() the one place lags accrue.
        for node_id, node_log in state["by_node"].items():
            for packet_id, delivered_at in node_log.items():
                self.record(node_id, packet_id, delivered_at)
