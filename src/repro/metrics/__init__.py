"""Metrics: from raw delivery events to the paper's evaluation quantities.

The paper evaluates two stream-level metrics (Section 4):

* **stream lag** — the difference between the time a packet is published by
  the source and the time it is delivered to a node's player;
* **stream quality** — the percentage of FEC windows that are viewable, a
  window being *jittered* when fewer than 101 of its 110 packets arrive by
  the playout deadline.  A node "views the stream" when at most 1 % of its
  windows are jittered.

plus the per-node upload bandwidth usage of Figure 4.

This package turns the raw observations collected during a run — the
:class:`DeliveryLog` of (node, packet, time) triples and the network's
:class:`~repro.network.stats.TrafficStats` — into those quantities.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.metrics.bandwidth": ("BandwidthUsage",),
    "repro.metrics.delivery": ("DeliveryLog",),
    "repro.metrics.quality": ("OFFLINE_LAG", "StreamQualityAnalyzer"),
    "repro.metrics.report": ("Series", "format_series_table", "format_table"),
})

__all__ = [
    "BandwidthUsage",
    "DeliveryLog",
    "OFFLINE_LAG",
    "Series",
    "StreamQualityAnalyzer",
    "format_series_table",
    "format_table",
]
