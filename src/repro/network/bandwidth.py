"""Upload bandwidth caps and the throttling limiter.

This module is the heart of the substrate: the paper's central observation —
that gossip has a *narrow* good-fanout window under constrained bandwidth —
comes entirely from upload contention.  PlanetLab nodes were given an
artificial upload cap (700 / 1000 / 2000 kbps) enforced by a limiter that
*throttles* bursts (queues them) rather than dropping them immediately, and
drops only when the backlog grows too large.

:class:`UploadLimiter` reproduces that mechanism: every outgoing datagram is
serialized through a FIFO at the cap rate.  The limiter answers "when does
this datagram finish leaving the node?", which the transport adds to the
propagation latency.  If accepting the datagram would push the backlog past
the configured capacity, the datagram is dropped (congestion loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BandwidthCap:
    """An upload capacity constraint.

    Attributes
    ----------
    rate_bps:
        Upload rate in bits per second, or ``None`` for unlimited upload
        (the "ideal settings" the paper criticises; useful as a baseline).
    max_backlog_seconds:
        Maximum backlog the throttling queue may hold, expressed in seconds
        of serialization time at the cap rate.  A datagram whose acceptance
        would push the backlog beyond this limit is dropped.
    """

    rate_bps: Optional[float]
    max_backlog_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.rate_bps is not None and self.rate_bps <= 0.0:
            raise ValueError(f"rate_bps must be positive or None, got {self.rate_bps!r}")
        if self.max_backlog_seconds <= 0.0:
            raise ValueError(
                f"max_backlog_seconds must be positive, got {self.max_backlog_seconds!r}"
            )

    @classmethod
    def from_kbps(cls, kbps: Optional[float], max_backlog_seconds: float = 10.0) -> "BandwidthCap":
        """Build a cap from a rate in kilobits per second (``None`` = unlimited)."""
        if kbps is None:
            return cls(rate_bps=None, max_backlog_seconds=max_backlog_seconds)
        return cls(rate_bps=float(kbps) * 1000.0, max_backlog_seconds=max_backlog_seconds)

    @classmethod
    def unlimited(cls) -> "BandwidthCap":
        """An uncapped upload (ideal-network baseline)."""
        return cls(rate_bps=None)


class UploadLimiter:
    """Serializes a node's outgoing datagrams at its upload cap rate.

    The limiter tracks a single quantity: ``busy_until``, the simulated time
    at which the last accepted byte will have left the node.  The backlog at
    time ``now`` is therefore ``(busy_until - now) * rate`` bits.

    The limiter does not schedule events itself; the transport asks it when a
    datagram's serialization completes and schedules delivery accordingly.
    """

    __slots__ = (
        "cap",
        "_busy_until",
        "bytes_accepted",
        "bytes_dropped",
        "messages_accepted",
        "messages_dropped",
    )

    def __init__(self, cap: BandwidthCap) -> None:
        self.cap = cap
        self._busy_until = 0.0
        self.bytes_accepted = 0
        self.bytes_dropped = 0
        self.messages_accepted = 0
        self.messages_dropped = 0

    def enqueue(self, size_bytes: int, now: float) -> Optional[float]:
        """Try to accept a datagram of ``size_bytes`` at time ``now``.

        Returns the simulated time at which the datagram finishes leaving the
        node, or ``None`` if it was dropped because the backlog is full.
        """
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes!r}")
        cap = self.cap
        rate = cap.rate_bps
        if rate is None:
            self.bytes_accepted += size_bytes
            self.messages_accepted += 1
            return now

        busy = self._busy_until
        backlog = busy - now
        if backlog < 0.0:
            backlog = 0.0
        serialization = size_bytes * 8.0 / rate
        if backlog + serialization > cap.max_backlog_seconds:
            self.bytes_dropped += size_bytes
            self.messages_dropped += 1
            return None

        finish = (busy if busy > now else now) + serialization
        self._busy_until = finish
        self.bytes_accepted += size_bytes
        self.messages_accepted += 1
        return finish
