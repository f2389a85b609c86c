"""Packet and window descriptors.

A *packet* is the unit the gossip protocol disseminates (the "event" of
Algorithm 1): its id is proposed, requested, and its payload served.  A
*window* is the FEC unit: 110 consecutive packets of which 101 carry source
data and 9 carry parity; any 101 of the 110 reconstruct the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

PacketId = int
"""Packets are identified by their global sequence number in the stream."""


@dataclass(frozen=True)
class PacketDescriptor:
    """Static description of one stream packet.

    Attributes
    ----------
    packet_id:
        Global sequence number (0-based) — this is the event id gossiped.
    window_index:
        Index of the FEC window this packet belongs to.
    index_in_window:
        Position within the window (0..109 with default parameters).
    publish_time:
        Simulated time at which the source publishes the packet.
    size_bytes:
        Payload size on the wire.
    """

    packet_id: PacketId
    window_index: int
    index_in_window: int
    publish_time: float
    size_bytes: int

    def __post_init__(self) -> None:
        if self.packet_id < 0 or self.window_index < 0 or self.index_in_window < 0:
            raise ValueError("packet indices must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes!r}")
        if self.publish_time < 0.0:
            raise ValueError(f"publish time must be >= 0, got {self.publish_time!r}")


@dataclass(frozen=True)
class WindowDescriptor:
    """Static description of one FEC window.

    Attributes
    ----------
    window_index:
        Index of the window in the stream.
    packet_ids:
        Ids of the packets composing the window, in order.
    required_packets:
        Minimum number of packets needed to decode: the window's source
        (data-bearing) packets, 101 by default, for an MDS code.
    publish_start / publish_end:
        Publish times of the first and last packet of the window.
    """

    window_index: int
    packet_ids: Tuple[PacketId, ...]
    required_packets: int
    publish_start: float
    publish_end: float

    def __post_init__(self) -> None:
        if not self.packet_ids:
            raise ValueError("a window must contain at least one packet")
        if not 0 < self.required_packets <= len(self.packet_ids):
            raise ValueError(
                "required_packets must be in (0, window size]: "
                f"{self.required_packets!r} vs {len(self.packet_ids)} packets"
            )
        if self.publish_end < self.publish_start:
            raise ValueError("publish_end cannot precede publish_start")

