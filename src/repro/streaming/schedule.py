"""Stream configuration and packet schedule.

The paper's source generates a 600 kbps stream, grouping packets in windows
of 110 packets, 9 of which are FEC parity packets; the gossip period is
200 ms.  The packet size is not given in the paper; we default to 1000-byte
payloads, so the source emits 75 packets per second and a window spans about
1.47 s of stream time.

All of this is captured declaratively by :class:`StreamConfig`;
:class:`StreamSchedule` expands it into concrete per-packet publish times and
window compositions, which both the source (to emit) and the metrics layer
(to judge decodability and lag) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.streaming.packets import PacketDescriptor, PacketId, WindowDescriptor


@dataclass(frozen=True)
class StreamConfig:
    """Parameters of the constant-bit-rate stream.

    Attributes
    ----------
    rate_kbps:
        Total stream rate including FEC overhead (the paper's 600 kbps).
    payload_bytes:
        Wire size of one packet's payload.
    source_packets_per_window:
        Data packets per FEC window (101 in the paper).
    fec_packets_per_window:
        Parity packets per FEC window (9 in the paper).
    num_windows:
        Length of the stream, in whole windows.  The paper's experiments run
        for a few minutes; the default (20 windows ≈ 29 s at paper rates) is
        sized for simulation turnaround and can be raised per experiment.

    The first packet is published at time 0.
    """

    rate_kbps: float = 600.0
    payload_bytes: int = 1000
    source_packets_per_window: int = 101
    fec_packets_per_window: int = 9
    num_windows: int = 20

    def __post_init__(self) -> None:
        if self.rate_kbps <= 0.0:
            raise ValueError(f"rate_kbps must be positive, got {self.rate_kbps!r}")
        if self.payload_bytes <= 0:
            raise ValueError(f"payload_bytes must be positive, got {self.payload_bytes!r}")
        if self.source_packets_per_window < 1:
            raise ValueError("source_packets_per_window must be >= 1")
        if self.fec_packets_per_window < 0:
            raise ValueError("fec_packets_per_window must be >= 0")
        if self.num_windows < 1:
            raise ValueError(f"num_windows must be >= 1, got {self.num_windows!r}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def packets_per_window(self) -> int:
        """Total packets per window (source + FEC); 110 with paper defaults."""
        return self.source_packets_per_window + self.fec_packets_per_window

    @property
    def packets_per_second(self) -> float:
        """Emission rate in packets per second (includes FEC packets)."""
        return self.rate_kbps * 1000.0 / (self.payload_bytes * 8.0)

    @property
    def packet_interval(self) -> float:
        """Seconds between consecutive packet publications."""
        return 1.0 / self.packets_per_second

    @property
    def window_duration(self) -> float:
        """Seconds of stream time covered by one window."""
        return self.packets_per_window * self.packet_interval

    @property
    def total_packets(self) -> int:
        """Total number of packets published over the whole stream."""
        return self.packets_per_window * self.num_windows

    @property
    def duration(self) -> float:
        """Total publication time of the stream in seconds."""
        return self.num_windows * self.window_duration

    @property
    def end_time(self) -> float:
        """Simulated time at which the last packet is published."""
        return (self.total_packets - 1) * self.packet_interval

    @classmethod
    def paper_defaults(cls, num_windows: int = 20) -> "StreamConfig":
        """The exact streaming configuration of the paper (600 kbps, 110/9)."""
        return cls(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=101,
            fec_packets_per_window=9,
            num_windows=num_windows,
        )

    @classmethod
    def scaled_down(cls, num_windows: int = 12) -> "StreamConfig":
        """A smaller window (22 packets, 2 FEC) keeping the paper's ratios.

        Useful for fast tests and benchmarks: the FEC overhead (≈ 9 %) and
        the decodability threshold (≈ 91 % of the window) match the paper,
        but each window carries 5× fewer packets, so experiments are 5×
        cheaper for the same stream duration in windows.
        """
        return cls(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=20,
            fec_packets_per_window=2,
            num_windows=num_windows,
        )


class StreamSchedule:
    """Concrete packet-by-packet expansion of a :class:`StreamConfig`."""

    def __init__(self, config: StreamConfig) -> None:
        self.config = config
        self._packets: List[PacketDescriptor] = []
        self._windows: List[WindowDescriptor] = []
        self._packet_by_id: Dict[PacketId, PacketDescriptor] = {}
        self._build()

    def _build(self) -> None:
        config = self.config
        interval = config.packet_interval
        per_window = config.packets_per_window
        for packet_id in range(config.total_packets):
            window_index, index_in_window = divmod(packet_id, per_window)
            descriptor = PacketDescriptor(
                packet_id=packet_id,
                window_index=window_index,
                index_in_window=index_in_window,
                publish_time=packet_id * interval,
                size_bytes=config.payload_bytes,
            )
            self._packets.append(descriptor)
            self._packet_by_id[packet_id] = descriptor

        for window_index in range(config.num_windows):
            first = window_index * per_window
            packet_ids = tuple(range(first, first + per_window))
            self._windows.append(
                WindowDescriptor(
                    window_index=window_index,
                    packet_ids=packet_ids,
                    required_packets=config.source_packets_per_window,
                    publish_start=self._packet_by_id[packet_ids[0]].publish_time,
                    publish_end=self._packet_by_id[packet_ids[-1]].publish_time,
                )
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def packets(self) -> List[PacketDescriptor]:
        """All packet descriptors in publication order."""
        return list(self._packets)

    def windows(self) -> List[WindowDescriptor]:
        """All window descriptors in stream order."""
        return list(self._windows)

    def packet(self, packet_id: PacketId) -> PacketDescriptor:
        """Descriptor of a specific packet."""
        return self._packet_by_id[packet_id]

    @property
    def num_packets(self) -> int:
        """Total number of packets in the schedule."""
        return len(self._packets)

    @property
    def num_windows(self) -> int:
        """Total number of windows in the schedule."""
        return len(self._windows)
