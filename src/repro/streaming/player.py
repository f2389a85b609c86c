"""Playback model: turning packet arrivals into viewable (or jittered) windows.

The paper's quality metric is defined from the player's point of view: the
player sits ``lag`` seconds behind the source; when a window's playout
deadline arrives, the window is *viewable* if at least 101 of its 110 packets
have been received (the FEC threshold) and *jittered* otherwise.  The stream
quality of a node is the percentage of viewable windows, and a node "views
the stream" if at most 1 % of windows are jittered.

:class:`PlaybackBuffer` is the online version of that player: it is fed
packet arrivals (id + arrival time) and produces a :class:`PlaybackReport`.
The offline analysis used by the experiment harness (which evaluates *many*
lag values from one run) lives in :mod:`repro.metrics.quality`; both follow
the same deadline rule, and the test suite cross-checks them against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.streaming.packets import PacketId, WindowDescriptor
from repro.streaming.schedule import StreamSchedule


@dataclass(frozen=True)
class WindowPlayback:
    """Outcome of playing one window at a fixed lag."""

    window_index: int
    deadline: float
    packets_on_time: int
    required_packets: int

    @property
    def viewable(self) -> bool:
        """Whether the window could be decoded by its playout deadline."""
        return self.packets_on_time >= self.required_packets


@dataclass
class PlaybackReport:
    """Aggregate playback outcome for one node at one lag value."""

    lag: float
    windows: List[WindowPlayback]

    @property
    def total_windows(self) -> int:
        """Number of windows the player attempted to play."""
        return len(self.windows)

    @property
    def viewable_windows(self) -> int:
        """Number of windows decoded in time."""
        return sum(1 for window in self.windows if window.viewable)

    @property
    def jittered_windows(self) -> int:
        """Number of windows that missed their deadline."""
        return self.total_windows - self.viewable_windows

    @property
    def jitter_ratio(self) -> float:
        """Fraction of windows jittered (0.0 when no windows were played)."""
        if not self.windows:
            return 0.0
        return self.jittered_windows / self.total_windows

    def views_stream(self, max_jitter: float = 0.01) -> bool:
        """The paper's viewing criterion: at most ``max_jitter`` of windows jittered."""
        return self.jitter_ratio <= max_jitter


class PlaybackBuffer:
    """An online player with a fixed playout lag.

    Packets arrive via :meth:`on_packet`; windows are judged lazily when
    :meth:`report` is called (the simulator does not need per-window deadline
    events, which keeps the hot path cheap).

    Parameters
    ----------
    schedule:
        The stream schedule (defines windows, deadlines and thresholds).
    lag:
        Playout lag in seconds: each packet's deadline is its publish time
        plus ``lag``.  Use ``float("inf")`` for offline viewing.
    """

    def __init__(self, schedule: StreamSchedule, lag: float) -> None:
        if lag < 0.0:
            raise ValueError(f"lag must be >= 0, got {lag!r}")
        self._schedule = schedule
        self.lag = float(lag)
        self._arrivals: Dict[PacketId, float] = {}
        self._duplicate_count = 0

    @property
    def packets_received(self) -> int:
        """Number of distinct packets received so far."""
        return len(self._arrivals)

    @property
    def duplicates(self) -> int:
        """Number of duplicate packet deliveries observed (should stay 0/low)."""
        return self._duplicate_count

    def on_packet(self, packet_id: PacketId, arrival_time: float) -> None:
        """Record the arrival of a packet; duplicates are counted but ignored."""
        if packet_id in self._arrivals:
            self._duplicate_count += 1
            return
        self._arrivals[packet_id] = arrival_time

    def _packets_on_time(self, window: WindowDescriptor) -> int:
        """How many packets of a window arrived before their playout deadline."""
        on_time = 0
        for packet_id in window.packet_ids:
            arrival = self._arrivals.get(packet_id)
            if arrival is None:
                continue
            deadline = self._schedule.packet(packet_id).publish_time + self.lag
            if arrival <= deadline:
                on_time += 1
        return on_time

    def report(self) -> PlaybackReport:
        """Judge every window of the schedule at this buffer's lag."""
        outcomes: List[WindowPlayback] = []
        for window in self._schedule.windows():
            outcomes.append(
                WindowPlayback(
                    window_index=window.window_index,
                    deadline=window.publish_end + self.lag,
                    packets_on_time=self._packets_on_time(window),
                    required_packets=window.required_packets,
                )
            )
        return PlaybackReport(lag=self.lag, windows=outcomes)

    def missing_packets(self) -> Set[PacketId]:
        """Packet ids never received (useful for debugging experiments)."""
        all_ids = {descriptor.packet_id for descriptor in self._schedule.packets()}
        return all_ids - set(self._arrivals)
