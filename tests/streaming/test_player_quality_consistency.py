"""Cross-check: the online player and the offline quality analyzer agree.

Both the :class:`PlaybackBuffer` (online, one lag) and the
:class:`StreamQualityAnalyzer` (offline, any lag) implement the same playout
deadline rule; feeding them the same delivery trace must yield the same
per-window verdicts and the same jitter ratio.
"""

import random

import pytest

from repro.metrics.delivery import DeliveryLog
from repro.metrics.quality import StreamQualityAnalyzer
from repro.streaming.player import PlaybackBuffer
from repro.streaming.schedule import StreamConfig, StreamSchedule


@pytest.fixture
def schedule() -> StreamSchedule:
    return StreamSchedule(
        StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=8,
            fec_packets_per_window=2,
            num_windows=6,
        )
    )


def random_trace(schedule, seed, loss_probability=0.15, max_delay=12.0):
    """A random delivery trace: some packets lost, the rest randomly delayed."""
    rng = random.Random(seed)
    trace = {}
    for packet in schedule.packets():
        if rng.random() < loss_probability:
            continue
        trace[packet.packet_id] = packet.publish_time + rng.uniform(0.0, max_delay)
    return trace


class TestPlayerQualityConsistency:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lag", [1.0, 5.0, 10.0])
    def test_same_verdicts_for_same_trace(self, schedule, seed, lag):
        trace = random_trace(schedule, seed)

        buffer = PlaybackBuffer(schedule, lag=lag)
        log = DeliveryLog(schedule)
        for packet_id, arrival in trace.items():
            buffer.on_packet(packet_id, arrival)
            log.record(7, packet_id, arrival)

        report = buffer.report()
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[7])

        for window in report.windows:
            assert window.viewable == analyzer.window_viewable(7, window.window_index, lag)
        assert report.jitter_ratio == pytest.approx(analyzer.node_jitter(7, lag))

    def test_views_stream_agrees(self, schedule):
        trace = random_trace(schedule, seed=9, loss_probability=0.05, max_delay=2.0)
        buffer = PlaybackBuffer(schedule, lag=5.0)
        log = DeliveryLog(schedule)
        for packet_id, arrival in trace.items():
            buffer.on_packet(packet_id, arrival)
            log.record(1, packet_id, arrival)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert buffer.report().views_stream() == analyzer.node_views_stream(1, 5.0)
