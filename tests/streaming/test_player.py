"""Unit tests for the playback buffer and report."""

import math

import pytest

from repro.streaming.player import PlaybackBuffer
from repro.streaming.schedule import StreamConfig, StreamSchedule


@pytest.fixture
def schedule() -> StreamSchedule:
    # 3 windows of 5 packets (4 source + 1 FEC); decode threshold is 4.
    return StreamSchedule(
        StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=4,
            fec_packets_per_window=1,
            num_windows=3,
        )
    )


def deliver_all(buffer: PlaybackBuffer, schedule: StreamSchedule, delay: float) -> None:
    for packet in schedule.packets():
        buffer.on_packet(packet.packet_id, packet.publish_time + delay)


class TestPlaybackBuffer:
    def test_all_packets_on_time_gives_zero_jitter(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=1.0)
        deliver_all(buffer, schedule, delay=0.5)
        report = buffer.report()
        assert report.total_windows == 3
        assert report.viewable_windows == 3
        assert report.jitter_ratio == 0.0
        assert report.views_stream()

    def test_late_packets_jitter_windows(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=1.0)
        deliver_all(buffer, schedule, delay=5.0)
        report = buffer.report()
        assert report.viewable_windows == 0
        assert report.jitter_ratio == 1.0
        assert not report.views_stream()

    def test_infinite_lag_accepts_any_delay(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=math.inf)
        deliver_all(buffer, schedule, delay=1e6)
        assert buffer.report().jitter_ratio == 0.0

    def test_fec_tolerance_allows_one_missing_packet(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=1.0)
        for packet in schedule.packets():
            if packet.packet_id == 0:
                continue  # lose one packet of window 0
            buffer.on_packet(packet.packet_id, packet.publish_time + 0.1)
        report = buffer.report()
        assert report.viewable_windows == 3

    def test_two_missing_packets_break_a_window(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=1.0)
        for packet in schedule.packets():
            if packet.packet_id in (0, 1):
                continue
            buffer.on_packet(packet.packet_id, packet.publish_time + 0.1)
        report = buffer.report()
        assert report.viewable_windows == 2
        assert report.jittered_windows == 1

    def test_duplicates_are_counted_but_ignored(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=1.0)
        buffer.on_packet(0, 0.1)
        buffer.on_packet(0, 0.2)
        assert buffer.packets_received == 1
        assert buffer.duplicates == 1

    def test_missing_packets_listed(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=1.0)
        buffer.on_packet(0, 0.1)
        missing = buffer.missing_packets()
        assert 0 not in missing
        assert len(missing) == schedule.num_packets - 1

    def test_negative_lag_rejected(self, schedule):
        with pytest.raises(ValueError):
            PlaybackBuffer(schedule, lag=-1.0)

    def test_window_packets_on_time_counts_deadline(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=1.0)
        first_window = schedule.windows()[0]
        for offset, packet_id in enumerate(first_window.packet_ids):
            publish = schedule.packet(packet_id).publish_time
            # Every second packet arrives after its deadline.
            arrival = publish + (2.0 if offset % 2 else 0.5)
            buffer.on_packet(packet_id, arrival)
        assert buffer.report().windows[0].packets_on_time == 3

    def test_views_stream_respects_threshold(self, schedule):
        buffer = PlaybackBuffer(schedule, lag=1.0)
        deliver_all(buffer, schedule, delay=0.1)
        report = buffer.report()
        assert report.views_stream(max_jitter=0.0)
