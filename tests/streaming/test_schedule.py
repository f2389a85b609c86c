"""Unit tests for the stream configuration and packet schedule."""

import pytest

from repro.streaming.schedule import StreamConfig, StreamSchedule


class TestStreamConfig:
    def test_paper_defaults(self):
        config = StreamConfig.paper_defaults(num_windows=10)
        assert config.rate_kbps == 600.0
        assert config.packets_per_window == 110
        assert config.source_packets_per_window == 101
        assert config.fec_packets_per_window == 9
        assert config.total_packets == 1100

    def test_packets_per_second(self):
        config = StreamConfig(rate_kbps=600.0, payload_bytes=1000)
        # 600 kbps / 8000 bits per packet = 75 packets per second.
        assert config.packets_per_second == pytest.approx(75.0)
        assert config.packet_interval == pytest.approx(1.0 / 75.0)

    def test_window_duration_and_total_duration(self):
        config = StreamConfig.paper_defaults(num_windows=5)
        assert config.window_duration == pytest.approx(110 / 75.0)
        assert config.duration == pytest.approx(5 * 110 / 75.0)

    def test_end_time(self):
        config = StreamConfig(num_windows=2, source_packets_per_window=3, fec_packets_per_window=1)
        assert config.end_time == pytest.approx(7 * config.packet_interval)

    def test_scaled_down_keeps_fec_ratio_close_to_paper(self):
        scaled = StreamConfig.scaled_down()
        paper = StreamConfig.paper_defaults()
        scaled_ratio = scaled.fec_packets_per_window / scaled.packets_per_window
        paper_ratio = paper.fec_packets_per_window / paper.packets_per_window
        assert abs(scaled_ratio - paper_ratio) < 0.02

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(rate_kbps=0.0)
        with pytest.raises(ValueError):
            StreamConfig(payload_bytes=0)
        with pytest.raises(ValueError):
            StreamConfig(num_windows=0)
        with pytest.raises(ValueError):
            StreamConfig(fec_packets_per_window=-1)


class TestStreamSchedule:
    @pytest.fixture
    def schedule(self) -> StreamSchedule:
        return StreamSchedule(
            StreamConfig(
                rate_kbps=600.0,
                payload_bytes=1000,
                source_packets_per_window=5,
                fec_packets_per_window=2,
                num_windows=3,
            )
        )

    def test_total_counts(self, schedule):
        assert schedule.num_packets == 21
        assert schedule.num_windows == 3
        assert len(schedule.packets()) == 21
        assert len(schedule.windows()) == 3

    def test_packet_ids_are_sequential(self, schedule):
        ids = [packet.packet_id for packet in schedule.packets()]
        assert ids == list(range(21))

    def test_publish_times_are_monotonic_and_spaced(self, schedule):
        times = [packet.publish_time for packet in schedule.packets()]
        interval = schedule.config.packet_interval
        for earlier, later in zip(times, times[1:]):
            assert later - earlier == pytest.approx(interval)

    def test_window_membership(self, schedule):
        window = schedule.windows()[1]
        assert window.window_index == 1
        assert window.packet_ids == tuple(range(7, 14))
        assert schedule.packet(8).window_index == 1

    def test_required_packets_equals_source_count(self, schedule):
        assert all(window.required_packets == 5 for window in schedule.windows())

    def test_window_publish_bounds(self, schedule):
        window = schedule.windows()[2]
        assert window.publish_start == schedule.packet(window.packet_ids[0]).publish_time
        assert window.publish_end == schedule.packet(window.packet_ids[-1]).publish_time
