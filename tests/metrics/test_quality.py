"""Unit tests for the stream quality / lag analyzer.

These tests build a tiny synthetic schedule (windows of 4 source + 1 FEC
packets) and hand-crafted delivery logs, so every expected value can be
computed by eye.
"""

import math

import pytest

from repro.metrics.delivery import DeliveryLog
from repro.metrics.quality import OFFLINE_LAG, StreamQualityAnalyzer
from repro.streaming.schedule import StreamConfig, StreamSchedule


@pytest.fixture
def schedule() -> StreamSchedule:
    return StreamSchedule(
        StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=4,
            fec_packets_per_window=1,
            num_windows=4,
        )
    )


def log_with_uniform_lag(schedule, node_id, lag, log=None):
    log = log if log is not None else DeliveryLog(schedule)
    for packet in schedule.packets():
        log.record(node_id, packet.packet_id, packet.publish_time + lag)
    return log


class TestWindowLevel:
    def test_window_viewable_with_all_packets(self, schedule):
        log = log_with_uniform_lag(schedule, node_id=1, lag=0.5)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert analyzer.window_viewable(1, 0, lag=1.0)
        assert not analyzer.window_viewable(1, 0, lag=0.4)

    def test_window_viewable_with_fec_margin(self, schedule):
        log = DeliveryLog(schedule)
        window = schedule.windows()[0]
        for packet_id in window.packet_ids[1:]:  # lose packet 0
            log.record(1, packet_id, schedule.packet(packet_id).publish_time + 0.1)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert analyzer.window_viewable(1, 0, lag=1.0)

    def test_window_not_viewable_with_two_losses(self, schedule):
        log = DeliveryLog(schedule)
        window = schedule.windows()[0]
        for packet_id in window.packet_ids[2:]:  # lose two packets
            log.record(1, packet_id, schedule.packet(packet_id).publish_time + 0.1)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert not analyzer.window_viewable(1, 0, lag=OFFLINE_LAG)

    def test_window_decodes_at_its_kth_smallest_lag(self, schedule):
        log = DeliveryLog(schedule)
        window = schedule.windows()[0]
        lags = [0.1, 0.2, 0.3, 0.4, 50.0]
        for packet_id, lag in zip(window.packet_ids, lags):
            log.record(1, packet_id, schedule.packet(packet_id).publish_time + lag)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        # 4 packets are required; the 4th smallest per-packet lag is 0.4.
        assert analyzer.window_viewable(1, 0, lag=0.4)
        assert not analyzer.window_viewable(1, 0, lag=0.399)

    def test_undecodable_window_is_not_viewable_even_offline(self, schedule):
        log = DeliveryLog(schedule)
        log.record(1, 0, 0.1)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert not analyzer.window_viewable(1, 0, lag=OFFLINE_LAG)


class TestNodeLevel:
    def test_zero_jitter_when_everything_on_time(self, schedule):
        log = log_with_uniform_lag(schedule, 1, lag=0.2)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert analyzer.node_jitter(1, lag=1.0) == 0.0
        assert analyzer.node_views_stream(1, lag=1.0)
        assert analyzer.node_complete_window_ratio(1, lag=1.0) == 1.0

    def test_full_jitter_when_nothing_delivered(self, schedule):
        analyzer = StreamQualityAnalyzer(schedule, DeliveryLog(schedule), nodes=[1])
        assert analyzer.node_jitter(1, lag=OFFLINE_LAG) == 1.0
        assert not analyzer.node_views_stream(1, lag=OFFLINE_LAG)

    def test_partial_jitter(self, schedule):
        log = DeliveryLog(schedule)
        # Windows 0 and 1 fully on time; windows 2 and 3 missing entirely.
        for window_index in (0, 1):
            for packet_id in schedule.windows()[window_index].packet_ids:
                log.record(1, packet_id, schedule.packet(packet_id).publish_time + 0.1)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert analyzer.node_jitter(1, lag=1.0) == pytest.approx(0.5)
        assert analyzer.node_complete_window_ratio(1, lag=1.0) == pytest.approx(0.5)

    def test_jitter_of_exactly_max_jitter_still_views(self, schedule):
        log = DeliveryLog(schedule)
        for window_index in (0, 1, 2):  # window 3 of 4 missing: jitter 0.25
            for packet_id in schedule.windows()[window_index].packet_ids:
                log.record(1, packet_id, schedule.packet(packet_id).publish_time + 0.1)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert analyzer.node_views_stream(1, lag=1.0, max_jitter=0.25)
        assert not analyzer.node_views_stream(1, lag=1.0, max_jitter=0.24)

    def test_node_critical_lag_with_uniform_delay(self, schedule):
        log = log_with_uniform_lag(schedule, 1, lag=3.0)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        assert analyzer.node_critical_lag(1) == pytest.approx(3.0)

    def test_node_critical_lag_dominated_by_worst_needed_window(self, schedule):
        log = DeliveryLog(schedule)
        for window_index in range(4):
            delay = 1.0 if window_index < 3 else 30.0
            for packet_id in schedule.windows()[window_index].packet_ids:
                log.record(1, packet_id, schedule.packet(packet_id).publish_time + delay)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1])
        # 99% of 4 windows rounds up to all 4 windows: the slow one dominates.
        assert analyzer.node_critical_lag(1) == pytest.approx(30.0)
        # Allowing 25% jitter lets the node ignore the slow window.
        assert analyzer.node_critical_lag(1, max_jitter=0.25) == pytest.approx(1.0)


class TestAggregates:
    def test_viewing_ratio_counts_good_nodes(self, schedule):
        log = DeliveryLog(schedule)
        log_with_uniform_lag(schedule, 1, lag=0.5, log=log)
        log_with_uniform_lag(schedule, 2, lag=50.0, log=log)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1, 2])
        assert analyzer.viewing_ratio(lag=1.0) == pytest.approx(0.5)
        assert analyzer.viewing_ratio(lag=OFFLINE_LAG) == pytest.approx(1.0)

    def test_viewing_ratio_with_node_subset(self, schedule):
        log = DeliveryLog(schedule)
        log_with_uniform_lag(schedule, 1, lag=0.5, log=log)
        log_with_uniform_lag(schedule, 2, lag=50.0, log=log)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1, 2])
        assert analyzer.viewing_ratio(lag=1.0, nodes=[1]) == pytest.approx(1.0)

    def test_average_complete_window_ratio(self, schedule):
        log = DeliveryLog(schedule)
        log_with_uniform_lag(schedule, 1, lag=0.1, log=log)  # all 4 windows
        # Node 2: only windows 0-1 delivered.
        for window_index in (0, 1):
            for packet_id in schedule.windows()[window_index].packet_ids:
                log.record(2, packet_id, schedule.packet(packet_id).publish_time + 0.1)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1, 2])
        assert analyzer.average_complete_window_ratio(lag=1.0) == pytest.approx(0.75)

    def test_lag_cdf_is_monotone_and_bounded(self, schedule):
        log = DeliveryLog(schedule)
        log_with_uniform_lag(schedule, 1, lag=2.0, log=log)
        log_with_uniform_lag(schedule, 2, lag=8.0, log=log)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1, 2])
        grid = [0.0, 1.0, 3.0, 10.0]
        cdf = analyzer.lag_cdf(grid)
        assert cdf == [0.0, 0.0, 0.5, 1.0]
        assert all(later >= earlier for earlier, later in zip(cdf, cdf[1:]))

    def test_lag_cdf_counts_a_node_at_its_exact_critical_lag(self, schedule):
        log = DeliveryLog(schedule)
        log_with_uniform_lag(schedule, 1, lag=2.0, log=log)
        log_with_uniform_lag(schedule, 2, lag=8.0, log=log)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1, 2])
        assert analyzer.lag_cdf(sorted(analyzer.critical_lags())) == [0.5, 1.0]

    def test_a_node_without_deliveries_is_analyzed_as_all_jitter(self, schedule):
        log = DeliveryLog(schedule)
        log_with_uniform_lag(schedule, 1, lag=0.1, log=log)
        analyzer = StreamQualityAnalyzer(schedule, log, nodes=[1, 2])
        assert analyzer.node_jitter(1, lag=1.0) == 0.0
        assert analyzer.node_jitter(2, lag=1.0) == 1.0
        assert analyzer.critical_lags() == [pytest.approx(0.1), math.inf]

    def test_empty_node_list(self, schedule):
        analyzer = StreamQualityAnalyzer(schedule, DeliveryLog(schedule), nodes=[])
        assert analyzer.viewing_ratio(lag=1.0) == 0.0
        assert analyzer.average_complete_window_ratio(lag=1.0) == 0.0
        assert analyzer.lag_cdf([1.0, 2.0]) == [0.0, 0.0]
