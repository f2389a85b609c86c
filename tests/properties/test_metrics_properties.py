"""Property-based tests for the quality analyzer's invariants."""

from hypothesis import given, settings, strategies as st

from repro.metrics.delivery import DeliveryLog
from repro.metrics.quality import OFFLINE_LAG, StreamQualityAnalyzer
from repro.streaming.schedule import StreamConfig, StreamSchedule


@st.composite
def random_delivery_scenario(draw):
    """A small random stream plus a random partial delivery log for 3 nodes."""
    source_packets = draw(st.integers(min_value=2, max_value=8))
    fec_packets = draw(st.integers(min_value=0, max_value=2))
    num_windows = draw(st.integers(min_value=1, max_value=5))
    schedule = StreamSchedule(
        StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=source_packets,
            fec_packets_per_window=fec_packets,
            num_windows=num_windows,
        )
    )
    log = DeliveryLog(schedule)
    nodes = [1, 2, 3]
    for node in nodes:
        for packet in schedule.packets():
            delivered = draw(st.booleans())
            if delivered:
                extra_delay = draw(st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
                log.record(node, packet.packet_id, packet.publish_time + extra_delay)
    return schedule, log, nodes


class TestQualityAnalyzerProperties:
    @given(random_delivery_scenario(), st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_jitter_is_a_valid_fraction(self, scenario, lag):
        schedule, log, nodes = scenario
        analyzer = StreamQualityAnalyzer(schedule, log, nodes)
        for node in nodes:
            assert 0.0 <= analyzer.node_jitter(node, lag) <= 1.0

    @given(random_delivery_scenario(), st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_jitter_never_increases_with_longer_lag(self, scenario, lag_a, lag_b):
        schedule, log, nodes = scenario
        analyzer = StreamQualityAnalyzer(schedule, log, nodes)
        shorter, longer = sorted((lag_a, lag_b))
        for node in nodes:
            assert analyzer.node_jitter(node, longer) <= analyzer.node_jitter(node, shorter) + 1e-12

    @given(random_delivery_scenario())
    @settings(max_examples=50, deadline=None)
    def test_offline_viewing_is_best_case(self, scenario):
        schedule, log, nodes = scenario
        analyzer = StreamQualityAnalyzer(schedule, log, nodes)
        for node in nodes:
            offline = analyzer.node_jitter(node, OFFLINE_LAG)
            assert offline <= analyzer.node_jitter(node, 10.0) + 1e-12

    @given(random_delivery_scenario())
    @settings(max_examples=50, deadline=None)
    def test_critical_lag_consistent_with_viewing(self, scenario):
        schedule, log, nodes = scenario
        analyzer = StreamQualityAnalyzer(schedule, log, nodes)
        for node in nodes:
            critical = analyzer.node_critical_lag(node)
            if critical != OFFLINE_LAG and critical != float("inf"):
                assert analyzer.node_views_stream(node, critical)

    @given(random_delivery_scenario())
    @settings(max_examples=50, deadline=None)
    def test_lag_cdf_is_monotone(self, scenario):
        schedule, log, nodes = scenario
        analyzer = StreamQualityAnalyzer(schedule, log, nodes)
        grid = [0.0, 1.0, 5.0, 20.0, 100.0]
        cdf = analyzer.lag_cdf(grid)
        assert all(later >= earlier for earlier, later in zip(cdf, cdf[1:]))
        assert all(0.0 <= value <= 1.0 for value in cdf)

    @given(random_delivery_scenario())
    @settings(max_examples=30, deadline=None)
    def test_viewing_ratio_matches_per_node_checks(self, scenario):
        schedule, log, nodes = scenario
        analyzer = StreamQualityAnalyzer(schedule, log, nodes)
        lag = 20.0
        expected = sum(analyzer.node_views_stream(node, lag) for node in nodes) / len(nodes)
        assert analyzer.viewing_ratio(lag) == expected
