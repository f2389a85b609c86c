"""Pin the one-pass quality analyzer against the reference implementation.

The fast :class:`~repro.metrics.quality.StreamQualityAnalyzer` precomputes
per-node sorted window-critical lags; the pre-fast-path
:class:`~repro.metrics.reference.ReferenceQualityAnalyzer` re-derives every
quantity by scanning windows per call.  Both must agree *float-for-float* on
every public quantity, including the degenerate cases (empty nodes,
undecodable windows, offline lag).
"""

import math
import random
from dataclasses import replace

import pytest

from repro.metrics.delivery import DeliveryLog
from repro.metrics.quality import OFFLINE_LAG, StreamQualityAnalyzer
from repro.metrics.reference import ReferenceQualityAnalyzer
from repro.streaming.schedule import StreamConfig, StreamSchedule


@pytest.fixture(scope="module")
def schedule() -> StreamSchedule:
    return StreamSchedule(
        StreamConfig(
            rate_kbps=600.0,
            payload_bytes=1000,
            source_packets_per_window=5,
            fec_packets_per_window=2,
            num_windows=8,
        )
    )


def random_log(schedule, nodes, seed):
    """A randomized partial delivery log: per-packet loss and random lag."""
    rng = random.Random(seed)
    log = DeliveryLog(schedule)
    for node_id in nodes:
        for packet in schedule.packets():
            roll = rng.random()
            if roll < 0.25:
                continue  # lost
            lag = rng.uniform(0.0, 40.0) if roll < 0.8 else rng.uniform(40.0, 400.0)
            log.record(node_id, packet.packet_id, packet.publish_time + lag)
    return log


LAG_PROBES = [0.0, 0.5, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 399.0, OFFLINE_LAG]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fast_analyzer_matches_reference(schedule, seed):
    nodes = [1, 2, 3, 4, 5]
    log = random_log(schedule, nodes[:-1], seed)  # node 5: no deliveries
    fast = StreamQualityAnalyzer(schedule, log, nodes)
    reference = ReferenceQualityAnalyzer(schedule, log, nodes)
    for node_id in nodes:
        for window_index in range(schedule.num_windows):
            for lag in LAG_PROBES:
                assert fast.window_viewable(node_id, window_index, lag) == reference.window_viewable(
                    node_id, window_index, lag
                ), (node_id, window_index, lag)
        for lag in LAG_PROBES:
            assert fast.node_jitter(node_id, lag) == reference.node_jitter(node_id, lag)
            assert fast.node_complete_window_ratio(node_id, lag) == reference.node_complete_window_ratio(
                node_id, lag
            )
        for max_jitter in (0.01, 0.1, 0.5):
            assert fast.node_critical_lag(node_id, max_jitter) == reference.node_critical_lag(
                node_id, max_jitter
            )

    for lag in LAG_PROBES:
        assert fast.viewing_ratio(lag) == reference.viewing_ratio(lag)
        assert fast.average_complete_window_ratio(lag) == reference.average_complete_window_ratio(lag)
    assert fast.critical_lags() == reference.critical_lags()
    grid = [0.0, 1.0, 2.0, 5.0, 20.0, 80.0, 200.0, 500.0]
    assert fast.lag_cdf(grid) == reference.lag_cdf(grid)


def test_curves_match_pointwise_queries(schedule):
    log = random_log(schedule, [1, 2, 3], seed=7)
    analyzer = StreamQualityAnalyzer(schedule, log, [1, 2, 3])
    lags = [0.0, 2.0, 10.0, OFFLINE_LAG]
    assert analyzer.viewing_ratio_curve(lags) == [
        (lag, analyzer.viewing_ratio(lag)) for lag in lags
    ]
    assert analyzer.complete_window_curve(lags) == [
        (lag, analyzer.average_complete_window_ratio(lag)) for lag in lags
    ]


def test_a_log_of_another_stream_is_rejected(schedule):
    other = StreamSchedule(replace(schedule.config, num_windows=schedule.num_windows + 1))
    with pytest.raises(ValueError, match="different stream"):
        StreamQualityAnalyzer(schedule, DeliveryLog(other), [1])


def test_out_of_schedule_packets_are_ignored_by_the_fast_path(schedule):
    log = DeliveryLog(schedule)
    log.record(1, schedule.num_packets + 5, 1.0)  # beyond the stream
    fast = StreamQualityAnalyzer(schedule, log, [1])
    reference = ReferenceQualityAnalyzer(schedule, log, [1])
    assert fast.node_jitter(1, OFFLINE_LAG) == reference.node_jitter(1, OFFLINE_LAG) == 1.0


def test_empty_node_list_degenerate_cases(schedule):
    analyzer = StreamQualityAnalyzer(schedule, DeliveryLog(schedule), nodes=[])
    assert analyzer.viewing_ratio(1.0) == 0.0
    assert analyzer.lag_cdf([1.0]) == [0.0]
    assert analyzer.viewing_ratio_curve([1.0, math.inf]) == [(1.0, 0.0), (math.inf, 0.0)]
