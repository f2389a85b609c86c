"""SessionResult (and everything it exposes) must round-trip through pickle.

This is a hard prerequisite for the multiprocess sweep executor: workers can
only hand results (or objects derived from them) back to the parent through
pickle.  The parallel path ships compact summaries, but the full result must
stay picklable too — both as a safety net and for users who parallelize
their own analyses.
"""

import math
import pickle

import pytest

from repro.core.config import GossipConfig
from repro.core.session import SessionConfig, StreamingSession
from repro.membership.churn import CatastrophicChurn
from repro.network.transport import NetworkConfig
from repro.streaming.schedule import StreamConfig


def _run(churn=None):
    config = SessionConfig(
        num_nodes=12,
        seed=5,
        gossip=GossipConfig(fanout=4),
        stream=StreamConfig.scaled_down(num_windows=6),
        network=NetworkConfig(upload_cap_kbps=700.0, random_loss=0.01),
        churn=churn,
        extra_time=10.0,
    )
    return StreamingSession(config).run()


@pytest.fixture(scope="module")
def result():
    return _run()


class TestSessionResultPickle:
    def test_round_trip_preserves_headline_metrics(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert clone.viewing_percentage(lag=10.0) == result.viewing_percentage(lag=10.0)
        assert clone.viewing_percentage(lag=math.inf) == result.viewing_percentage(
            lag=math.inf
        )
        assert clone.delivery_ratio() == result.delivery_ratio()
        assert (
            clone.average_complete_windows_percentage(20.0)
            == result.average_complete_windows_percentage(20.0)
        )

    def test_round_trip_preserves_analyzers(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert (
            clone.bandwidth_usage().sorted_usage()
            == result.bandwidth_usage().sorted_usage()
        )
        grid = (0.0, 5.0, 10.0, 20.0)
        assert clone.quality().lag_cdf(grid) == result.quality().lag_cdf(grid)

    def test_round_trip_preserves_logs_and_counters(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert clone.deliveries.total_deliveries == result.deliveries.total_deliveries
        assert clone.traffic.metrics_view() == result.traffic.metrics_view()
        assert clone.events_processed == result.events_processed
        assert clone.end_time == result.end_time
        for node_id, stats in result.node_stats.items():
            assert clone.node_stats[node_id].as_dict() == stats.as_dict()

    def test_round_trip_after_analyzer_cache_is_warm(self, result):
        # Populate the internal quality cache, then pickle: the cached
        # analyzers must not break serialization.
        result.quality()
        result.quality(survivors_only=False)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.viewing_percentage(lag=10.0) == result.viewing_percentage(lag=10.0)

    def test_churn_session_round_trips(self):
        result = _run(churn=CatastrophicChurn(time=3.0, fraction=0.25))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.failed_nodes == result.failed_nodes
        assert clone.survivors() == result.survivors()
        assert clone.viewing_percentage(lag=20.0) == result.viewing_percentage(lag=20.0)

    def test_config_round_trips(self, result):
        clone = pickle.loads(pickle.dumps(result.config))
        assert clone.num_nodes == result.config.num_nodes
        assert clone.gossip == result.config.gossip
        assert clone.stream == result.config.stream
