"""Integration tests for the streaming session (full system wiring)."""

import dataclasses

import pytest

from repro.core.session import SessionConfig, StreamingSession, run_session
from repro.membership.churn import CatastrophicChurn
from repro.membership.partners import INFINITE
from repro.shard import run_sharded
from repro.shard.partition import plan_shards
from repro.shard.session import ShardSession
from repro.validation.observers import TransportObserver

from tests.conftest import small_session_config


class TestSessionConfig:
    def test_source_is_node_zero(self):
        config = small_session_config()
        assert config.source_id == 0
        assert 0 not in config.receiver_ids()
        assert len(config.receiver_ids()) == config.num_nodes - 1

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig(num_nodes=1)

    def test_negative_extra_time_rejected(self):
        with pytest.raises(ValueError):
            small_session_config().__class__(num_nodes=5, extra_time=-1.0)


class TestHealthySession:
    def test_every_receiver_gets_nearly_all_packets(self, healthy_session_result):
        result = healthy_session_result
        assert result.delivery_ratio() > 0.98

    def test_most_nodes_view_the_stream(self, healthy_session_result):
        assert healthy_session_result.viewing_percentage() >= 90.0
        assert healthy_session_result.viewing_percentage(lag=20.0) >= 90.0

    def test_no_failures_without_churn(self, healthy_session_result):
        assert healthy_session_result.failed_nodes == []
        assert set(healthy_session_result.survivors()) == set(
            healthy_session_result.receivers()
        )

    def test_source_delivers_everything_to_itself(self, healthy_session_result):
        result = healthy_session_result
        source_deliveries = result.deliveries.packets_delivered(result.source_id)
        assert source_deliveries == result.schedule.num_packets

    def test_upload_usage_accounts_for_one_stream_copy_per_receiver(self, healthy_session_result):
        result = healthy_session_result
        usage = result.bandwidth_usage()
        # Every receiver downloads one copy of the stream, and all of it is
        # served by peers, so total upload ≈ (receivers × stream bytes) plus
        # protocol overhead, averaged over the whole run.
        stream_bits = (
            result.schedule.num_packets * result.schedule.config.payload_bytes * 8.0
        )
        expected_mean_kbps = stream_bits / result.end_time / 1000.0
        assert expected_mean_kbps * 0.8 < usage.mean_kbps() < expected_mean_kbps * 1.5

    def test_no_receiver_exceeds_its_upload_cap(self, healthy_session_result):
        result = healthy_session_result
        cap = result.config.network.upload_cap_kbps
        usage = result.bandwidth_usage()
        # Usage is averaged over the full run, so the byte-accurate limiter
        # keeps every node at or below its cap (up to one in-flight backlog).
        assert usage.max_kbps() <= cap * 1.05

    def test_node_stats_are_consistent(self, healthy_session_result):
        result = healthy_session_result
        total_serves = sum(stats.packets_served for stats in result.node_stats.values())
        total_deliveries = result.deliveries.total_deliveries
        receivers = len(result.receivers())
        # Every receiver delivery except those at the source itself came from a serve.
        assert total_serves >= total_deliveries - result.schedule.num_packets
        assert total_deliveries <= result.schedule.num_packets * (receivers + 1)

    def test_events_processed_recorded(self, healthy_session_result):
        assert healthy_session_result.events_processed > 1000


class TestDeterminism:
    def test_same_config_same_seed_is_bitwise_identical(self):
        config = small_session_config(num_nodes=15, num_windows=6, seed=11)
        first = StreamingSession(config).run()
        second = StreamingSession(config).run()
        assert first.deliveries.total_deliveries == second.deliveries.total_deliveries
        assert first.events_processed == second.events_processed
        assert first.deliveries.raw() == second.deliveries.raw()

    def test_different_seed_changes_outcome(self):
        first = StreamingSession(small_session_config(num_nodes=15, num_windows=6, seed=1)).run()
        second = StreamingSession(small_session_config(num_nodes=15, num_windows=6, seed=2)).run()
        assert first.deliveries.raw() != second.deliveries.raw()


class _FailureLog(TransportObserver):
    def __init__(self):
        self.failed = []

    def on_node_failed(self, node_id, now):
        self.failed.append((node_id, now))


class TestChurnSession:
    def test_churn_fails_requested_fraction(self):
        config = small_session_config(
            num_nodes=20, num_windows=10, churn=CatastrophicChurn(time=3.0, fraction=0.3)
        )
        result = run_session(config)
        # 30% of the 19 non-source nodes, rounded.
        assert len(result.failed_nodes) == 6
        assert result.source_id not in result.failed_nodes
        assert set(result.survivors()).isdisjoint(result.failed_nodes)

    def test_failures_apply_at_the_churn_time(self):
        config = small_session_config(
            num_nodes=20, num_windows=10, churn=CatastrophicChurn(time=3.0, fraction=0.3)
        )
        session = StreamingSession(config)
        session.build()
        failures = _FailureLog()
        session.network.add_observer(failures)
        result = session.run()
        assert failures.failed == [(node, 3.0) for node in result.failed_nodes]
        assert len(result.failed_nodes) == 6

    def test_zero_fraction_churn_runs_the_same_events_as_no_churn(self):
        plain = run_session(small_session_config(num_nodes=12, num_windows=4))
        zero = run_session(
            small_session_config(
                num_nodes=12, num_windows=4, churn=CatastrophicChurn(time=1.0, fraction=0.0)
            )
        )
        assert zero.failed_nodes == []
        assert zero.events_processed == plain.events_processed
        assert zero.deliveries.raw() == plain.deliveries.raw()

    def test_survivors_keep_receiving_with_dynamic_views(self):
        config = small_session_config(
            num_nodes=20, num_windows=12, churn=CatastrophicChurn(time=3.0, fraction=0.3)
        )
        result = run_session(config)
        quality = result.quality()
        assert result.average_complete_windows_percentage(20.0) > 80.0
        assert quality.critical_lags() == quality.critical_lags(result.survivors())

    def test_static_views_suffer_more_from_churn(self):
        """The paper's central proactiveness claim, at small scale.

        A fully static mesh (X = infinity) both concentrates load and keeps
        pointing at crashed nodes, so after a 50 % catastrophic failure it
        delivers clearly less of the stream than the fully dynamic X = 1.
        """
        common = dict(
            num_nodes=30,
            fanout=5,
            num_windows=25,
            churn=CatastrophicChurn(time=3.0, fraction=0.5),
            seed=6,
        )
        dynamic = run_session(small_session_config(refresh_every=1, **common))
        static = run_session(small_session_config(refresh_every=INFINITE, **common))
        # At this small test scale the playout-lag metrics are noisy; the
        # robust consequence of a static mesh is that a chunk of the stream
        # never reaches some survivors at all.  The full-scale comparison is
        # exercised in tests/experiments/test_paper_claims.py.
        assert dynamic.delivery_ratio() > static.delivery_ratio() + 0.03


class TestSessionLifecycle:
    def test_build_twice_rejected(self):
        session = StreamingSession(small_session_config(num_nodes=5, num_windows=2))
        session.build()
        with pytest.raises(RuntimeError):
            session.build()

    def test_run_builds_automatically(self):
        result = run_session(small_session_config(num_nodes=5, num_windows=2))
        assert result.schedule.num_windows == 2


class TestUncappedSource:
    """The source uploads without a cap: no 700 kbps cap carries seven stream copies."""

    @staticmethod
    def _config(shards):
        return dataclasses.replace(small_session_config(num_nodes=12, num_windows=3), shards=shards)

    @pytest.mark.parametrize("shards", [None, 2], ids=["scalar", "2-shard-threads"])
    def test_only_the_source_limiter_is_unlimited(self, shards):
        config = self._config(shards)
        if shards is None:
            session = StreamingSession(config)
        else:
            plan = plan_shards(config, shards)
            session = ShardSession(config, plan.lookup[config.source_id], plan)
        session.build()
        limiters = {node_id: session.network.limiter(node_id) for node_id in session.nodes}
        assert config.source_id in limiters and len(limiters) > 1
        for node_id, limiter in limiters.items():
            assert (limiter.cap.rate_bps is None) == (node_id == config.source_id)

    @pytest.mark.parametrize("shards", [None, 2], ids=["scalar", "2-shard-threads"])
    def test_the_source_uploads_past_the_receiver_cap_and_drops_nothing(self, shards):
        config = self._config(shards)
        result = run_sharded(config) if shards else run_session(config)
        source = result.traffic.node(config.source_id)
        assert source.messages_dropped_congestion == 0
        upload_kbps = source.bytes_sent * 8.0 / 1000.0 / config.stream.duration
        assert upload_kbps > 2 * config.network.upload_cap_kbps
