"""Unit tests for the bandwidth usage analyzer (Figure 4's metric)."""

import pytest

from repro.metrics.bandwidth import BandwidthUsage
from repro.network.stats import TrafficStats


def stats_with_usage(usage_bytes: dict) -> TrafficStats:
    stats = TrafficStats()
    for node_id, total in usage_bytes.items():
        stats.node(node_id).bytes_sent = total
    return stats


class TestBandwidthUsage:
    def test_node_upload_kbps(self):
        stats = stats_with_usage({1: 125_000})
        usage = BandwidthUsage(stats, duration_seconds=10.0)
        assert usage.node_upload_kbps(1) == pytest.approx(100.0)

    def test_sorted_usage_descending(self):
        stats = stats_with_usage({1: 1000, 2: 3000, 3: 2000})
        usage = BandwidthUsage(stats, duration_seconds=1.0)
        assert usage.sorted_usage() == [pytest.approx(24.0), pytest.approx(16.0), pytest.approx(8.0)]

    def test_mean_and_max(self):
        stats = stats_with_usage({1: 1000, 2: 3000})
        usage = BandwidthUsage(stats, duration_seconds=1.0)
        assert usage.mean_kbps() == pytest.approx(16.0)
        assert usage.max_kbps() == pytest.approx(24.0)

    def test_heterogeneity_zero_for_equal_contributions(self):
        stats = stats_with_usage({1: 1000, 2: 1000, 3: 1000})
        usage = BandwidthUsage(stats, duration_seconds=1.0)
        assert usage.heterogeneity() == pytest.approx(0.0)

    def test_heterogeneity_grows_with_imbalance(self):
        balanced = BandwidthUsage(stats_with_usage({1: 1000, 2: 1000}), 1.0)
        skewed = BandwidthUsage(stats_with_usage({1: 1900, 2: 100}), 1.0)
        assert skewed.heterogeneity() > balanced.heterogeneity()

    def test_top_contributor_share(self):
        stats = stats_with_usage({1: 8000, 2: 1000, 3: 1000})
        usage = BandwidthUsage(stats, duration_seconds=1.0)
        assert usage.top_contributor_share(top_fraction=1 / 3) == pytest.approx(0.8)

    def test_explicit_node_list_includes_idle_nodes(self):
        stats = stats_with_usage({1: 1000})
        usage = BandwidthUsage(stats, duration_seconds=1.0, nodes=[1, 2])
        per_node = usage.per_node()
        assert per_node[2] == 0.0
        assert len(per_node) == 2

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            BandwidthUsage(TrafficStats(), duration_seconds=0.0)

    def test_invalid_top_fraction_rejected(self):
        usage = BandwidthUsage(stats_with_usage({1: 100}), 1.0)
        with pytest.raises(ValueError):
            usage.top_contributor_share(top_fraction=0.0)

    def test_empty_stats(self):
        usage = BandwidthUsage(TrafficStats(), duration_seconds=1.0)
        assert usage.mean_kbps() == 0.0
        assert usage.max_kbps() == 0.0
        assert usage.heterogeneity() == 0.0
        assert usage.top_contributor_share() == 0.0
