"""End-to-end tests of the scenario registry (acceptance: ≥ 4 scenarios)."""

import pytest

from repro.scenarios import (
    available_scenarios,
    build_scenario,
    run_scenario,
    scenario_by_name,
)
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import ScenarioSpec

# Small enough to run each scenario in about a second.
SMALL = dict(num_nodes=18, seed=11)

EXPECTED_SCENARIOS = (
    "homogeneous",
    "heterogeneous-bandwidth",
    "churn-window",
    "flash-crowd",
    "lossy-wan",
    "eager-push",
    "large-session",
    "metropolis",
)


class TestRegistry:
    def test_all_expected_scenarios_registered(self):
        names = available_scenarios()
        for expected in EXPECTED_SCENARIOS:
            assert expected in names

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_by_name("does-not-exist")

    def test_overrides_apply(self):
        spec = build_scenario("homogeneous", num_nodes=99, seed=7)
        assert spec.num_nodes == 99 and spec.seed == 7

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(lambda: ScenarioSpec(name="homogeneous"))

    def test_inert_perturbation_rejected_on_stream_override(self):
        """Overriding the stream without moving the churn/join time fails fast."""
        from repro.streaming.schedule import StreamConfig

        short = StreamConfig.scaled_down(num_windows=4)  # ends well before t=5.87s
        for name in ("churn-window", "flash-crowd"):
            with pytest.raises(ValueError, match="inert"):
                build_scenario(name, stream=short)


@pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
def test_scenario_runs_end_to_end(name):
    """Every named scenario builds, runs, and produces a sane result."""
    result = run_scenario(name, **SMALL)
    assert result.events_processed > 1000
    assert result.deliveries.total_deliveries > 0
    # Survivors of every scenario still receive most of the stream — a loose
    # smoke bound on purpose: perturbation scenarios (catastrophic churn,
    # flash crowds) legitimately degrade the strict viewing metric at this
    # tiny test scale, and their semantics are pinned individually below.
    assert result.delivery_ratio() > 0.5


class TestScenarioSemantics:
    def test_churn_window_fails_half_the_receivers(self):
        result = run_scenario("churn-window", **SMALL)
        expected_victims = round((SMALL["num_nodes"] - 1) * 0.5)
        assert len(result.failed_nodes) == expected_victims
        assert result.source_id not in result.failed_nodes
        # The crash lands mid-stream: victims die before the last packet is
        # published (an after-the-stream crash would test nothing).
        assert result.config.churn.time < result.schedule.config.end_time

    def test_flash_crowd_joiners_start_mid_stream(self):
        result = run_scenario("flash-crowd", **SMALL)
        join_time = result.config.join.time
        # The join must land while packets are still being published,
        # otherwise the scenario is inert (nothing proposes to joiners).
        assert join_time < result.schedule.config.end_time
        assert result.late_joiners, "flash crowd scenario must have joiners"
        for joiner in result.late_joiners:
            deliveries = result.deliveries.raw().get(joiner, {})
            # Joiners actually view the live tail (non-vacuous: an empty
            # delivery log would make the timing assertion pass trivially).
            assert deliveries, f"joiner {joiner} never received a packet"
            assert all(time >= join_time for time in deliveries.values())
        # Initial members must not be affected before the join.
        initial = set(result.survivors()) - set(result.late_joiners)
        assert result.deliveries.packets_delivered(min(initial)) > 0

    def test_heterogeneous_scenario_loads_strong_nodes_more(self):
        spec = build_scenario("heterogeneous-bandwidth", num_nodes=30, seed=4)
        caps = spec.per_node_caps()
        result = run_scenario("heterogeneous-bandwidth", num_nodes=30, seed=4)
        usage = result.bandwidth_usage().per_node()
        strong = [usage[n] for n, cap in caps.items() if cap == 2000.0]
        weak = [usage[n] for n, cap in caps.items() if cap == 500.0]
        assert sum(strong) / len(strong) > sum(weak) / len(weak)

    def test_eager_push_scenario_uses_eager_protocol(self):
        result = run_scenario("eager-push", **SMALL)
        stats = result.node_stats.values()
        assert sum(s.requests_sent for s in stats) == 0
        assert sum(s.serves_sent for s in stats) > 0

    def test_large_session_scenario_has_paper_stream_geometry(self):
        spec = build_scenario("large-session")
        assert spec.num_nodes == 1000
        assert spec.stream.source_packets_per_window == 101
        assert spec.stream.fec_packets_per_window == 9
        assert spec.stream.rate_kbps == 600.0
        # Scaled-down runs keep the window geometry (the end-to-end
        # parametrized test above runs it at 18 nodes).
        small = build_scenario("large-session", num_nodes=24)
        assert small.stream.packets_per_window == 110

    def test_metropolis_scenario_is_sharded_at_paper_geometry(self):
        spec = build_scenario("metropolis")
        assert spec.num_nodes == 10_000
        assert spec.shards == 4
        assert spec.stream.source_packets_per_window == 101
        assert spec.stream.fec_packets_per_window == 9
        assert spec.stream.rate_kbps == 600.0
        # The end-to-end parametrized test above runs it at 18 nodes — still
        # through the sharded runner, because the shard count survives the
        # num_nodes override.
        small = build_scenario("metropolis", num_nodes=18)
        assert small.shards == 4
