"""Unit tests for scenario specs and their compilation to session configs."""

import pytest

from repro.core.session import SessionConfig
from repro.membership.churn import CatastrophicChurn
from repro.membership.join import FlashCrowdJoin
from repro.scenarios import (
    BandwidthClass,
    ScenarioSpec,
    assign_bandwidth_classes,
)


class TestScenarioSpec:
    def test_defaults_compile_to_gossip_config(self):
        spec = ScenarioSpec(name="x")
        gossip = spec.gossip_config()
        assert gossip.fanout == spec.fanout
        assert gossip.source_fanout == spec.source_fanout

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="")

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", num_nodes=1)

    def test_describe_mentions_perturbations(self):
        spec = ScenarioSpec(
            name="x",
            churn=CatastrophicChurn(time=2.0, fraction=0.5),
            join=FlashCrowdJoin(time=2.0, fraction=0.2),
        )
        description = spec.describe()
        assert "churn" in description
        assert "flash crowd" in description

    def test_perturbation_past_stream_end_rejected(self):
        # default scaled_down stream publishes its last packet at t≈3.5s
        with pytest.raises(ValueError, match="inert"):
            ScenarioSpec(name="x", churn=CatastrophicChurn(time=5.0, fraction=0.5))
        with pytest.raises(ValueError, match="inert"):
            ScenarioSpec(name="x", join=FlashCrowdJoin(time=5.0, fraction=0.2))


class TestBandwidthClasses:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            assign_bandwidth_classes(
                (BandwidthClass(0.3, 2000.0), BandwidthClass(0.3, 500.0)),
                tuple(range(1, 11)),
            )

    def test_assignment_is_deterministic_and_interleaved(self):
        classes = (BandwidthClass(0.3, 2000.0), BandwidthClass(0.7, 500.0))
        receivers = tuple(range(1, 41))
        caps = assign_bandwidth_classes(classes, receivers)
        assert caps == assign_bandwidth_classes(classes, receivers)
        # A cycle of 10: slots 0-2 strong, 3-9 weak.
        assert caps[10] == 2000.0 and caps[12] == 2000.0
        assert caps[13] == 500.0 and caps[19] == 500.0
        strong = sum(1 for cap in caps.values() if cap == 2000.0)
        assert strong == 12  # 30% of 40 receivers

    def test_fractions_finer_than_cycle_rejected(self):
        # A cycle of 10 id slots cannot represent a 25/75 split; silently
        # quantizing to 30/70 would corrupt capacity-sweep experiments.
        with pytest.raises(ValueError, match="multiples of 0.1"):
            assign_bandwidth_classes(
                (BandwidthClass(0.25, 2000.0), BandwidthClass(0.75, 500.0)),
                tuple(range(1, 41)),
            )

    def test_invalid_class_rejected(self):
        with pytest.raises(ValueError):
            BandwidthClass(fraction=0.0, cap_kbps=100.0)
        with pytest.raises(ValueError):
            BandwidthClass(fraction=0.5, cap_kbps=-1.0)


class TestSessionConfig:
    def test_spec_fields_reach_the_config(self):
        config = ScenarioSpec(
            name="x",
            num_nodes=12,
            seed=5,
            protocol="eager-push",
            fanout=4,
            upload_cap_kbps=None,
            random_loss=0.0,
            extra_time=10.0,
            shards=2,
        ).session_config()
        assert isinstance(config, SessionConfig)
        assert config.num_nodes == 12 and config.seed == 5
        assert config.protocol == "eager-push"
        assert config.gossip.fanout == 4
        assert config.network.upload_cap_kbps is None
        assert config.network.random_loss == 0.0
        assert config.extra_time == 10.0
        assert config.shards == 2

    def test_session_config_applies_bandwidth_classes(self):
        spec = ScenarioSpec(
            name="mix",
            num_nodes=21,
            bandwidth_classes=(
                BandwidthClass(0.3, 2000.0),
                BandwidthClass(0.7, 500.0),
            ),
        )
        config = spec.session_config()
        assert config.network.per_node_caps_kbps == spec.per_node_caps()
        assert set(config.network.per_node_caps_kbps) == set(range(1, 21))

    def test_unknown_protocol_fails_fast(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", protocol="carrier-pigeon").session_config()
