"""Unit tests for experiment scales."""

import pytest

from repro.experiments.scale import (
    METROPOLIS,
    PAPER,
    REDUCED,
    SMOKE,
    XLARGE,
    ExperimentScale,
    available_scales,
    scale_by_name,
)
from repro.membership.partners import INFINITE


class TestPresets:
    def test_lookup_by_name(self):
        assert scale_by_name("smoke") is SMOKE
        assert scale_by_name("reduced") is REDUCED
        assert scale_by_name("paper") is PAPER
        assert scale_by_name("xlarge") is XLARGE
        assert scale_by_name("metropolis") is METROPOLIS

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            scale_by_name("galactic")

    def test_available_scales(self):
        assert available_scales() == [
            "metropolis",
            "paper",
            "reduced",
            "smoke",
            "xlarge",
        ]

    def test_paper_scale_matches_paper_constants(self):
        stream = PAPER.stream_config()
        assert PAPER.num_nodes == 230
        assert stream.rate_kbps == 600.0
        assert stream.packets_per_window == 110
        assert stream.fec_packets_per_window == 9
        gossip = PAPER.session_config().gossip
        assert gossip.source_fanout == 7

    def test_smoke_scale_is_smaller_than_reduced(self):
        assert SMOKE.num_nodes < REDUCED.num_nodes
        assert SMOKE.stream_duration < REDUCED.stream_duration

    def test_fanout_grids_fit_system_size(self):
        for scale in (SMOKE, REDUCED, PAPER, XLARGE, METROPOLIS):
            assert max(scale.fanout_grid) < scale.num_nodes

    def test_xlarge_scale_keeps_paper_stream_geometry(self):
        stream = XLARGE.stream_config()
        assert XLARGE.num_nodes == 1000
        assert stream.rate_kbps == 600.0
        assert stream.source_packets_per_window == 101
        assert stream.fec_packets_per_window == 9
        assert XLARGE.optimal_fanout in XLARGE.fanout_grid

    def test_only_smoke_lacks_the_collapse_regime(self):
        assert not SMOKE.fanout_collapse_expected
        for scale in (REDUCED, PAPER, XLARGE):
            assert scale.fanout_collapse_expected

    def test_metropolis_scale_matches_its_scenario(self):
        stream = METROPOLIS.stream_config()
        assert METROPOLIS.num_nodes == 10_000
        assert stream.rate_kbps == 600.0
        assert stream.source_packets_per_window == 101
        assert stream.fec_packets_per_window == 9
        assert METROPOLIS.optimal_fanout in METROPOLIS.fanout_grid
        assert METROPOLIS.fanout_collapse_expected

    def test_xlarge_session_config_composes_through_the_builder(self):
        config = XLARGE.session_config(fanout=10, cap_kbps=1000.0)
        assert config.num_nodes == 1000
        assert config.gossip.fanout == 10
        assert config.network.upload_cap_kbps == pytest.approx(1000.0)
        assert config.stream.packets_per_window == 110


class TestBuilders:
    def test_session_config_defaults(self):
        config = REDUCED.session_config()
        assert config.num_nodes == REDUCED.num_nodes
        assert config.gossip.fanout == REDUCED.optimal_fanout
        assert config.network.upload_cap_kbps == pytest.approx(700.0)
        assert config.churn is None

    def test_session_config_overrides(self):
        config = REDUCED.session_config(
            fanout=20, cap_kbps=2000.0, refresh_every=INFINITE, churn_fraction=0.3, seed_offset=5
        )
        assert config.gossip.fanout == 20
        assert config.network.upload_cap_kbps == pytest.approx(2000.0)
        assert config.gossip.refresh_every == INFINITE
        assert config.churn is not None
        assert config.seed == REDUCED.seed + 5

    def test_network_config_uses_default_cap(self):
        assert REDUCED.network_config().upload_cap_kbps == pytest.approx(700.0)
        assert REDUCED.network_config(1000.0).upload_cap_kbps == pytest.approx(1000.0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentScale(
                name="bad",
                num_nodes=10,
                payload_bytes=1000,
                source_packets_per_window=10,
                fec_packets_per_window=1,
                num_windows=5,
                max_backlog_seconds=5.0,
                extra_time=10.0,
                fanout_grid=(20,),
            )

    def test_describe_mentions_name_and_size(self):
        text = REDUCED.describe()
        assert "reduced" in text
        assert "60" in text
