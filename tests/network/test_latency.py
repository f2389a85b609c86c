"""Unit tests for the latency models."""

import pytest

from repro.network.latency import (
    ConstantLatency,
    LogNormalLatency,
    PerNodeQualityLatency,
    UniformLatency,
)
from repro.simulation.rng import RngRegistry


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(11)


class TestConstantLatency:
    def test_returns_fixed_delay(self):
        model = ConstantLatency(0.08)
        assert model.sample(1, 2) == 0.08
        assert model.sample(5, 9) == 0.08

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.01)


class TestUniformLatency:
    def test_samples_within_bounds(self, rng):
        model = UniformLatency(rng, low=0.02, high=0.1)
        samples = [model.sample(0, 1) for _ in range(200)]
        assert all(0.02 <= value <= 0.1 for value in samples)

    def test_samples_vary(self, rng):
        model = UniformLatency(rng, low=0.02, high=0.1)
        samples = {round(model.sample(0, 1), 6) for _ in range(50)}
        assert len(samples) > 10

    def test_invalid_range_rejected(self, rng):
        with pytest.raises(ValueError):
            UniformLatency(rng, low=0.2, high=0.1)


class TestLogNormalLatency:
    def test_samples_are_positive_and_above_minimum(self, rng):
        model = LogNormalLatency(rng, median=0.06, sigma=0.5, minimum=0.005)
        samples = [model.sample(0, 1) for _ in range(500)]
        assert all(value >= 0.005 for value in samples)

    def test_median_is_roughly_respected(self, rng):
        model = LogNormalLatency(rng, median=0.06, sigma=0.5)
        samples = sorted(model.sample(0, 1) for _ in range(2000))
        median = samples[len(samples) // 2]
        assert 0.04 < median < 0.09

    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            LogNormalLatency(rng, median=0.0)


class TestMinLatency:
    """min_latency() must lower-bound *every* possible draw over all pairs,
    not just typical ones; floor_between() never goes below it."""

    def test_constant_floor_is_the_delay(self):
        assert ConstantLatency(0.08).min_latency() == 0.08

    def test_uniform_floor_is_the_low_bound(self, rng):
        model = UniformLatency(rng, low=0.02, high=0.1)
        assert model.min_latency() == 0.02
        assert all(model.sample(0, 1) >= 0.02 for _ in range(500))

    def test_lognormal_floor_is_the_minimum(self, rng):
        model = LogNormalLatency(rng, median=0.06, sigma=2.0, minimum=0.004)
        assert model.min_latency() == 0.004
        assert all(model.sample(0, 1) >= 0.004 for _ in range(500))

    def test_per_node_floor_is_the_minimum(self, rng):
        model = PerNodeQualityLatency(
            rng, node_ids=[0, 1], base=0.001, quality_sigma=2.0, minimum=0.006
        )
        assert model.min_latency() == 0.006
        assert all(model.sample(0, 1) >= 0.006 for _ in range(500))


class TestFloorBetween:
    """The cross-group floor the sharded runner's lookahead is built from
    (exactness is pinned in tests/properties/test_latency_floor.py)."""

    def test_per_node_floor_uses_each_groups_best_node(self, rng):
        model = PerNodeQualityLatency(rng, node_ids=list(range(6)), base=0.05, jitter=0.2)
        group_a, group_b = [0, 1, 2], [3, 4, 5]
        best_a = min(model.floor_term(node) for node in group_a)
        best_b = min(model.floor_term(node) for node in group_b)
        assert model.floor_between(group_a, group_b) == max(
            model.minimum, 0.05 * ((best_a + best_b) / 2.0) * (1.0 + -0.2)
        )

    def test_floor_clamps_to_the_minimum(self, rng):
        model = PerNodeQualityLatency(rng, node_ids=[0, 1], base=0.0001, minimum=0.006)
        assert model.floor_between([0], [1]) == 0.006

    def test_quality_table_is_fixed_at_construction(self, rng):
        model = PerNodeQualityLatency(rng, node_ids=[0, 1])
        assert not hasattr(model, "register_node")
        with pytest.raises(KeyError):
            model.sample(0, 2)


class TestPerSenderStreams:
    """per_sender=True makes a sender's draws a function of its own send
    history only — the placement invariance the sharded runner relies on."""

    def _interleaved(self, model, sender, count, noise_senders=(7, 8)):
        draws = []
        for _ in range(count):
            for other in noise_senders:
                model.sample(other, 1)
            draws.append(model.sample(sender, 2))
        return draws

    def test_uniform_draws_survive_interleaving(self):
        solo = UniformLatency(RngRegistry(9), per_sender=True)
        expected = [solo.sample(1, 2) for _ in range(6)]
        mixed = UniformLatency(RngRegistry(9), per_sender=True)
        assert self._interleaved(mixed, sender=1, count=6) == expected

    def test_lognormal_draws_survive_interleaving(self):
        solo = LogNormalLatency(RngRegistry(9), per_sender=True)
        expected = [solo.sample(1, 2) for _ in range(6)]
        mixed = LogNormalLatency(RngRegistry(9), per_sender=True)
        assert self._interleaved(mixed, sender=1, count=6) == expected

    def test_per_node_jitter_survives_interleaving(self):
        node_ids = list(range(10))
        solo = PerNodeQualityLatency(RngRegistry(9), node_ids, per_sender=True)
        expected = [solo.sample(1, 2) for _ in range(6)]
        mixed = PerNodeQualityLatency(RngRegistry(9), node_ids, per_sender=True)
        assert self._interleaved(mixed, sender=1, count=6) == expected

    def test_shared_stream_is_interleaving_sensitive(self):
        # The contrast that motivates per-sender mode: the default shared
        # stream hands the i-th draw to the i-th send *globally*, so other
        # senders' traffic shifts everyone's values.
        solo = UniformLatency(RngRegistry(9))
        expected = [solo.sample(1, 2) for _ in range(6)]
        mixed = UniformLatency(RngRegistry(9))
        assert self._interleaved(mixed, sender=1, count=6) != expected

    def test_quality_table_is_identical_across_modes(self):
        # Quality factors come from their own construction-time stream, so
        # arming per-sender sampling must not move a single factor.
        node_ids = list(range(8))
        shared = PerNodeQualityLatency(RngRegistry(3), node_ids)
        keyed = PerNodeQualityLatency(RngRegistry(3), node_ids, per_sender=True)
        assert [shared.floor_term(i) for i in node_ids] == [
            keyed.floor_term(i) for i in node_ids
        ]


class TestPerNodeQualityLatency:
    def test_quality_factors_are_stable_per_node(self, rng):
        model = PerNodeQualityLatency(rng, node_ids=list(range(10)))
        assert model.floor_term(3) == model.floor_term(3)

    def test_good_nodes_have_lower_latency_on_average(self, rng):
        model = PerNodeQualityLatency(rng, node_ids=list(range(30)), jitter=0.0)
        qualities = {node: model.floor_term(node) for node in range(30)}
        best = min(qualities, key=qualities.get)
        worst = max(qualities, key=qualities.get)
        best_latency = sum(model.sample(best, best) for _ in range(20)) / 20
        worst_latency = sum(model.sample(worst, worst) for _ in range(20)) / 20
        assert best_latency < worst_latency

    def test_sample_respects_minimum(self, rng):
        model = PerNodeQualityLatency(rng, node_ids=[0, 1], base=0.001, minimum=0.005)
        assert model.sample(0, 1) >= 0.005

    def test_same_seed_same_qualities(self):
        first = PerNodeQualityLatency(RngRegistry(3), node_ids=list(range(5)))
        second = PerNodeQualityLatency(RngRegistry(3), node_ids=list(range(5)))
        assert [first.floor_term(i) for i in range(5)] == [second.floor_term(i) for i in range(5)]

    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            PerNodeQualityLatency(rng, node_ids=[0], base=0.0)
