"""``floor_between`` is a true lower bound: no draw across two groups beats it.

The sharded runner's lookahead is the minimum of ``floor_between`` over shard
pairs (:func:`repro.shard.partition.plan_shards`); a single draw below it
would deliver a datagram into a window the receiving shard has already
executed.  So the bound is checked exactly — ``>=``, no tolerance — for every
latency model, in both draw modes, over arbitrary node groups, with the
per-datagram streams driven to their lower edge: every third ``random()`` is
``0.0``, which puts ``uniform(a, b)`` exactly on ``a`` (the per-node model's
jitter at ``-jitter``, the uniform model at ``low``) while the draws in
between stay genuine.  (Every third, not every other: ``normalvariate``
rejects a first uniform of ``0.0``, so a stream that served one on every
attempt would never return.)
"""

import random

from hypothesis import given, settings, strategies as st

from repro.network.latency import (
    ConstantLatency,
    LogNormalLatency,
    PerNodeQualityLatency,
    UniformLatency,
)
from repro.simulation.rng import RngRegistry, derive_seed

NUM_NODES = 12


class _EdgeStream(random.Random):
    """A seeded stream whose ``random()`` is exactly ``0.0`` on draws 1, 4, 7…"""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._draws = 0

    def random(self) -> float:
        self._draws += 1
        return 0.0 if self._draws % 3 == 1 else super().random()


class _EdgeRegistry(RngRegistry):
    """Hands out :class:`_EdgeStream` for everything but the quality table."""

    __slots__ = ("seed",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.seed = seed

    def stream(self, name: str) -> random.Random:
        if name.endswith("/quality"):
            return super().stream(name)
        existing = self._streams.get(name)
        if existing is None:
            existing = self._streams[name] = _EdgeStream(derive_seed(self.seed, name))
        return existing


def _build(model: str, seed: int, per_sender: bool, jitter: float, base: float):
    rng = _EdgeRegistry(seed)
    if model == "constant":
        return ConstantLatency(base)
    if model == "uniform":
        return UniformLatency(rng, low=base * 0.4, high=base * 2.0, per_sender=per_sender)
    if model == "lognormal":
        return LogNormalLatency(rng, median=base, sigma=1.5, per_sender=per_sender)
    return PerNodeQualityLatency(
        rng, list(range(NUM_NODES)), base=base, jitter=jitter, per_sender=per_sender
    )


@st.composite
def two_groups(draw):
    """Two disjoint, non-empty groups of node ids (need not cover the range)."""
    side = draw(
        st.lists(st.sampled_from("ab-"), min_size=NUM_NODES, max_size=NUM_NODES).filter(
            lambda sides: "a" in sides and "b" in sides
        )
    )
    return (
        [node for node, s in enumerate(side) if s == "a"],
        [node for node, s in enumerate(side) if s == "b"],
    )


class TestFloorBetween:
    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(["constant", "uniform", "lognormal", "per-node"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        per_sender=st.booleans(),
        jitter=st.floats(min_value=0.0, max_value=0.99),
        base=st.floats(min_value=1e-4, max_value=1.0),
        groups=two_groups(),
    )
    def test_no_cross_group_draw_beats_the_floor(
        self, model, seed, per_sender, jitter, base, groups
    ):
        latency = _build(model, seed, per_sender, jitter, base)
        group_a, group_b = groups
        floor = latency.floor_between(group_a, group_b)
        assert floor == latency.floor_between(group_b, group_a)
        assert floor >= latency.min_latency()
        for sender in group_a:
            for receiver in group_b:
                # Three draws per direction: edge and genuine ones mixed.
                for _ in range(3):
                    assert latency.sample(sender, receiver) >= floor
                    assert latency.sample(receiver, sender) >= floor

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        jitter=st.floats(min_value=0.0, max_value=0.99),
        groups=two_groups(),
    )
    def test_per_node_floor_is_attained_at_the_edge(self, seed, jitter, groups):
        """Greatest lower bound, not just a lower bound: the best pair's edge
        draw lands exactly on it (shared stream: the first draw is the edge)."""
        latency = _build("per-node", seed, False, jitter, 0.05)
        group_a, group_b = groups
        best_a = min(group_a, key=latency.floor_term)
        best_b = min(group_b, key=latency.floor_term)
        assert latency.sample(best_a, best_b) == latency.floor_between(group_a, group_b)

    def test_floorless_models_have_no_per_node_term(self):
        for model in ("constant", "uniform", "lognormal"):
            latency = _build(model, 1, False, 0.2, 0.05)
            assert {latency.floor_term(node) for node in range(NUM_NODES)} == {0.0}
            assert latency.floor_between([0], [1]) == latency.min_latency()
