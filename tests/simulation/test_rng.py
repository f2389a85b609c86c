"""Unit tests for the named deterministic RNG registry."""

from repro.simulation.rng import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(42, "latency") == derive_seed(42, "latency")

    def test_different_names_differ(self):
        assert derive_seed(42, "latency") != derive_seed(42, "loss")

    def test_different_roots_differ(self):
        assert derive_seed(1, "latency") != derive_seed(2, "latency")

    def test_seed_is_non_negative_int(self):
        seed = derive_seed(0, "anything")
        assert isinstance(seed, int)
        assert seed >= 0


class TestRngRegistry:
    def test_stream_is_cached(self):
        registry = RngRegistry(7)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_are_independent_of_creation_order(self):
        first = RngRegistry(7)
        second = RngRegistry(7)
        # Consume "a" heavily in one registry before creating "b".
        first_a = first.stream("a")
        for _ in range(1000):
            first_a.random()
        first_b_draw = first.stream("b").random()
        second_b_draw = second.stream("b").random()
        assert first_b_draw == second_b_draw

    def test_node_stream_naming(self):
        registry = RngRegistry(7)
        assert registry.node_stream("partners", 3) is registry.stream("partners/node-3")

    def test_distinct_nodes_get_distinct_streams(self):
        registry = RngRegistry(7)
        draws_a = [registry.node_stream("partners", 1).random() for _ in range(5)]
        draws_b = [registry.node_stream("partners", 2).random() for _ in range(5)]
        assert draws_a != draws_b
