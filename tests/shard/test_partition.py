"""Unit tests for shard placement and the lookahead derived with it.

Placement is part of the reproducibility contract — the plan is derived once
per run from the config and every worker, the coordinator and the merge step
route by it — and part of the performance contract: sorting nodes by the
latency model's per-node floor term is what lifts the cross-shard latency
floor, and with it the window width, above the model's global clamp.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

import repro
from repro.scenarios.registry import build_scenario
from repro.shard.partition import ShardPlan, partition_nodes, plan_shards
from repro.simulation.rng import RngRegistry


def config_for(latency_model="per-node", num_nodes=40, shards=2, seed=3):
    spec = build_scenario("homogeneous", num_nodes=num_nodes, seed=seed, shards=shards)
    config = spec.session_config()
    network = dataclasses.replace(config.network, latency_model=latency_model)
    return dataclasses.replace(config, network=network)


def model_of(config):
    return config.network.build_latency(
        RngRegistry(config.seed), list(range(config.num_nodes))
    )


class TestPartitionNodes:
    def test_groups_partition_the_id_range(self):
        groups = partition_nodes(40, 3)
        assert len(groups) == 3
        flat = [node_id for group in groups for node_id in group]
        assert sorted(flat) == list(range(40))
        for group in groups:
            assert group == sorted(group)  # ascending within each shard

    @pytest.mark.parametrize("num_nodes,num_shards", [(40, 3), (1000, 4), (7, 7), (5, 2)])
    def test_chunk_sizes_differ_by_at_most_one(self, num_nodes, num_shards):
        sizes = [len(group) for group in partition_nodes(num_nodes, num_shards)]
        assert sum(sizes) == num_nodes
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_owns_everything(self):
        assert partition_nodes(100, 1) == [list(range(100))]

    def test_empty_shards_are_legal(self):
        # A 2-node session split 4 ways: two shards own nothing — they still
        # take part in the window protocol (replicated control plane), hence
        # empty lists, not errors.
        groups = partition_nodes(2, 4)
        assert sorted(groups[0] + groups[1]) == [0, 1]
        assert groups[2:] == [[], []]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            partition_nodes(10, 0)
        with pytest.raises(ValueError, match="num_shards"):
            partition_nodes(10, -3)

    def test_pinned_hash_order_without_a_floor_term(self):
        # sha256("shard:node-<id>")[:8] orders the nodes — frozen; changing
        # the hash construction re-homes every node of a floor-less model.
        assert partition_nodes(12, 2) == [[0, 1, 2, 5, 6, 9], [3, 4, 7, 8, 10, 11]]
        assert partition_nodes(12, 4) == [[2, 6, 9], [0, 1, 5], [7, 8, 10], [3, 4, 11]]

    def test_hash_order_is_uncorrelated_with_bandwidth_class(self):
        # Bandwidth classes are assigned by node_id % 10 (scenarios.spec);
        # cutting the plain id order would pile one class onto one shard.
        # The hash order spreads every class across all four shards.
        groups = partition_nodes(1000, 4)
        for group in groups:
            assert {node_id % 10 for node_id in group} == set(range(10))

    def test_lowest_floor_terms_fill_the_first_chunks(self):
        terms = {node_id: float((node_id * 7) % 10) for node_id in range(10)}
        groups = partition_nodes(10, 3, terms.__getitem__)
        ranked = sorted(range(10), key=terms.__getitem__)
        assert groups == [sorted(ranked[:4]), sorted(ranked[4:7]), sorted(ranked[7:])]

    def test_tied_floor_terms_fall_back_to_the_hash_order(self):
        assert partition_nodes(12, 2, lambda node_id: 1.0) == partition_nodes(12, 2)


class TestPlanShards:
    def test_chunk_zero_holds_the_best_connected_nodes(self):
        config = config_for("per-node", num_nodes=40, shards=4)
        plan = plan_shards(config, 4)
        model = model_of(config)
        worst_so_far = 0.0
        for group in plan.groups:
            qualities = [model.floor_term(node_id) for node_id in group]
            assert min(qualities) >= worst_so_far
            worst_so_far = max(qualities)
        assert [len(group) for group in plan.groups] == [10, 10, 10, 10]

    def test_lookup_and_groups_agree(self):
        plan = plan_shards(config_for(num_nodes=25, shards=3), 3)
        assert len(plan.lookup) == 25
        for shard_id, group in enumerate(plan.groups):
            assert all(plan.lookup[node_id] == shard_id for node_id in group)
        assert plan.num_shards == 3

    def test_lookahead_is_the_smallest_cross_shard_floor(self):
        config = config_for("per-node", num_nodes=40, shards=4)
        plan = plan_shards(config, 4)
        model = model_of(config)
        floors = [
            model.floor_between(plan.groups[a], plan.groups[b])
            for a in range(4)
            for b in range(a + 1, 4)
        ]
        assert plan.lookahead == min(floors)
        # The two best-connected shards set it, and sorting pulled it well
        # clear of the model's global clamp.
        assert plan.lookahead == model.floor_between(plan.groups[0], plan.groups[1])
        assert plan.lookahead > 2 * model.min_latency()

    def test_sorted_placement_beats_hash_placement_on_the_floor(self):
        config = config_for("per-node", num_nodes=100, shards=2)
        model = model_of(config)
        hashed = partition_nodes(100, 2)
        assert plan_shards(config, 2).lookahead > model.floor_between(*hashed)

    @pytest.mark.parametrize("latency_model", ["constant", "uniform", "lognormal"])
    def test_floorless_models_keep_hash_chunks_and_the_global_floor(self, latency_model):
        config = config_for(latency_model, num_nodes=40, shards=4)
        plan = plan_shards(config, 4)
        assert [list(group) for group in plan.groups] == partition_nodes(40, 4)
        assert plan.lookahead == model_of(config).min_latency()

    def test_empty_shards_are_skipped_when_minimising(self):
        config = config_for("per-node", num_nodes=2, shards=4)
        plan = plan_shards(config, 4)
        assert [len(group) for group in plan.groups] == [1, 1, 0, 0]
        assert plan.lookahead == model_of(config).floor_between([0], [1])

    def test_a_lone_occupied_shard_gets_the_global_floor(self):
        config = config_for("per-node", num_nodes=8, shards=1)
        assert plan_shards(config, 1).lookahead == model_of(config).min_latency()

    def test_unshardable_latency_model_fails_fast(self):
        config = config_for("constant")
        network = dataclasses.replace(config.network, base_latency=0.0)
        config = dataclasses.replace(config, network=network)
        with pytest.raises(ValueError, match="cross-shard latency floor"):
            plan_shards(config, 2)

    def test_plan_is_a_pure_function_of_the_config(self):
        first = plan_shards(config_for(seed=3), 2)
        assert first == plan_shards(config_for(seed=3), 2)
        assert first != plan_shards(config_for(seed=4), 2)
        assert isinstance(first, ShardPlan)

    def test_plan_is_identical_in_another_process_whatever_the_hash_seed(self):
        # Workers in other processes are handed the plan, but the CLI, the
        # benchmarks and a re-run derive it afresh: it must not depend on
        # Python's per-process string-hash randomisation.
        script = (
            "import dataclasses\n"
            "from repro.scenarios.registry import build_scenario\n"
            "from repro.shard.partition import plan_shards\n"
            "spec = build_scenario('homogeneous', num_nodes=40, seed=3, shards=4)\n"
            "plan = plan_shards(spec.session_config(), 4)\n"
            "print(repr((plan.groups, plan.lookup, plan.lookahead)))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            outputs.add(done.stdout)
        here = plan_shards(config_for(num_nodes=40, shards=4), 4)
        assert outputs == {repr((here.groups, here.lookup, here.lookahead)) + "\n"}
