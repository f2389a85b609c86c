"""The spec → config → run funnel: frozen configs, and ``shards`` honoured everywhere.

The digests below were computed at the commit *before* ``SessionBuilder`` was
deleted — ``SessionBuilder.from_spec(spec).to_config()`` for every registered
scenario, the builder-composed ``ExperimentScale.session_config`` for each
scale × variant — so the direct ``SessionConfig(...)`` constructions that
replaced it are held to the very same field values.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.shard
from repro.experiments.runner import ExperimentPoint, point_config, run_point
from repro.experiments.scale import PAPER, REDUCED, SMOKE
from repro.scenarios import available_scenarios, build_scenario, run_scenario, run_spec
from repro.streaming.schedule import StreamConfig
from repro.sweep.executor import run_task
from repro.sweep.spec import SweepTask
from repro.sweep.summary import MetricsRequest, summarize
from tests.experiments.conftest import TINY


def canonical(value):
    """Address-free, order-free rendering of a config tree."""
    if dataclasses.is_dataclass(value):
        fields = {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return [type(value).__name__, fields]
    if isinstance(value, dict):
        return sorted((repr(k), canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "__dict__"):  # churn / join schedules are plain classes
        return [type(value).__name__, canonical(vars(value))]
    return repr(value)


def digest(config) -> str:
    text = json.dumps(canonical(config), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


SCENARIO_DIGESTS = {
    "churn-window": "4718787b402a3322",
    "eager-push": "58213ba6209103fd",
    "flash-crowd": "161d7b69df6b329f",
    "heterogeneous-bandwidth": "da02ef1811577502",
    "homogeneous": "26aca665a81a75a3",
    "large-session": "a15e154aaf41fd2a",
    "lossy-wan": "d2d87bb86f8f7612",
    "metropolis": "718060c538c46606",
}

VARIANTS = {
    "defaults": {},
    "fanout5-cap1000": dict(fanout=5, cap_kbps=1000),
    "X2-Y10": dict(refresh_every=2, feed_me_every=10),
    "churn0.5": dict(churn_fraction=0.5),
    "eager-push": dict(protocol="eager-push"),
}

SCALE_DIGESTS = {
    "smoke/defaults": "9a26ce11ba1a9ab4",
    "smoke/fanout5-cap1000": "a29bfacbe90fd4ca",
    "smoke/X2-Y10": "844b795cdf365612",
    "smoke/churn0.5": "bee2768a3d99582f",
    "smoke/eager-push": "8ca5fe615f29e4fe",
    "reduced/defaults": "e02054c352cb1912",
    "reduced/fanout5-cap1000": "e0afbacacff4a55e",
    "reduced/X2-Y10": "faca842c9fc4762b",
    "reduced/churn0.5": "4648f9ab2c936a12",
    "reduced/eager-push": "2b0b901f3b52eda0",
    "paper/defaults": "37a52c53c1c1f910",
    "paper/fanout5-cap1000": "5f12156c67b66a5d",
    "paper/X2-Y10": "6d97da4e45cbfcf9",
    "paper/churn0.5": "8382468de28cd93e",
    "paper/eager-push": "d4429ddea8e3181f",
}


class TestFrozenConfigs:
    def test_every_registered_scenario_is_frozen(self):
        assert sorted(SCENARIO_DIGESTS) == available_scenarios()

    @pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
    def test_scenario_config_matches_the_builder_it_replaced(self, name):
        assert digest(build_scenario(name).session_config()) == SCENARIO_DIGESTS[name]

    @pytest.mark.parametrize("scale", (SMOKE, REDUCED, PAPER), ids=lambda scale: scale.name)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_scale_config_matches_the_builder_it_replaced(self, scale, variant):
        config = scale.session_config(**VARIANTS[variant])
        assert digest(config) == SCALE_DIGESTS[f"{scale.name}/{variant}"]

    def test_point_config_is_the_scale_config_of_the_point_knobs(self):
        point = ExperimentPoint(
            scale_name="smoke", fanout=5, cap_kbps=1000, refresh_every=2, feed_me_every=10,
            churn_fraction=0.5, seed_offset=3, protocol="eager-push",
        )
        expected = SMOKE.session_config(
            fanout=5, cap_kbps=1000, refresh_every=2, feed_me_every=10,
            churn_fraction=0.5, seed_offset=3, protocol="eager-push",
        )
        assert digest(point_config(SMOKE, point)) == digest(expected)
        with pytest.raises(ValueError, match="built for scale 'smoke', not 'reduced'"):
            point_config(REDUCED, point)


class TestShardsHonouredEverywhere:
    @pytest.fixture
    def sharded_calls(self, monkeypatch):
        calls = []
        real = repro.shard.run_sharded

        def spy(config, *args, **kwargs):
            calls.append(config.shards)
            return real(config, *args, **kwargs)

        monkeypatch.setattr(repro.shard, "run_sharded", spy)
        return calls

    def test_run_scenario_and_run_spec_both_reach_the_sharded_runner(self, sharded_calls):
        overrides = dict(
            num_nodes=24, shards=2, seed=5, stream=StreamConfig.scaled_down(num_windows=4)
        )
        by_name = run_scenario("metropolis", **overrides)
        assert sharded_calls == [2]
        by_spec = run_spec(build_scenario("metropolis", **overrides))
        assert sharded_calls == [2, 2]
        request = MetricsRequest()
        assert summarize(by_name, request, cell_id="x", seed=5) == summarize(
            by_spec, request, cell_id="x", seed=5
        )

    def test_run_point_and_run_task_honour_a_shard_count(self, sharded_calls):
        # Scales build shard-less configs; a patched task is how a sweep asks
        # for shards, and both helpers end in run_session.
        point = ExperimentPoint(scale_name=TINY.name)
        run_point(TINY, point)
        assert sharded_calls == []
        run_task(TINY, SweepTask(point=point, patch=(("shards", 2),)))
        assert sharded_calls == [2]
