"""The spec → config → run funnel: frozen configs, and ``shards`` honoured everywhere.

The digests below first pinned the ``SessionConfig(...)`` constructions that
replaced ``SessionBuilder`` to the builder's field values, for every
registered scenario and each scale × variant.  When the gossip period, the
round desynchronisation flag, the message size model, the stream start time
and the source-uncapped flag became constants, every value was recomputed on
the tree before that change with a copy of :func:`canonical` that skipped
exactly those five field names; the tree after it reproduces them with
:func:`canonical` as written, so no remaining field value moved.
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
from repro.validation.fuzzer import ScenarioFuzzer
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
    "churn-window": "02ba6cb586d31109",
    "eager-push": "6ce841b12665b36e",
    "flash-crowd": "962095e08bc8b4e4",
    "heterogeneous-bandwidth": "4df36b6ad5c3ef34",
    "homogeneous": "46d29c0a7bb5a257",
    "large-session": "b66af37a4318d885",
    "lossy-wan": "55003173ca496697",
    "metropolis": "3b81d5a8a0a36b73",
}

VARIANTS = {
    "defaults": {},
    "fanout5-cap1000": dict(fanout=5, cap_kbps=1000),
    "X2-Y10": dict(refresh_every=2, feed_me_every=10),
    "churn0.5": dict(churn_fraction=0.5),
    "eager-push": dict(protocol="eager-push"),
}

SCALE_DIGESTS = {
    "smoke/defaults": "b5a8647da7e7c7f6",
    "smoke/fanout5-cap1000": "7ab64850265a4ece",
    "smoke/X2-Y10": "e3c71454b9bfbd2e",
    "smoke/churn0.5": "21ef2c69998b6c1a",
    "smoke/eager-push": "3890ead1181e9fef",
    "reduced/defaults": "875ae537bf83b7e9",
    "reduced/fanout5-cap1000": "9b937eeaf0c4debc",
    "reduced/X2-Y10": "9ae15f2a3ef0bc66",
    "reduced/churn0.5": "5b5a4c4d9deeca6e",
    "reduced/eager-push": "a37a59258ee86e49",
    "paper/defaults": "62798d6f9ba1b1db",
    "paper/fanout5-cap1000": "25060f2fd049bd11",
    "paper/X2-Y10": "ff1cd6d0e9ab545c",
    "paper/churn0.5": "7620bef96f31fcd7",
    "paper/eager-push": "fe5a4ee0df22d1e3",
}


#: The compiled config of the first ten cases of fuzz campaign 2009, the CI fuzz
#: job's seed (the nightly job derives its cases the same way): a change to the
#: fuzzer's draw order moves them.
FUZZ_2009_DIGESTS = (
    "0d357e0fac06cf73",
    "9ec7ac56fc0e3eaa",
    "d7bdabc3af317577",
    "5a8ac0255da76a0e",
    "b3e0d8d52b82ff79",
    "c643afee7db8aee7",
    "94276ba2ab69dcea",
    "d3616790b0ff5cbe",
    "dd162815de2b4f71",
    "b0fa7b8f4c59cd32",
)


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

    def test_fuzz_campaign_cases_are_frozen(self):
        fuzzer = ScenarioFuzzer(2009)
        digests = tuple(
            digest(fuzzer.derive_case(index).spec.session_config()) for index in range(10)
        )
        assert digests == FUZZ_2009_DIGESTS

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
