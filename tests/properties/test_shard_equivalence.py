"""Shard-count invariance: K shards ⇒ byte-identical PointSummary.

The sharded runner (:mod:`repro.shard`) claims *exact* equivalence with the
scalar session — not statistical closeness.  This suite runs every
registered scenario shrunk to test size with ``shards`` set, once through
the scalar :class:`~repro.core.session.StreamingSession` oracle and once
through :func:`~repro.shard.run_sharded` for each shard count in {1, 2, 4},
and asserts the resulting :class:`~repro.sweep.summary.PointSummary`
records are equal field for field (delivery log metrics, viewing curves,
lag CDF, usage, event counts).

The oracle has ``shards`` set too: setting the field arms the per-sender
transport RNG streams, which intentionally diverge from the historical
shared streams (``shards=None``); the contract is that once a config is
declared sharded, *how many* workers execute it can never change a bit of
the outcome.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.session import StreamingSession
from repro.scenarios import available_scenarios, build_scenario
from repro.shard import run_sharded
from repro.sweep.summary import MetricsRequest, summarize

REQUEST = MetricsRequest(
    viewing_lags=(10.0, 20.0, float("inf")),
    window_lags=(20.0,),
    lag_cdf_grid=(0.0, 5.0, 10.0, 20.0),
    include_usage=True,
)

SHARD_COUNTS = (1, 2, 4)

SMALL = {"num_nodes": 16}
PER_SCENARIO_OVERRIDES = {
    "large-session": {
        "num_nodes": 16,
        "stream": build_scenario("homogeneous").stream,
    },
    # Metropolis ships with shards=4 already; only its size needs shrinking
    # (the per-test shard counts below override the spec default anyway).
    "metropolis": {
        "num_nodes": 16,
        "stream": build_scenario("homogeneous").stream,
    },
}


def _small_config(name, seed, shards):
    overrides = dict(PER_SCENARIO_OVERRIDES.get(name, SMALL))
    overrides["seed"] = seed
    overrides["shards"] = shards
    spec = build_scenario(name, **overrides)
    return spec.session_config()


def _summarized(result, config):
    return summarize(result, REQUEST, cell_id="shard-parity", seed=config.seed)


class TestShardEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        name=st.sampled_from(sorted(available_scenarios())),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_every_shard_count_matches_scalar_oracle(self, name, seed):
        oracle_config = _small_config(name, seed, shards=1)
        oracle_result = StreamingSession(oracle_config).run()
        oracle = _summarized(oracle_result, oracle_config)
        for shards in SHARD_COUNTS:
            config = _small_config(name, seed, shards=shards)
            result = run_sharded(config)
            sharded = _summarized(result, config)
            # PointSummary equality covers every extracted metric;
            # wall_seconds is excluded from comparison by design.
            assert sharded == oracle, f"{name} diverged at {shards} shards"
            assert result.events_processed == oracle_result.events_processed
            assert result.end_time == oracle_result.end_time
            assert result.failed_nodes == oracle_result.failed_nodes
            assert result.late_joiners == oracle_result.late_joiners

    def test_scalar_oracle_is_shard_count_agnostic(self):
        """The scalar path only cares *that* shards is set, never the count."""
        one = StreamingSession(_small_config("homogeneous", seed=3, shards=1)).run()
        four = StreamingSession(_small_config("homogeneous", seed=3, shards=4)).run()
        config = _small_config("homogeneous", seed=3, shards=1)
        assert _summarized(one, config) == _summarized(four, config)

    def test_process_mode_matches_thread_mode(self):
        config = _small_config("homogeneous", seed=5, shards=2)
        thread = run_sharded(config, mode="thread")
        process = run_sharded(config, mode="process")
        assert _summarized(thread, config) == _summarized(process, config)
        assert thread.events_processed == process.events_processed

    def test_empty_shards_still_reach_parity(self):
        """More shards than hash buckets in use: some workers own no nodes."""
        from repro.shard.partition import partition_nodes

        spec = build_scenario("homogeneous", num_nodes=2, seed=1, shards=4)
        config = spec.session_config()
        assert any(not group for group in partition_nodes(config.num_nodes, 4))
        oracle = StreamingSession(replace(config, shards=4)).run()
        sharded = run_sharded(config)
        assert _summarized(sharded, config) == _summarized(oracle, config)

    def test_every_registered_scenario_is_exercised(self):
        names = set(available_scenarios())
        assert {"homogeneous", "churn-window", "flash-crowd", "metropolis"} <= names
        for name in names:
            for shards in SHARD_COUNTS:
                _small_config(name, seed=1, shards=shards)  # shrinks cleanly
