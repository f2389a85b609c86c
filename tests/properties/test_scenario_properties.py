"""End-to-end builder determinism: same spec + seed ⇒ identical summary.

Every registered scenario is shrunk to a test-sized system (the scenario's
*shape* — protocol, network model, perturbation schedules — is untouched)
and run twice through two completely fresh builds.  The resulting
:class:`~repro.sweep.summary.PointSummary` records must be equal field for
field: this is the property the sweep layer, the result store and the
fuzzer's repro bundles all stand on.
"""

from hypothesis import given, settings, strategies as st

from repro.scenarios import available_scenarios, build_scenario
from repro.scenarios import run_spec
from repro.sweep.summary import MetricsRequest, summarize

REQUEST = MetricsRequest(
    viewing_lags=(10.0, 20.0, float("inf")),
    window_lags=(20.0,),
    lag_cdf_grid=(0.0, 5.0, 10.0, 20.0),
    include_usage=True,
)

# Shrink every scenario to test size.  Only the system size (and, for the
# 1,000-node flagship, the stream length) is overridden: stream-derived
# churn/join instants stay valid because the stream itself is untouched for
# every scenario that carries a perturbation schedule.
SMALL = {"num_nodes": 16}
PER_SCENARIO_OVERRIDES = {
    "large-session": {
        "num_nodes": 16,
        "stream": build_scenario("homogeneous").stream,
    },
    # Shrunk like the flagship; metropolis keeps its shards so the property
    # also pins determinism of the sharded runner across fresh builds.
    "metropolis": {
        "num_nodes": 16,
        "stream": build_scenario("homogeneous").stream,
        "shards": 2,
    },
}


def _small_spec(name, seed):
    overrides = dict(PER_SCENARIO_OVERRIDES.get(name, SMALL))
    overrides["seed"] = seed
    return build_scenario(name, **overrides)


def _summary_of_fresh_run(spec):
    result = run_spec(spec)
    return summarize(result, REQUEST, cell_id=spec.name, seed=spec.seed)


class TestScenarioDeterminism:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(available_scenarios())),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_same_seed_same_summary_across_fresh_builds(self, name, seed):
        spec = _small_spec(name, seed)
        first = _summary_of_fresh_run(spec)
        second = _summary_of_fresh_run(spec)
        # PointSummary equality covers every extracted metric (viewing
        # curves, window completeness, lag CDF, sorted usage, delivery
        # ratio, event counts); wall_seconds is excluded by design.
        assert first == second
        assert first.events_processed == second.events_processed

    def test_different_seeds_actually_differ(self):
        """Guard against the trivial way the property above could pass:
        seeds being ignored entirely."""
        summary_a = _summary_of_fresh_run(_small_spec("homogeneous", seed=1))
        summary_b = _summary_of_fresh_run(_small_spec("homogeneous", seed=2))
        assert summary_a != summary_b


def test_every_registered_scenario_is_covered():
    """The sampled_from universe tracks the registry automatically; this
    pins that nothing new silently escapes the determinism property."""
    names = set(available_scenarios())
    assert {"homogeneous", "churn-window", "flash-crowd", "eager-push"} <= names
    for name in names:
        _small_spec(name, seed=1)  # every scenario shrinks cleanly
