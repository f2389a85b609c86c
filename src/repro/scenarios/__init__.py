"""Declarative scenarios: named experiment shapes built through one funnel.

The scenario layer separates *what an experiment looks like* (a
:class:`ScenarioSpec`: protocol, swarm size, capacity mix, churn, joins,
loss) from *how a session is wired* (:meth:`ScenarioSpec.session_config`),
and gives the common shapes names::

    from repro.scenarios import available_scenarios, run_scenario

    print(available_scenarios())
    result = run_scenario("heterogeneous-bandwidth", num_nodes=60, seed=3)
    print(result.viewing_percentage(lag=10.0))

Custom scenarios are plain spec factories::

    from repro.scenarios import ScenarioSpec, register_scenario

    @register_scenario
    def tiny_lan() -> ScenarioSpec:
        return ScenarioSpec(name="tiny-lan", num_nodes=10,
                            latency_model="constant", random_loss=0.0)
"""

from repro.scenarios.registry import (
    available_scenarios,
    build_scenario,
    register_scenario,
    run_scenario,
    scenario_by_name,
)
from repro.scenarios.spec import (
    BandwidthClass,
    ScenarioSpec,
    assign_bandwidth_classes,
    build_session,
    run_spec,
)

__all__ = [
    "BandwidthClass",
    "ScenarioSpec",
    "assign_bandwidth_classes",
    "available_scenarios",
    "build_scenario",
    "build_session",
    "register_scenario",
    "run_scenario",
    "run_spec",
    "scenario_by_name",
]
