"""The scenario registry: named experiment shapes, one decorator away.

Every entry is a factory producing a :class:`ScenarioSpec`; callers override
any spec field by keyword::

    from repro.scenarios import run_scenario

    result = run_scenario("churn-window", num_nodes=60, seed=5)

Shipped scenarios:

* ``homogeneous`` — the paper's baseline: equal 700 kbps caps everywhere;
* ``heterogeneous-bandwidth`` — a cable/DSL mix (30 % strong at 2 Mbps,
  70 % weak at 500 kbps) where the weak class alone cannot carry the stream;
* ``churn-window`` — a catastrophic failure of half the nodes halfway
  through the stream (Section 4.3 of the paper);
* ``flash-crowd`` — 40 % of the audience joins in one burst halfway
  through the stream;
* ``lossy-wan`` — 5 % random datagram loss over heavy-tailed lognormal
  latencies, leaning on retransmission and FEC;
* ``eager-push`` — the one-phase full-payload baseline protocol.  Note it
  is *not* knob-identical to ``homogeneous``: pushing whole payloads needs
  a bigger cap (2 Mbps) and a smaller fanout (5) to survive at all, which
  is itself the comparison's point — match the knobs explicitly (e.g.
  ``run_scenario("eager-push", fanout=7, upload_cap_kbps=700.0)``) to
  watch the baseline collapse under the paper's provisioning.
* ``large-session`` — the fast-path flagship: 1,000 nodes at the paper's
  exact stream geometry (600 kbps, 101 + 9 packet windows).  This is the
  evaluation size of the wider gossip-dissemination literature (epidemic
  broadcast trees, bandwidth-aware gossip), an order of magnitude past the
  paper's 230-node PlanetLab deployment.  One session is a few minutes of
  single-core simulation; ``python -m repro.bench run --filter large-session`` runs it
  with per-stage timings.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.core.session import SessionResult
from repro.membership.churn import CatastrophicChurn
from repro.membership.join import FlashCrowdJoin
from repro.streaming.schedule import StreamConfig

from repro.scenarios.spec import BandwidthClass, ScenarioSpec, run_spec

ScenarioFactory = Callable[[], ScenarioSpec]

_SCENARIOS: Dict[str, ScenarioFactory] = {}


def register_scenario(factory: ScenarioFactory) -> ScenarioFactory:
    """Register a spec factory under the name of the spec it produces.

    Used as a bare decorator (``@register_scenario``); a name registered
    twice raises.  Factories (rather than spec instances) keep registration
    cheap and mutation-safe.
    """
    spec = factory()
    if spec.name in _SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _SCENARIOS[spec.name] = factory
    return factory


def scenario_by_name(name: str) -> ScenarioFactory:
    """Look up a scenario factory by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        ) from None


def available_scenarios() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_SCENARIOS)


def build_scenario(name: str, **overrides) -> ScenarioSpec:
    """The named spec with any field overridden by keyword."""
    spec = scenario_by_name(name)()
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec


def run_scenario(name: str, **overrides) -> SessionResult:
    """Build and run the named scenario to completion."""
    return run_spec(build_scenario(name, **overrides))


# ----------------------------------------------------------------------
# Shipped scenarios
# ----------------------------------------------------------------------
@register_scenario
def homogeneous() -> ScenarioSpec:
    """The paper's baseline: every node capped at the same 700 kbps."""
    return ScenarioSpec(
        name="homogeneous",
        description="Equal 700 kbps upload caps, fanout 7, X = 1 (paper baseline).",
    )


@register_scenario
def heterogeneous_bandwidth() -> ScenarioSpec:
    """A cable/DSL capacity mix; the strong class must carry the stream."""
    return ScenarioSpec(
        name="heterogeneous-bandwidth",
        description=(
            "30% strong peers at 2 Mbps, 70% weak peers at 500 kbps; the weak "
            "class alone cannot sustain the 600 kbps stream."
        ),
        bandwidth_classes=(
            BandwidthClass(fraction=0.3, cap_kbps=2000.0),
            BandwidthClass(fraction=0.7, cap_kbps=500.0),
        ),
    )


@register_scenario
def churn_window() -> ScenarioSpec:
    """Catastrophic churn mid-stream (the paper's Section 4.3).

    The failure time is derived from the spec's own stream so the crash
    genuinely lands mid-dissemination; a perturbation scheduled past the
    stream's end would be inert (dissemination already complete).
    """
    stream = StreamConfig.scaled_down(num_windows=40)
    return ScenarioSpec(
        name="churn-window",
        description=(
            "Half of the receivers crash simultaneously halfway through the "
            "stream."
        ),
        stream=stream,
        churn=CatastrophicChurn(time=stream.duration * 0.5, fraction=0.5),
    )


@register_scenario
def flash_crowd() -> ScenarioSpec:
    """A burst of late joiners while the stream is still being published.

    As with ``churn-window``, the join time is derived from the stream so
    the crowd arrives mid-broadcast and actually receives the live tail
    (gossip is not a catch-up protocol: joining after the last packet has
    been proposed yields nothing).
    """
    stream = StreamConfig.scaled_down(num_windows=40)
    return ScenarioSpec(
        name="flash-crowd",
        description=(
            "40% of the receivers join in one burst halfway through the "
            "stream and view its live tail."
        ),
        stream=stream,
        join=FlashCrowdJoin(time=stream.duration * 0.5, fraction=0.4),
    )


@register_scenario
def lossy_wan() -> ScenarioSpec:
    """A lossy wide-area substrate: 5% datagram loss, lognormal latency."""
    return ScenarioSpec(
        name="lossy-wan",
        description=(
            "5% random in-flight loss over heavy-tailed lognormal latencies; "
            "recovery leans on retransmission (K = 3) and FEC."
        ),
        latency_model="lognormal",
        base_latency=0.08,
        random_loss=0.05,
        max_request_attempts=3,
    )


@register_scenario
def eager_push() -> ScenarioSpec:
    """The one-phase eager-push baseline, provisioned so it can survive.

    Deliberately NOT knob-identical to ``homogeneous``: without the
    propose/request phase every duplicate costs a whole packet, so the
    baseline needs a 2 Mbps cap and fanout 5 to deliver the stream at all.
    For a controlled A/B of the *protocols*, override the knobs to match
    (``fanout=7, upload_cap_kbps=700.0``) and watch eager push congest and
    its real-time viewing percentage collapse (offline delivery can still
    recover through the post-stream drain at small scales).
    """
    return ScenarioSpec(
        name="eager-push",
        description=(
            "Full-payload infect-and-die gossip (no propose/request phase), "
            "over-provisioned (2 Mbps, fanout 5) so it survives; under the "
            "paper's 700 kbps / fanout 7 it collapses — that is the point."
        ),
        protocol="eager-push",
        fanout=5,
        upload_cap_kbps=2000.0,
    )


@register_scenario
def large_session() -> ScenarioSpec:
    """The fast-path flagship: 1,000 nodes at the paper's stream geometry.

    Stream ratios are the paper's exact 101 + 9 windows at 600 kbps; only
    the stream *length* (12 windows ≈ 18 s) is trimmed so one session stays
    a few minutes of single-core simulation.  Override ``num_nodes`` or the
    stream to scale further — the spec compiles through the same
    :meth:`~repro.scenarios.spec.ScenarioSpec.session_config` as every other
    scenario.
    """
    return ScenarioSpec(
        name="large-session",
        description=(
            "1,000 nodes streaming the paper's 600 kbps / 101+9-window "
            "geometry: the literature's evaluation size, served by the "
            "metrics fast path."
        ),
        num_nodes=1000,
        stream=StreamConfig.paper_defaults(num_windows=12),
        max_backlog_seconds=20.0,
        extra_time=60.0,
    )


@register_scenario
def metropolis() -> ScenarioSpec:
    """A 10,000-node metropolis at the paper's stream geometry, sharded.

    Two orders of magnitude past the paper's 230-node deployment — the size
    at which a city-scale live event would lean on gossip dissemination.
    The stream keeps the paper's exact 101 + 9-packet windows at 600 kbps
    but only 6 of them (≈ 9 s of stream): one session is already tens of
    millions of events, and the scenario exists to exercise *scale*, not
    stream length.

    ``shards=4`` makes the sharded runner the default execution path (so
    per-datagram randomness is placement-invariant per-sender); override
    ``shards`` to match the host's cores, or set it to 1 to measure the
    window protocol's overhead against ``run --shards`` parity output.
    Expect a full run to take tens of minutes of CPU — this is the nightly
    benchmark's territory, not the test suite's.
    """
    return ScenarioSpec(
        name="metropolis",
        description=(
            "10,000 nodes streaming the paper's 600 kbps / 101+9-window "
            "geometry across 4 conservative time-window shards."
        ),
        num_nodes=10_000,
        stream=StreamConfig.paper_defaults(num_windows=6),
        max_backlog_seconds=20.0,
        extra_time=60.0,
        shards=4,
    )
