"""Reproduction of "Stretching Gossip with Live Streaming" (Frey et al., DSN 2009).

A gossip-based live streaming system — three-phase propose / request / serve
dissemination with infect-and-die id propagation — running over a simulated
bandwidth-constrained wide-area network, together with the experiment harness
that regenerates every figure of the paper's evaluation.

Top-level convenience imports::

    from repro import (
        GossipConfig, SessionConfig, StreamingSession, run_session,
        StreamConfig, NetworkConfig, CatastrophicChurn, INFINITE,
    )

See ``docs/architecture.md`` for the system inventory; the measured figures
and benchmark reports are written under ``benchmarks/results/``.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.core.config": ("GossipConfig",),
    "repro.core.node": ("GossipNode", "NodeStats"),
    "repro.core.session": ("SessionConfig", "SessionResult", "StreamingSession", "run_session"),
    "repro.membership.churn": ("CatastrophicChurn",),
    "repro.membership.join": ("FlashCrowdJoin",),
    "repro.membership.partners": ("INFINITE",),
    "repro.metrics.quality": ("OFFLINE_LAG", "StreamQualityAnalyzer"),
    "repro.network.bandwidth": ("BandwidthCap",),
    "repro.network.transport": ("Network", "NetworkConfig"),
    "repro.protocols.base": ("DisseminationProtocol",),
    "repro.protocols.eager_push": ("EagerPush",),
    "repro.protocols.registry": ("available_protocols", "register_protocol"),
    "repro.protocols.three_phase": ("ThreePhaseGossip",),
    "repro.scenarios.registry": ("available_scenarios", "register_scenario", "run_scenario"),
    "repro.scenarios.spec": ("BandwidthClass", "ScenarioSpec"),
    "repro.simulation.engine": ("Simulator",),
    "repro.streaming.schedule": ("StreamConfig", "StreamSchedule"),
    "repro.telemetry.config": ("TelemetryConfig",),
})

__version__ = "1.0.0"

__all__ = [
    "BandwidthCap",
    "BandwidthClass",
    "CatastrophicChurn",
    "DisseminationProtocol",
    "EagerPush",
    "FlashCrowdJoin",
    "GossipConfig",
    "GossipNode",
    "INFINITE",
    "Network",
    "NetworkConfig",
    "NodeStats",
    "OFFLINE_LAG",
    "ScenarioSpec",
    "SessionConfig",
    "SessionResult",
    "Simulator",
    "StreamConfig",
    "StreamQualityAnalyzer",
    "StreamSchedule",
    "StreamingSession",
    "TelemetryConfig",
    "ThreePhaseGossip",
    "available_protocols",
    "available_scenarios",
    "register_protocol",
    "register_scenario",
    "run_scenario",
    "run_session",
    "__version__",
]
