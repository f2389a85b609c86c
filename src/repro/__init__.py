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

from repro.core.config import GossipConfig
from repro.core.node import GossipNode, NodeStats
from repro.core.session import SessionConfig, SessionResult, StreamingSession, run_session
from repro.membership.churn import CatastrophicChurn
from repro.membership.join import FlashCrowdJoin
from repro.membership.partners import INFINITE
from repro.metrics.quality import OFFLINE_LAG, StreamQualityAnalyzer
from repro.network.bandwidth import BandwidthCap
from repro.network.transport import Network, NetworkConfig
from repro.protocols import (
    DisseminationProtocol,
    EagerPush,
    ThreePhaseGossip,
    available_protocols,
    register_protocol,
)
from repro.scenarios import (
    BandwidthClass,
    ScenarioSpec,
    available_scenarios,
    register_scenario,
    run_scenario,
)
from repro.simulation.engine import Simulator
from repro.streaming.schedule import StreamConfig, StreamSchedule
from repro.telemetry.config import TelemetryConfig

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
