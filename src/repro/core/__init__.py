"""The paper's contribution: three-phase gossip-based live streaming.

This package implements Algorithm 1 of the paper — the push-request-push
(propose / request / serve) gossip dissemination protocol with infect-and-die
id propagation, retransmission, the fanout knob, and both proactiveness
mechanisms (view refresh rate ``X`` and feed-me request rate ``Y``) — plus
the high-level :class:`StreamingSession` that wires protocol nodes to the
network, membership, streaming and metrics substrates.

Public API sketch::

    from repro.core import GossipConfig, StreamingSession, SessionConfig

    session = StreamingSession(SessionConfig(num_nodes=60, seed=7,
                                             gossip=GossipConfig(fanout=7)))
    result = session.run()
    print(result.quality.viewing_ratio(lag=10.0))
"""

from repro.core.config import GossipConfig
from repro.core.host import Host, ScheduledHandle
from repro.core.messages import (
    FEED_ME,
    PROPOSE,
    REQUEST,
    SERVE,
    FeedMePayload,
    ProposePayload,
    RequestPayload,
    ServePayload,
    ServedPacket,
)
from repro.core.node import GossipNode, NodeStats
from repro.core.session import SessionConfig, SessionResult, StreamingSession
from repro.core.state import NodeState, PendingRequest

__all__ = [
    "FEED_ME",
    "FeedMePayload",
    "GossipConfig",
    "GossipNode",
    "Host",
    "NodeState",
    "NodeStats",
    "PROPOSE",
    "PendingRequest",
    "ProposePayload",
    "REQUEST",
    "RequestPayload",
    "SERVE",
    "ScheduledHandle",
    "ServePayload",
    "ServedPacket",
    "SessionConfig",
    "SessionResult",
    "StreamingSession",
]
