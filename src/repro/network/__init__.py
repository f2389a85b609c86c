"""Network substrate: an unreliable, bandwidth-constrained message fabric.

The paper deploys its gossip protocol over UDP on 230 PlanetLab nodes whose
*upload* bandwidth is artificially capped by a throttling bandwidth limiter.
This package reproduces that substrate in simulation:

* :class:`Message` — a typed datagram with an explicit wire size.
* :class:`UploadLimiter` — the per-node upload cap: messages are serialized
  through a FIFO queue drained at the cap rate; a bounded backlog models the
  throttling behaviour and drops on overflow (congestion loss).
* latency models (:mod:`repro.network.latency`) — per-link propagation delay,
  including per-node "good node / bad node" factors.
* loss models (:mod:`repro.network.loss`) — random datagram loss on top of
  congestion drops.
* :class:`Network` — the transport tying it all together: endpoints register
  a receive handler; ``send`` applies the sender's upload limiter, the link
  latency and the loss model, then schedules delivery.
* :class:`TrafficStats` — byte/message accounting per node and message kind,
  used to reproduce the paper's bandwidth-usage figure (Figure 4).
"""

from repro.network.bandwidth import BandwidthCap, UploadLimiter
from repro.network.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    PerNodeQualityLatency,
    UniformLatency,
)
from repro.network.loss import LossModel, NoLoss, UniformLoss
from repro.network.message import Message
from repro.network.stats import NodeTraffic, TrafficStats
from repro.network.transport import Network, NetworkConfig

__all__ = [
    "BandwidthCap",
    "ConstantLatency",
    "LatencyModel",
    "LogNormalLatency",
    "LossModel",
    "Message",
    "Network",
    "NetworkConfig",
    "NoLoss",
    "NodeTraffic",
    "PerNodeQualityLatency",
    "TrafficStats",
    "UniformLatency",
    "UniformLoss",
    "UploadLimiter",
]
