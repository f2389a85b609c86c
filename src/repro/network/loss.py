"""Datagram loss models.

The protocol runs over UDP: datagrams can vanish.  Two sources of loss exist
in the reproduction, mirroring the paper's deployment:

* *random loss* modelled here (wide-area packet loss independent of load);
* *congestion loss* produced by the upload limiter when a node's backlog
  overflows (modelled in :mod:`repro.network.bandwidth`, not here).

Like the latency models, the random models accept ``per_sender=True`` to key
their per-datagram draws by the sending node (``loss/<model>/node-<id>``)
instead of one shared stream — the placement-invariant mode required by the
sharded runner (:mod:`repro.shard`; see :mod:`repro.network.latency` for the
rationale).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional
import random

from repro.simulation.rng import RngRegistry

from repro.network.latency import _SenderStreams
from repro.network.message import Message


class LossModel(ABC):
    """Base class: decides whether one datagram is lost in flight."""

    @abstractmethod
    def is_lost(self, message: Message) -> bool:
        """Return ``True`` if this datagram should be dropped in flight."""


class NoLoss(LossModel):
    """Ideal network: nothing is ever lost in flight."""

    def is_lost(self, message: Message) -> bool:
        return False


class UniformLoss(LossModel):
    """Each datagram is independently lost with fixed probability."""

    def __init__(
        self, rng: RngRegistry, probability: float = 0.01, per_sender: bool = False
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {probability!r}")
        self.probability = float(probability)
        self._rng: Optional[random.Random] = None if per_sender else rng.stream("loss/uniform")
        self._sender_streams = _SenderStreams(rng, "loss/uniform") if per_sender else None

    def is_lost(self, message: Message) -> bool:
        if self.probability == 0.0:
            return False
        rng = self._rng
        if rng is None:
            rng = self._sender_streams[message.sender]
        return rng.random() < self.probability
