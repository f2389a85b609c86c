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
from typing import Dict, Iterable, Mapping, Optional
import random

from repro.simulation.rng import RngRegistry

from repro.network.latency import _SenderStreams
from repro.network.message import Message, NodeId


class LossModel(ABC):
    """Base class: decides whether one datagram is lost in flight."""

    @abstractmethod
    def is_lost(self, message: Message) -> bool:
        """Return ``True`` if this datagram should be dropped in flight."""

    def describe(self) -> str:
        """Human-readable one-line description (used in experiment reports)."""
        return type(self).__name__


class NoLoss(LossModel):
    """Ideal network: nothing is ever lost in flight."""

    def is_lost(self, message: Message) -> bool:
        return False

    def describe(self) -> str:
        return "no random loss"


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

    def describe(self) -> str:
        return f"uniform loss p={self.probability:.3f}"


class PerNodeLoss(LossModel):
    """Per-receiver loss probabilities (lossy last miles).

    Nodes missing from the mapping use ``default`` probability.
    """

    def __init__(
        self,
        rng: RngRegistry,
        probabilities: Mapping[NodeId, float],
        default: float = 0.0,
        per_sender: bool = False,
    ) -> None:
        for node_id, probability in probabilities.items():
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"loss probability for node {node_id} must be in [0, 1], got {probability!r}"
                )
        if not 0.0 <= default <= 1.0:
            raise ValueError(f"default loss probability must be in [0, 1], got {default!r}")
        self._probabilities: Dict[NodeId, float] = dict(probabilities)
        self.default = float(default)
        self._rng: Optional[random.Random] = None if per_sender else rng.stream("loss/per-node")
        self._sender_streams = _SenderStreams(rng, "loss/per-node") if per_sender else None

    def probability_for(self, node_id: NodeId) -> float:
        """The loss probability applied to datagrams destined to ``node_id``."""
        return self._probabilities.get(node_id, self.default)

    def is_lost(self, message: Message) -> bool:
        probability = self.probability_for(message.receiver)
        if probability == 0.0:
            return False
        rng = self._rng
        if rng is None:
            rng = self._sender_streams[message.sender]
        return rng.random() < probability

    def describe(self) -> str:
        return f"per-node loss ({len(self._probabilities)} nodes configured)"


class CompositeLoss(LossModel):
    """A datagram is lost if *any* of the component models loses it."""

    def __init__(self, models: Iterable[LossModel]) -> None:
        self.models = tuple(models)
        if not self.models:
            raise ValueError("CompositeLoss requires at least one component model")

    def is_lost(self, message: Message) -> bool:
        return any(model.is_lost(message) for model in self.models)

    def describe(self) -> str:
        return " + ".join(model.describe() for model in self.models)
