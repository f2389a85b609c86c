"""Propagation latency models.

The paper runs on PlanetLab, where link latencies are heterogeneous and the
difference between well-connected ("good") and poorly-connected ("bad") nodes
drives an important observation: good nodes win the proposal race and end up
serving more of the stream (Figure 4).  The models below let experiments
choose between a constant latency, i.i.d. random latencies, and a per-node
quality model reproducing the good/bad asymmetry.

All latencies are one-way propagation delays in seconds and exclude the
serialization delay imposed by :class:`repro.network.bandwidth.UploadLimiter`.

Sender-keyed draws
------------------
The random models support two draw modes.  The default shares one stream
across all datagrams, so the i-th draw goes to the i-th send *globally* —
fine for a single event loop, and pinned by the pre-sharding golden files.
With ``per_sender=True`` every sender draws from its own stream
(``latency/<model>/node-<sender>``): a node's delays then depend only on its
own send history, never on how sends from different nodes interleave.  That
placement-invariance is what lets the sharded runner
(:mod:`repro.shard`) execute disjoint node sets on independent event loops
and still reproduce the scalar run bit for bit.

Lower bounds
------------
``min_latency()`` is the greatest lower bound a model can ever return over
all pairs — handy for validation checkers bounding feasible delivery times.
``floor_between(group_a, group_b)`` is the same bound restricted to pairs
with one end in each group; the sharded runner minimises it over shard
pairs to get its conservative lookahead (a datagram sent across shards at
``t`` cannot arrive before ``t + lookahead``).  For the i.i.d. models the
two coincide; the per-node quality model knows better, and
``floor_term(node_id)`` exposes the per-node part of that floor so the
shard partition (:mod:`repro.shard.partition`) can place nodes to widen it.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Collection, Dict, Optional, Sequence

from repro.simulation.rng import RngRegistry

from repro.network.message import NodeId


class LatencyModel(ABC):
    """Base class: produces a one-way delay for a (sender, receiver) pair."""

    @abstractmethod
    def sample(self, sender: NodeId, receiver: NodeId) -> float:
        """Return the propagation delay in seconds for one datagram."""

    @abstractmethod
    def min_latency(self) -> float:
        """Greatest lower bound on :meth:`sample` over all pairs and draws.

        The bound must hold for *every* possible draw, not just typical ones.
        """

    def floor_term(self, node_id: NodeId) -> float:
        """The node's own contribution to its pairs' latency floor.

        A model whose floor is the same for every pair has no such term and
        returns ``0.0`` for every node.
        """
        return 0.0

    def floor_between(
        self, group_a: Collection[NodeId], group_b: Collection[NodeId]
    ) -> float:
        """Lower bound on :meth:`sample` for pairs with one end in each group.

        Holds for every draw and either direction; never below
        :meth:`min_latency`.  The sharded runner's lookahead rests on it.
        Both groups must be non-empty.
        """
        return self.min_latency()


class _SenderStreams(dict):
    """Per-sender ``random.Random`` streams under ``<purpose>/node-<id>``.

    ``streams[sender]`` is a plain dict lookup once the sender has drawn; the
    first draw derives the stream through :meth:`RngRegistry.node_stream`
    (which keys by formatted string — an f-string per call, too much for
    per-datagram sampling).
    """

    __slots__ = ("_registry", "_purpose")

    def __init__(self, registry: RngRegistry, purpose: str) -> None:
        self._registry = registry
        self._purpose = purpose

    def __missing__(self, sender: NodeId) -> random.Random:
        stream = self[sender] = self._registry.node_stream(self._purpose, sender)
        return stream


class ConstantLatency(LatencyModel):
    """Every datagram takes exactly ``delay`` seconds to propagate."""

    def __init__(self, delay: float = 0.05) -> None:
        if delay < 0.0:
            raise ValueError(f"latency cannot be negative, got {delay!r}")
        self.delay = float(delay)

    def sample(self, sender: NodeId, receiver: NodeId) -> float:
        return self.delay

    def min_latency(self) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Latency drawn i.i.d. from ``[low, high]`` for every datagram.

    With ``per_sender=True`` each sender draws from its own
    ``latency/uniform/node-<id>`` stream (see the module docstring).
    """

    def __init__(
        self,
        rng: RngRegistry,
        low: float = 0.02,
        high: float = 0.12,
        per_sender: bool = False,
    ) -> None:
        if low < 0.0 or high < low:
            raise ValueError(f"invalid latency range [{low!r}, {high!r}]")
        self._rng: Optional[random.Random] = None if per_sender else rng.stream("latency/uniform")
        self._sender_streams = _SenderStreams(rng, "latency/uniform") if per_sender else None
        self.low = float(low)
        self.high = float(high)

    def sample(self, sender: NodeId, receiver: NodeId) -> float:
        rng = self._rng
        if rng is None:
            rng = self._sender_streams[sender]
        return rng.uniform(self.low, self.high)

    def min_latency(self) -> float:
        return self.low


class LogNormalLatency(LatencyModel):
    """Latency drawn i.i.d. from a lognormal distribution.

    Wide-area RTT distributions are heavy-tailed; a lognormal with a median
    around 60 ms and a moderate sigma is a standard approximation for
    PlanetLab-like conditions.
    """

    def __init__(
        self,
        rng: RngRegistry,
        median: float = 0.06,
        sigma: float = 0.5,
        minimum: float = 0.005,
        per_sender: bool = False,
    ) -> None:
        if median <= 0.0 or sigma < 0.0 or minimum < 0.0:
            raise ValueError("invalid lognormal latency parameters")
        self._rng: Optional[random.Random] = (
            None if per_sender else rng.stream("latency/lognormal")
        )
        self._sender_streams = _SenderStreams(rng, "latency/lognormal") if per_sender else None
        self.median = float(median)
        self.sigma = float(sigma)
        self.minimum = float(minimum)

    def sample(self, sender: NodeId, receiver: NodeId) -> float:
        rng = self._rng
        if rng is None:
            rng = self._sender_streams[sender]
        value = rng.lognormvariate(math.log(self.median), self.sigma)
        return max(self.minimum, value)

    def min_latency(self) -> float:
        return self.minimum


class PerNodeQualityLatency(LatencyModel):
    """Per-node latency factors: "good" nodes are fast, "bad" nodes are slow.

    Each node ``i`` gets a quality factor ``q_i`` drawn once from a lognormal
    distribution; the latency of a datagram from ``s`` to ``r`` is

    ``base * (q_s + q_r) / 2 * jitter``

    where ``jitter`` is a small per-datagram multiplicative noise.  Nodes with
    low factors consistently deliver proposals earlier and therefore win the
    request race — reproducing the heterogeneous contribution the paper
    observes even under homogeneous bandwidth caps.

    The quality table is fixed at construction: ``node_ids`` must name every
    node that will ever send or receive (sessions pass late joiners too).
    :meth:`floor_between` — and with it a sharded run's lookahead — is a
    statement about that table, so there is no way to add a node later.
    """

    def __init__(
        self,
        rng: RngRegistry,
        node_ids: Sequence[NodeId],
        base: float = 0.05,
        quality_sigma: float = 0.6,
        jitter: float = 0.2,
        minimum: float = 0.005,
        per_sender: bool = False,
    ) -> None:
        if base <= 0.0 or quality_sigma < 0.0 or not 0.0 <= jitter < 1.0:
            raise ValueError("invalid per-node latency parameters")
        self.base = float(base)
        self.jitter = float(jitter)
        self.minimum = float(minimum)
        # The quality factors are drawn once at construction from their own
        # stream, so they are identical however (and wherever) datagrams are
        # later sampled — every shard of a sharded run reconstructs the same
        # table by passing the full node id list.
        self._sample_rng: Optional[random.Random] = (
            None if per_sender else rng.stream("latency/per-node/jitter")
        )
        self._sender_streams = (
            _SenderStreams(rng, "latency/per-node/jitter") if per_sender else None
        )
        quality_rng = rng.stream("latency/per-node/quality")
        self._quality: Dict[NodeId, float] = {
            node_id: quality_rng.lognormvariate(0.0, quality_sigma) for node_id in node_ids
        }

    def sample(self, sender: NodeId, receiver: NodeId) -> float:
        pair_quality = (self._quality[sender] + self._quality[receiver]) / 2.0
        rng = self._sample_rng
        if rng is None:
            rng = self._sender_streams[sender]
        # rng.uniform(-jitter, jitter) and max(minimum, value) written out as the
        # stdlib computes them (a + (b - a) * random()): same floats, two calls less.
        jitter = self.jitter
        noise = 1.0 + (-jitter + (jitter - -jitter) * rng.random())
        value = self.base * pair_quality * noise
        return value if value > self.minimum else self.minimum

    def min_latency(self) -> float:
        return self.minimum

    def floor_term(self, node_id: NodeId) -> float:
        return self._quality[node_id]

    def floor_between(
        self, group_a: Collection[NodeId], group_b: Collection[NodeId]
    ) -> float:
        quality = self._quality
        best_a = min(quality[node_id] for node_id in group_a)
        best_b = min(quality[node_id] for node_id in group_b)
        # Same expression shape as sample() with the jitter draw at its lower
        # edge (uniform(-j, j) >= -j exactly), so monotone IEEE rounding makes
        # this a true lower bound of every draw, not an approximation of one.
        pair_quality = (best_a + best_b) / 2.0
        noise = 1.0 + -self.jitter
        return max(self.minimum, self.base * pair_quality * noise)
