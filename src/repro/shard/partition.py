"""Deterministic node → shard placement, and the lookahead it buys.

The window protocol is only as fast as its windows are wide, and the safe
width — the *lookahead* — is the smallest delay any cross-shard datagram can
have.  That is a property of the placement: the latency model bounds a pair's
delay from below by ``floor_between`` of the groups the two ends live in, so
where nodes live and how far shards may run ahead are one decision.
:func:`plan_shards` makes it once per run, from the config alone, and the
resulting :class:`ShardPlan` is handed to the coordinator, every worker and
the merge step.

Placement sorts nodes by the latency model's per-node floor term (the
quality factor of ``per-node`` latency; low means well connected) and cuts
the order into ``num_shards`` contiguous, near-equal chunks.  The lookahead
is set by the two smallest per-shard minima, and contiguous chunks of the
sorted order maximise the second smallest: the best node pins the smallest
minimum wherever it lives, and its shard absorbs the next ``n / k - 1`` best
nodes, so every other shard's minimum is the ``(n / k + 1)``-th smallest term
or larger — the most shards of that size allow.
Results do not depend on placement (per-sender RNG streams, replicated
control plane, total-ordered exchange), so the partition is free to choose.

Ties — and every node of a model without a per-node term (``constant``,
``uniform``, ``lognormal``) — are ordered by a stable SHA-256 hash, the
repo's seed-derivation construction rather than Python's randomized
``hash()``.  That keeps placement *uncorrelated* with node id structure:
bandwidth classes are assigned by ``node_id % 10``
(:mod:`repro.scenarios.spec`), so cutting the plain id order would pile one
capacity class onto one shard.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Tuple

from repro.network.message import NodeId
from repro.simulation.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import SessionConfig


def _stable_hash(node_id: NodeId) -> int:
    digest = hashlib.sha256(f"shard:node-{node_id}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _no_floor_term(node_id: NodeId) -> float:
    return 0.0


def partition_nodes(
    num_nodes: int,
    num_shards: int,
    floor_term: Callable[[NodeId], float] = _no_floor_term,
) -> List[List[NodeId]]:
    """Node ids grouped by owner shard (ascending within each shard).

    Nodes are ordered by ``(floor_term(node_id), stable hash)`` and the order
    is cut into ``num_shards`` contiguous chunks whose sizes differ by at
    most one, so shard 0 holds the nodes with the smallest floor terms.

    Shards can legitimately come out empty — a 2-node session split 4 ways
    leaves two shards without nodes; such shards still participate in the
    window protocol (they replicate the control plane).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards!r}")
    order = sorted(
        range(num_nodes), key=lambda node_id: (floor_term(node_id), _stable_hash(node_id))
    )
    small, extra = divmod(num_nodes, num_shards)
    groups: List[List[NodeId]] = []
    start = 0
    for shard_id in range(num_shards):
        stop = start + small + (1 if shard_id < extra else 0)
        groups.append(sorted(order[start:stop]))
        start = stop
    return groups


@dataclass(frozen=True)
class ShardPlan:
    """Where every node lives and how far a shard may run ahead of the others.

    ``groups[k]`` is shard ``k``'s nodes (ascending), ``lookup[node_id]`` the
    owner shard of ``node_id`` (the routing hot path: one indexed load per
    datagram), and ``lookahead`` the greatest lower bound, in simulated
    seconds, of the propagation delay of any datagram that crosses shards.
    """

    groups: Tuple[Tuple[NodeId, ...], ...]
    lookup: Tuple[int, ...]
    lookahead: float

    @property
    def num_shards(self) -> int:
        """How many shards the plan splits the session into."""
        return len(self.groups)


def plan_shards(config: "SessionConfig", num_shards: int) -> ShardPlan:
    """Derive placement and lookahead for ``config`` split ``num_shards`` ways.

    A pure function of its arguments: the latency model is rebuilt from the
    config's own seed, so its per-node table is the one every worker's
    session will draw.  With fewer than two non-empty shards nothing crosses
    a shard boundary and the lookahead is never consulted (a lone shard jumps
    straight to the horizon); it is then the model's global floor.
    """
    node_ids = list(range(config.num_nodes))
    model = config.network.build_latency(RngRegistry(config.seed), node_ids)
    groups = partition_nodes(config.num_nodes, num_shards, model.floor_term)
    occupied = [group for group in groups if group]
    lookahead = min(
        (
            model.floor_between(group_a, group_b)
            for index, group_a in enumerate(occupied)
            for group_b in occupied[index + 1 :]
        ),
        default=model.min_latency(),
    )
    if lookahead <= 0.0:
        raise ValueError(
            f"cannot shard this session: latency model "
            f"{config.network.latency_model!r} has a cross-shard latency floor "
            f"of {lookahead!r}, so no conservative time window exists"
        )
    lookup = [0] * config.num_nodes
    for shard_id, group in enumerate(groups):
        for node_id in group:
            lookup[node_id] = shard_id
    return ShardPlan(
        groups=tuple(tuple(group) for group in groups),
        lookup=tuple(lookup),
        lookahead=lookahead,
    )
