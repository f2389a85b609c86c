"""Full-membership directory with delayed failure detection.

The gossip protocol of the paper assumes each node can pick uniformly random
partners "in the set of all nodes" (Algorithm 1, line 26).  In the PlanetLab
deployment this knowledge is provided by a membership service; crucially,
when nodes crash, the rest of the system does not learn about it instantly —
dead nodes keep being selected for a short while, wasting fanout, which is
why survivors see a few seconds of degraded quality around a churn event
before the protocol recovers.

:class:`MembershipDirectory` models exactly that: a registry of node ids, a
failure timestamp per crashed node, and a ``detection_delay`` after which a
crashed node stops being returned by :meth:`selectable`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.message import NodeId


class MembershipDirectory:
    """Registry of all nodes with delayed failure visibility.

    Parameters
    ----------
    detection_delay:
        Seconds after a node's failure before other nodes stop selecting it.
        ``float("inf")`` models a system with no failure detection at all
        (dead nodes are selected forever); ``0`` models an oracle detector.
    """

    def __init__(self, detection_delay: float = 5.0) -> None:
        if detection_delay < 0.0:
            raise ValueError(f"detection_delay must be >= 0, got {detection_delay!r}")
        self._detection_delay = float(detection_delay)
        self._members: List[NodeId] = []
        self._member_set: set[NodeId] = set()
        self._failed_at: Dict[NodeId, float] = {}
        # ``selectable`` cache.  Every node's partner selector calls
        # ``selectable`` every gossip round, and the naive scan is O(members)
        # — O(n²) work per round across the system, the dominant cost at
        # 1,000 nodes.  The selectable set only changes when membership
        # mutates (version bump) or when a crashed node crosses its
        # detection deadline, so between two such instants the scan result
        # is reused and a node's own entry is skipped by position
        # (``selectable_base``).  The window runs from the latest deadline
        # at or before the rebuild's ``now`` to the earliest after it: a node
        # replaying the partner draws of skipped gossip rounds asks about
        # past instants, which are answered from the same cache.
        self._version = 0
        self._cache_version = -1
        self._cache_from = 0.0
        self._cache_deadline = 0.0  # cache valid for now in [_cache_from, _cache_deadline)
        self._cache_base: List[NodeId] = []
        self._cache_index: Dict[NodeId, int] = {}

    @property
    def detection_delay(self) -> float:
        """Seconds between a node's crash and its system-wide undetectability."""
        return self._detection_delay

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, node_id: NodeId) -> None:
        """Register a node.  Adding an existing member is an error."""
        if node_id in self._member_set:
            raise ValueError(f"node {node_id} is already a member")
        self._members.append(node_id)
        self._member_set.add(node_id)
        self._version += 1

    def add_all(self, node_ids: Iterable[NodeId]) -> None:
        """Register several nodes at once."""
        for node_id in node_ids:
            self.add(node_id)

    def mark_failed(self, node_id: NodeId, time: float) -> None:
        """Record that ``node_id`` crashed at simulated ``time``."""
        if node_id not in self._member_set:
            raise KeyError(f"node {node_id} is not a member")
        self._failed_at.setdefault(node_id, time)
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def alive_members(self) -> List[NodeId]:
        """Node ids that have not crashed (ground truth, not detection)."""
        return [node_id for node_id in self._members if node_id not in self._failed_at]

    def selectable(self, now: float, exclude: Optional[NodeId] = None) -> List[NodeId]:
        """Nodes that appear alive at ``now`` from the point of view of peers.

        A crashed node remains selectable until ``detection_delay`` seconds
        after its crash, then disappears from every node's candidate set.
        The list is :meth:`selectable_base` with ``exclude`` cut out, so it
        is element-for-element identical to a fresh scan (partner sampling
        consumes it in order, so even the ordering is part of the
        determinism contract).
        """
        base, position = self.selectable_base(now, exclude)
        return base[:position] + base[position + 1 :]

    def selectable_base(
        self, now: float, exclude: Optional[NodeId] = None
    ) -> Tuple[List[NodeId], int]:
        """The cached selectable list at ``now`` and ``exclude``'s index in it.

        The index is ``len(base)`` when ``exclude`` is absent (or ``None``),
        so ``base[:position] + base[position + 1:]`` is the candidate list
        either way.  ``base`` is the cache itself, shared by every caller
        until membership mutates or a detection deadline passes: read it,
        never mutate it.

        The cache is keyed on the membership version and valid between
        the two detection deadlines around the ``now`` it was built at.
        """
        if (
            self._cache_version != self._version
            or now < self._cache_from
            or now >= self._cache_deadline
        ):
            self._rebuild_selectable_cache(now)
        base = self._cache_base
        return base, self._cache_index.get(exclude, len(base))

    def _rebuild_selectable_cache(self, now: float) -> None:
        """Recompute the selectable base list and its validity window."""
        detection_delay = self.detection_delay
        failed_at = self._failed_at
        base: List[NodeId] = []
        index: Dict[NodeId, int] = {}
        valid_from = -math.inf
        deadline = math.inf
        if failed_at:
            for node_id in self._members:
                failed_time = failed_at.get(node_id)
                if failed_time is not None:
                    detected_at = failed_time + detection_delay
                    if now >= detected_at:
                        if detected_at > valid_from:
                            valid_from = detected_at
                        continue
                    if detected_at < deadline:
                        deadline = detected_at
                index[node_id] = len(base)
                base.append(node_id)
        else:
            base = list(self._members)
            index = {node_id: position for position, node_id in enumerate(base)}
        self._cache_version = self._version
        self._cache_from = valid_from
        self._cache_deadline = deadline
        self._cache_base = base
        self._cache_index = index

    def churn_candidates(self, protected: Iterable[NodeId] = ()) -> List[NodeId]:
        """Alive nodes eligible to be killed by a churn schedule.

        ``protected`` typically contains the stream source, which the paper
        never crashes.
        """
        protected_set = set(protected)
        return [
            node_id
            for node_id in self.alive_members()
            if node_id not in protected_set
        ]
