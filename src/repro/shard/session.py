"""One shard of a sharded session: a replica control plane, a slice of nodes.

Every shard builds the *full deterministic control plane* of the session —
stream schedule, membership directory with every initially-present node,
armed churn/join plans, latency quality factors for all nodes — exactly as
the scalar :class:`~repro.core.session.StreamingSession` would.  Replication
is what makes placement irrelevant: partner selection, churn victim choice
and failure bookkeeping consume identical RNG streams on every shard, so no
coordination is needed for any membership decision.

What is *not* replicated is the data plane: a shard instantiates, registers
and starts only the :class:`~repro.core.node.GossipNode` objects it owns
(:class:`repro.shard.partition.ShardPlan`).  Datagrams between owned
nodes stay on the local event queue; datagrams to remote nodes are diverted
by :class:`ShardRouter` into the current time window's outbound batch and
re-scheduled verbatim — same absolute delivery instant — on the receiving
shard at the next window barrier (:meth:`ShardSession.step`).

Because the transport's per-datagram randomness runs in per-sender streams
when :attr:`~repro.core.session.SessionConfig.shards` is set, a datagram's
latency and loss draws are identical no matter how many shards exist — the
scalar oracle, 1 shard, 2 shards and 4 shards all compute the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.node import NodeStats
from repro.core.session import SessionConfig, StreamingSession
from repro.metrics.delivery import DeliveryLog
from repro.network.message import Message, NodeId
from repro.network.stats import TrafficStats
from repro.network.transport import DatagramRouter

from repro.shard.partition import ShardPlan
from repro.shard.wire import (
    WIRE_STATS,
    RoutedDatagram,
    WireBatch,
    encode_batch,
    merge_inbound,
)


@dataclass
class WindowReport:
    """What one shard tells the coordinator at a window barrier.

    ``outbound`` maps destination shard id to that destination's
    :class:`~repro.shard.wire.WireBatch`.  Pre-splitting by destination in
    the router (which holds the lookup table anyway) means the coordinator
    only forwards batches; it never re-packs them.
    """

    shard_id: int
    bound: float
    outbound: Dict[int, WireBatch]
    #: Earliest instant this shard can send: its earliest pending local
    #: event after the window, or ``None`` when its queue is empty — a node
    #: with nothing to propose queues no gossip tick
    #: (:meth:`~repro.core.node.GossipNode.wake`), so nothing it holds can
    #: send until a datagram arrives.
    peek_time: Optional[float]


@dataclass
class WindowReply:
    """The coordinator's answer: merged inbound traffic plus the next bound.

    ``inbound`` carries one batch per source shard that sent this shard
    traffic; the receiving shard decodes and sorts them
    (:func:`repro.shard.wire.merge_inbound`).
    """

    next_bound: float
    done: bool
    inbound: List[WireBatch] = field(default_factory=list)


@dataclass
class ShardResult:
    """The picklable fragment one shard contributes to the merged result.

    ``control_events`` counts the churn and join firings, which every
    shard replicates; the merge subtracts the
    duplicates so the combined ``events_processed`` matches the scalar run.
    """

    shard_id: int
    owned: Tuple[NodeId, ...]
    deliveries: DeliveryLog
    traffic: TrafficStats
    node_stats: Dict[NodeId, NodeStats]
    failed_nodes: List[NodeId]
    late_joiners: List[NodeId]
    events_processed: int
    control_events: int
    end_time: float
    telemetry: Optional[object] = None


class ShardRouter(DatagramRouter):
    """Routes accepted datagrams: owned receivers locally, the rest batched.

    Remote datagrams are appended to a per-destination-shard batch carrying
    their absolute delivery time and their name ``(sender, message.seq)``;
    the receiving shard sorts its merged inbound by ``(deliver_time, sender,
    seq)`` before scheduling, making delivery order independent of how the
    coordinator concatenated the batches.

    At every window flush the batches are packed into
    :class:`~repro.shard.wire.WireBatch` columns — the cheap thing to push
    through a process pipe.
    """

    __slots__ = ("_network", "_shard_id", "_lookup", "_outbound")

    def __init__(self, network, shard_id: int, lookup: Sequence[int]) -> None:
        self._network = network
        self._shard_id = shard_id
        self._lookup = lookup
        self._outbound: Dict[int, List[RoutedDatagram]] = {}

    def dispatch(self, message: Message, deliver_time: float) -> None:
        """Deliver locally or queue the message for its destination shard."""
        dest = self._lookup[message.receiver]
        if dest == self._shard_id:
            self._network.schedule_delivery(message, deliver_time)
            return
        datagram = (deliver_time, message.sender, message.seq, message)
        batch = self._outbound.get(dest)
        if batch is None:
            self._outbound[dest] = [datagram]
        else:
            batch.append(datagram)

    def flush(self) -> Dict[int, WireBatch]:
        """Take (and clear) the window's outbound batches, packed for the wire."""
        raw = self._outbound
        self._outbound = {}
        batches: Dict[int, WireBatch] = {}
        datagrams = 0
        wire_bytes = 0
        for dest, batch in raw.items():
            encoded = encode_batch(batch)
            batches[dest] = encoded
            datagrams += encoded.count
            wire_bytes += encoded.nbytes
        WIRE_STATS.record_window(len(batches), datagrams, wire_bytes)
        return batches


class ShardSession(StreamingSession):
    """A :class:`StreamingSession` restricted to one shard's nodes.

    The coordinator drives it one window at a time: :meth:`open` builds,
    starts and runs the first window, :meth:`step` answers each report with
    the next, and :meth:`close` hands back the fragment.

    Parameters
    ----------
    config:
        The full session config (``config.shards`` must be set so the
        transport arms per-sender RNG streams).
    shard_id:
        This shard's slot in the partition.
    plan:
        The run's placement and lookahead
        (:func:`repro.shard.partition.plan_shards`), the same object the
        coordinator and every other shard were given.
    """

    def __init__(self, config: SessionConfig, shard_id: int, plan: ShardPlan) -> None:
        if config.shards is None:
            raise ValueError("ShardSession requires a config with shards set")
        if not 0 <= shard_id < plan.num_shards:
            raise ValueError(
                f"shard_id {shard_id!r} out of range for {plan.num_shards} shards"
            )
        super().__init__(config)
        self.shard_id = shard_id
        self.num_shards = plan.num_shards
        self._plan = plan
        self._owned = plan.groups[shard_id]
        self._router: Optional[ShardRouter] = None
        self._until = 0.0

    # ------------------------------------------------------------------
    # Build overrides (everything else is the scalar build, replicated)
    # ------------------------------------------------------------------
    def _build_network(self) -> None:
        super()._build_network()
        assert self.network is not None
        self._router = ShardRouter(self.network, self.shard_id, self._plan.lookup)
        self.network.set_router(self._router)

    def _build_telemetry(self) -> None:
        # Each shard traces into its own file (suffix ``.shardK``); the trace
        # header carries (shard_id, num_shards) so tools can align tracks.
        telemetry = self.config.telemetry
        if telemetry is not None and telemetry.trace_path is not None:
            self.config = replace(
                self.config,
                telemetry=replace(
                    telemetry, trace_path=f"{telemetry.trace_path}.shard{self.shard_id}"
                ),
            )
        super()._build_telemetry()

    # ------------------------------------------------------------------
    # Execution: conservative windows (Chandy–Misra lookahead)
    # ------------------------------------------------------------------
    def open(self) -> WindowReport:
        """Build and start the shard, run its first window and report it.

        The first bound, one lookahead from now, is the same on every shard;
        the coordinator issues the rest.
        """
        self._until = self._start()
        assert self.simulator is not None
        return self._window(min(self._until, self.simulator.now + self._plan.lookahead))

    def step(self, reply: WindowReply) -> Optional[WindowReport]:
        """Schedule ``reply``'s inbound datagrams, then run and report the next window.

        Returns ``None`` once the reply says the run is done.
        """
        assert self.network is not None
        for deliver_time, _sender, _seq, message in merge_inbound(reply.inbound):
            self.network.schedule_delivery(message, deliver_time)
        if reply.done:
            return None
        return self._window(reply.next_bound)

    def _window(self, bound: float) -> WindowReport:
        """Run every event strictly below ``bound`` and report the window.

        ``time < bound`` is ``time <= the float just below bound``, so an
        event exactly at the bound waits for the next window, where
        cross-shard datagrams due at that instant will have been merged in.
        Once the bound reaches the horizon the stretch is inclusive at it, as
        in a scalar run; a repeated bound runs nothing.
        """
        assert self.simulator is not None and self._router is not None
        simulator = self.simulator
        until = self._until
        simulator.run(until=until if bound >= until else math.nextafter(bound, -math.inf))
        return WindowReport(
            shard_id=self.shard_id,
            bound=bound,
            outbound=self._router.flush(),
            peek_time=simulator.peek_time(),
        )

    def close(self) -> ShardResult:
        """Close the trace and return this shard's fragment."""
        self._finish_nodes()
        result = self._result(self._close_telemetry())
        return ShardResult(
            shard_id=self.shard_id,
            owned=self._owned,
            deliveries=result.deliveries,
            traffic=result.traffic,
            node_stats=result.node_stats,
            failed_nodes=result.failed_nodes,
            late_joiners=result.late_joiners,
            events_processed=result.events_processed,
            control_events=self._control_events,
            end_time=result.end_time,
            telemetry=result.telemetry,
        )
