"""Real-network sessions: the scalar session wiring on asyncio UDP.

:class:`RealNetSession` subclasses
:class:`~repro.core.session.StreamingSession` and swaps exactly two build
steps — the execution host and the transport.  Everything else (membership
directory, node construction, the stream emitter, churn and join
scheduling, telemetry attachment, the result assembly) is *inherited
verbatim*: the point of the :class:`~repro.core.host.Host` refactor is
that a :class:`~repro.core.node.GossipNode` cannot tell which backend it
is running on.

A run produces a genuine :class:`~repro.core.session.SessionResult` — the
delivery log, traffic stats, node stats and quality analyzers are the same
classes the simulator fills — which is what makes the sim-vs-real
comparison (:mod:`repro.realnet.compare`) a pure data question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.session import SessionConfig, StreamingSession
from repro.realnet.ports import PortPlan

if TYPE_CHECKING:
    from repro.realnet.host import AsyncioHost


@dataclass(frozen=True)
class RealNetConfig:
    """Knobs specific to the real-network backend.

    Attributes
    ----------
    time_scale:
        Wall seconds per virtual second (see
        :class:`~repro.realnet.host.AsyncioHost`).  1.0 is real time.
    bind_host:
        Interface the node sockets bind on; loopback by default.
    base_port:
        ``None`` for kernel-assigned ports (safe for concurrent runs), or
        an explicit base so node ``i`` listens on ``base_port + i``.
    """

    time_scale: float = 1.0
    bind_host: str = "127.0.0.1"
    base_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time_scale <= 0.0:
            raise ValueError(f"time_scale must be positive, got {self.time_scale!r}")

    def port_plan(self) -> PortPlan:
        """The port allocation policy these knobs describe."""
        return PortPlan(bind_host=self.bind_host, base_port=self.base_port)


class RealNetSession(StreamingSession):
    """One streaming session executed over real asyncio UDP sockets.

    Parameters
    ----------
    config:
        The same :class:`~repro.core.session.SessionConfig` a simulated
        session takes.  ``shards`` must be ``None`` — sharding partitions a
        virtual event queue, which this backend does not have.
    realnet:
        Backend knobs; defaults to real time on kernel-assigned loopback
        ports.
    """

    def __init__(self, config: SessionConfig, realnet: Optional[RealNetConfig] = None) -> None:
        if config.shards is not None:
            raise ValueError(
                "realnet sessions cannot be sharded; set SessionConfig.shards=None"
            )
        super().__init__(config)
        self.realnet = realnet if realnet is not None else RealNetConfig()

    def _create_simulator(self) -> AsyncioHost:
        """The wall-clock host every substrate schedules on."""
        from repro.realnet.host import AsyncioHost  # asyncio loads with the first session

        return AsyncioHost(seed=self.config.seed, time_scale=self.realnet.time_scale)

    def _build_network(self) -> None:
        """Build the UDP transport with per-sender substrate randomness.

        Per-sender RNG streams make each node's loss/latency draws a
        function of (seed, sender) alone — real-time interleaving of sends
        across nodes cannot perturb anybody's draw sequence, which keeps
        repeated realnet runs statistically aligned with each other and
        with the sharded simulator's draw discipline.
        """
        from repro.realnet.net import UdpNetwork

        assert self.simulator is not None
        config = self.config
        node_ids = list(range(config.num_nodes))
        latency = config.network.build_latency(
            self.simulator.rng, node_ids, per_sender=True
        )
        loss = config.network.build_loss(self.simulator.rng, per_sender=True)
        self.network = UdpNetwork(
            self.simulator, latency_model=latency, loss_model=loss,
            plan=self.realnet.port_plan(),
        )


__all__ = [
    "RealNetConfig",
    "RealNetSession",
]
