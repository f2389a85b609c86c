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

import datetime as _datetime
import json
import os
from dataclasses import dataclass
from typing import Optional

from repro.core.session import SessionConfig, SessionResult, StreamingSession

from repro.realnet.host import AsyncioHost
from repro.realnet.net import UdpNetwork
from repro.realnet.ports import PortPlan


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
        return AsyncioHost(seed=self.config.seed, time_scale=self.realnet.time_scale)

    def _build_network(self) -> None:
        """Build the UDP transport with per-sender substrate randomness.

        Per-sender RNG streams make each node's loss/latency draws a
        function of (seed, sender) alone — real-time interleaving of sends
        across nodes cannot perturb anybody's draw sequence, which keeps
        repeated realnet runs statistically aligned with each other and
        with the sharded simulator's draw discipline.
        """
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


# ----------------------------------------------------------------------
# Run identity and artifacts (the Snippet-2 harness shape)
# ----------------------------------------------------------------------
def make_run_id(seed: int, now: Optional[_datetime.datetime] = None) -> str:
    """A sortable, human-readable id for one real-network run.

    UTC timestamp plus the seed — two runs launched in the same second
    with different seeds still get distinct directories.
    """
    stamp = now if now is not None else _datetime.datetime.now(_datetime.timezone.utc)
    return stamp.strftime("%Y%m%dT%H%M%SZ") + f"-s{seed}"


def write_delivery_log(result: SessionResult, path: str) -> int:
    """Write a session's delivery log as one JSONL record per delivery.

    The schema — ``{"node": id, "packet": id, "t": virtual_seconds}`` in
    ``(t, node, packet)`` order — is backend-independent: a simulated and a
    real run of the same scenario produce files that differ only in their
    values, never their shape.  Returns the number of records written.
    """
    records = [
        (time, node_id, packet_id)
        for node_id, packets in result.deliveries.raw().items()
        for packet_id, time in packets.items()
    ]
    records.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for time, node_id, packet_id in records:
            fh.write(json.dumps({"node": node_id, "packet": packet_id, "t": time}) + "\n")
    return len(records)


def write_run_summary(result: SessionResult, path: str, run_id: str) -> None:
    """Write the headline metrics of one run as a small JSON document."""
    summary = {
        "run_id": run_id,
        "backend": "realnet-asyncio",
        "num_nodes": result.config.num_nodes,
        "seed": result.config.seed,
        "protocol": result.config.protocol,
        "delivery_ratio": result.delivery_ratio(),
        "viewing_pct_10s": result.viewing_percentage(lag=10.0),
        "events_processed": result.events_processed,
        "end_time": result.end_time,
        "failed_nodes": list(result.failed_nodes),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def prepare_run_dir(root: str, run_id: str) -> str:
    """Create (and return) the artifact directory of one run."""
    run_dir = os.path.join(root, run_id)
    os.makedirs(run_dir, exist_ok=True)
    return run_dir


__all__ = [
    "RealNetConfig",
    "RealNetSession",
    "make_run_id",
    "prepare_run_dir",
    "write_delivery_log",
    "write_run_summary",
]
