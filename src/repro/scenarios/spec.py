"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a flat, serializable description of one
experiment shape: how many nodes, which dissemination protocol, what the
stream looks like, how the network behaves, and which perturbations (churn,
flash crowds, bandwidth classes) apply.  It deliberately stays at a higher
altitude than :class:`~repro.core.session.SessionConfig`: a spec names
*intents* ("30 % strong peers at 2 Mbps", "half the audience joins at
t = 8 s") and :meth:`ScenarioSpec.session_config` compiles them into the
concrete per-node wiring.

Specs are frozen dataclasses, so variations are cheap::

    from dataclasses import replace

    base = scenario_by_name("homogeneous")()
    big = replace(base, num_nodes=230, seed=9)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import GossipConfig
from repro.core.session import (
    SessionConfig,
    SessionResult,
    StreamingSession,
    run_session,
)
from repro.membership.churn import CatastrophicChurn
from repro.membership.join import FlashCrowdJoin
from repro.membership.partners import INFINITE
from repro.network.message import NodeId
from repro.network.transport import NetworkConfig
from repro.streaming.schedule import StreamConfig
from repro.telemetry.config import TelemetryConfig


@dataclass(frozen=True)
class BandwidthClass:
    """One capacity class of a heterogeneous swarm.

    ``fraction`` of the receivers get ``cap_kbps`` of upload.  Classes are
    assigned deterministically by interleaving node ids (cycle of 10), so a
    30 % class maps to ``node_id % 10 < 3`` — independent of churn or join
    ordering.
    """

    fraction: float
    cap_kbps: Optional[float]

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"class fraction must be in (0, 1], got {self.fraction!r}")
        if self.cap_kbps is not None and self.cap_kbps <= 0.0:
            raise ValueError(f"cap_kbps must be positive or None, got {self.cap_kbps!r}")


def assign_bandwidth_classes(
    classes: Tuple[BandwidthClass, ...],
    receiver_ids: Tuple[NodeId, ...],
) -> Dict[NodeId, Optional[float]]:
    """Deterministic per-node caps for a tuple of bandwidth classes.

    Receivers are mapped onto classes through a cycle of 10 positions split
    by cumulative fraction, interleaving strong and weak nodes across the id
    space.  Fractions must sum to 1 and be multiples of 0.1 — the cycle
    cannot represent finer splits, and silently quantizing a requested
    25/75 mix to 30/70 would corrupt capacity-sweep experiments.
    """
    total = sum(cls.fraction for cls in classes)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"bandwidth class fractions must sum to 1, got {total!r}")
    cycle = 10
    thresholds = []
    cumulative = 0.0
    for cls in classes:
        if abs(cls.fraction * cycle - round(cls.fraction * cycle)) > 1e-9:
            raise ValueError(
                f"class fractions must be multiples of {1 / cycle} (assignment "
                f"cycles through {cycle} id slots), got {cls.fraction!r}"
            )
        cumulative += cls.fraction
        thresholds.append((round(cumulative * cycle), cls.cap_kbps))
    caps: Dict[NodeId, Optional[float]] = {}
    for node_id in receiver_ids:
        slot = node_id % cycle
        # Fractions sum to 1, so the last threshold is exactly ``cycle`` and
        # every slot in 0..cycle-1 matches some class.
        for limit, cap in thresholds:
            if slot < limit:
                caps[node_id] = cap
                break
    return caps


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, declarative experiment shape.

    Attributes
    ----------
    name / description:
        Identification; the registry keys scenarios by ``name``.
    num_nodes / seed:
        System size (including the source) and root seed.
    protocol:
        Dissemination protocol name (see :mod:`repro.protocols.registry`).
    fanout / refresh_every / feed_me_every / retransmit_timeout /
    max_request_attempts / source_fanout:
        Protocol knobs, compiled into a :class:`GossipConfig` (the gossip
        period is the constant :data:`repro.core.config.GOSSIP_PERIOD`).
    stream:
        Stream layout; defaults to the scaled-down test stream.
    upload_cap_kbps / max_backlog_seconds / latency_model / base_latency /
    random_loss:
        Network substrate knobs, compiled into a ``NetworkConfig``.
    bandwidth_classes:
        Optional heterogeneous capacity classes (fractions summing to 1);
        compiled into per-node caps.
    churn / join:
        Optional perturbations (:class:`CatastrophicChurn`,
        :class:`FlashCrowdJoin`).
    failure_detection_delay / extra_time:
        Session-level knobs, forwarded verbatim (the source is always
        uncapped, see :class:`~repro.core.session.SessionConfig`).
    telemetry:
        Optional :class:`~repro.telemetry.config.TelemetryConfig`, forwarded
        verbatim; ``None`` (the default) builds no telemetry objects.
    shards:
        Optional shard count, forwarded verbatim to
        :attr:`~repro.core.session.SessionConfig.shards`.  ``None`` (the
        default) runs the classic scalar session; ``k >= 1`` runs the
        scenario through the conservative time-window runner
        (:mod:`repro.shard`) with placement-invariant per-sender RNG.
    """

    name: str
    description: str = ""
    num_nodes: int = 40
    seed: int = 1
    protocol: str = "three-phase"
    fanout: int = 7
    refresh_every: float = 1
    feed_me_every: float = INFINITE
    retransmit_timeout: float = 2.0
    max_request_attempts: int = 2
    source_fanout: int = 7
    stream: StreamConfig = field(default_factory=StreamConfig.scaled_down)
    upload_cap_kbps: Optional[float] = 700.0
    max_backlog_seconds: float = 10.0
    latency_model: str = "per-node"
    base_latency: float = 0.05
    random_loss: float = 0.01
    bandwidth_classes: Tuple[BandwidthClass, ...] = ()
    churn: Optional[CatastrophicChurn] = None
    join: Optional[FlashCrowdJoin] = None
    failure_detection_delay: float = 5.0
    extra_time: float = 30.0
    telemetry: Optional[TelemetryConfig] = None
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.num_nodes < 2:
            raise ValueError(f"a scenario needs at least 2 nodes, got {self.num_nodes!r}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1 (or None), got {self.shards!r}")
        # A perturbation scheduled past the stream's last packet is inert:
        # churn no longer disturbs dissemination and joiners receive nothing
        # (gossip is not a catch-up protocol).  This bites in practice when a
        # caller overrides the stream of a registered scenario without also
        # moving the churn/join time, so fail fast at spec level
        # (``dataclasses.replace`` re-runs this on every overridden spec).
        for label, schedule in (("churn", self.churn), ("join", self.join)):
            if schedule is not None and schedule.time >= self.stream.end_time:
                raise ValueError(
                    f"{label} schedule starts at t={schedule.time:.2f}s but the stream's "
                    f"last packet is published at t={self.stream.end_time:.2f}s, "
                    f"making the perturbation inert; override the {label} time "
                    f"together with the stream"
                )

    # ------------------------------------------------------------------
    # Compilation helpers
    # ------------------------------------------------------------------
    def gossip_config(self) -> GossipConfig:
        """The protocol knobs as a :class:`GossipConfig`."""
        return GossipConfig(
            fanout=self.fanout,
            refresh_every=self.refresh_every,
            feed_me_every=self.feed_me_every,
            retransmit_timeout=self.retransmit_timeout,
            max_request_attempts=self.max_request_attempts,
            source_fanout=self.source_fanout,
        )

    def per_node_caps(self) -> Dict[NodeId, Optional[float]]:
        """Per-node upload caps implied by the bandwidth classes (or empty)."""
        if not self.bandwidth_classes:
            return {}
        receivers = tuple(range(1, self.num_nodes))
        return assign_bandwidth_classes(self.bandwidth_classes, receivers)

    def session_config(self) -> SessionConfig:
        """The spec compiled into the :class:`SessionConfig` that runs it."""
        return SessionConfig(
            num_nodes=self.num_nodes,
            seed=self.seed,
            gossip=self.gossip_config(),
            stream=self.stream,
            network=NetworkConfig(
                upload_cap_kbps=self.upload_cap_kbps,
                max_backlog_seconds=self.max_backlog_seconds,
                latency_model=self.latency_model,
                base_latency=self.base_latency,
                random_loss=self.random_loss,
                per_node_caps_kbps=self.per_node_caps(),
            ),
            protocol=self.protocol,
            churn=self.churn,
            join=self.join,
            failure_detection_delay=self.failure_detection_delay,
            extra_time=self.extra_time,
            telemetry=self.telemetry,
            shards=self.shards,
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        parts = [
            f"{self.num_nodes} nodes",
            f"protocol={self.protocol}",
            f"fanout={self.fanout}",
        ]
        if self.bandwidth_classes:
            classes = "/".join(
                f"{cls.fraction:.0%}@{'inf' if cls.cap_kbps is None else int(cls.cap_kbps)}"
                for cls in self.bandwidth_classes
            )
            parts.append(f"caps={classes}")
        elif self.upload_cap_kbps is not None:
            parts.append(f"cap={self.upload_cap_kbps:.0f}kbps")
        else:
            parts.append("uncapped")
        if self.random_loss > 0.0:
            parts.append(f"loss={self.random_loss:.0%}")
        if self.churn is not None:
            parts.append(self.churn.describe())
        if self.join is not None:
            parts.append(self.join.describe())
        return f"{self.name}: " + ", ".join(parts)


def build_session(spec: ScenarioSpec) -> StreamingSession:
    """Spec → unbuilt session, for callers that attach observers before it runs."""
    return StreamingSession(spec.session_config())


def run_spec(spec: ScenarioSpec) -> SessionResult:
    """Spec → completed result, on the sharded runner when ``spec.shards`` is set."""
    return run_session(spec.session_config())
