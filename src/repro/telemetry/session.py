"""Per-session telemetry lifecycle: attach, observe, finalize.

:class:`SessionTelemetry` is what a :class:`~repro.core.session.StreamingSession`
builds when its config carries an armed
:class:`~repro.telemetry.config.TelemetryConfig`.  It owns the session's
:class:`~repro.telemetry.metrics.MetricsRegistry` and (optionally) the
trace writer + recorder, attaches the observers to every substrate, and at
the end of the run folds everything into a small, picklable
:class:`TelemetrySnapshot` stored on the session result.

Collector wiring (snapshot-time, zero hot-path cost):

* ``engine.events_dispatched`` / ``engine.pending_events`` — read from the
  simulator;
* ``net.*`` — :meth:`repro.network.stats.TrafficStats.metrics_view`, the
  unified Figure-4 accounting cells;
* ``proto.*`` — the per-node :class:`~repro.core.node.NodeStats` counters,
  summed (``proto.requests_received``, ``proto.serves_sent``, …);
* ``membership.members`` / ``membership.alive`` — directory census.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import MetricsObserver, TraceRecorder
from repro.telemetry.schema import TraceWriter
from repro.validation.observers import observe_network_and_nodes


@dataclass
class TelemetrySnapshot:
    """What one traced/metered session left behind (small and picklable)."""

    metrics: Dict[str, float] = field(default_factory=dict)
    trace_path: Optional[str] = None
    trace_events: int = 0
    trace_events_by_kind: Dict[str, int] = field(default_factory=dict)


class SessionTelemetry:
    """Builds and owns the telemetry objects of one streaming session."""

    def __init__(self, config: TelemetryConfig) -> None:
        self.config = config
        self.registry: Optional[MetricsRegistry] = None
        self.writer: Optional[TraceWriter] = None
        self._finalized: Optional[TelemetrySnapshot] = None

    def attach(self, session) -> "SessionTelemetry":
        """Wire observers and collectors into a **built** session."""
        if session.simulator is None or session.network is None:
            raise ValueError(
                "session is not built yet: telemetry attaches to live substrates"
            )
        config = self.config
        if config.metrics:
            registry = MetricsRegistry()
            self.registry = registry
            self._wire_collectors(session, registry)
            # It has no dispatch handler: off the edge that fires once per event.
            metrics = MetricsObserver(registry, schedule=session.schedule)
            observe_network_and_nodes(session, metrics)
        if config.trace_path is not None:
            self.writer = TraceWriter(config.trace_path, meta=session_meta(session))
            TraceRecorder(self.writer).attach(session)
        return self

    def _wire_collectors(self, session, registry: MetricsRegistry) -> None:
        simulator = session.simulator
        directory = session.directory
        nodes = session.nodes

        def engine_metrics() -> Dict[str, float]:
            return {
                "engine.events_dispatched": float(simulator.events_processed),
                "engine.pending_events": float(simulator.pending_events),
            }

        def proto_metrics() -> Dict[str, float]:
            totals: Dict[str, int] = {}
            for node in nodes.values():
                for key, value in node.stats.as_dict().items():
                    totals[key] = totals.get(key, 0) + value
            return {f"proto.{key}": float(value) for key, value in totals.items()}

        def membership_metrics() -> Dict[str, float]:
            return {
                "membership.members": float(len(directory)),
                "membership.alive": float(len(directory.alive_members())),
            }

        registry.register_collector(engine_metrics)
        registry.register_collector(proto_metrics)
        registry.register_collector(membership_metrics)
        session.network.stats.bind_registry(registry)

    def finalize(self) -> TelemetrySnapshot:
        """Close the trace (if any) and snapshot the registry (idempotent)."""
        if self._finalized is not None:
            return self._finalized
        snapshot = TelemetrySnapshot()
        if self.writer is not None:
            self.writer.close()
            snapshot.trace_path = str(self.writer.path)
            snapshot.trace_events = self.writer.events_written
            snapshot.trace_events_by_kind = self.writer.counts_by_kind
        if self.registry is not None:
            snapshot.metrics = self.registry.snapshot()
        self._finalized = snapshot
        return snapshot


def session_meta(session) -> Dict[str, object]:
    """The trace-header metadata of one built session.

    Everything here either identifies the run (seed, size, protocol,
    dispatch backend, code fingerprint) or describes the stream geometry
    the exporters need (window layout for deadline markers).  The
    ``created_unix`` wall-clock stamp is the one deliberately
    non-deterministic field — determinism of traces is defined *modulo the
    header*.
    """
    from repro.sweep.store import code_fingerprint

    config = session.config
    stream = config.stream
    meta: Dict[str, object] = {
        "created_unix": _time.time(),
        "num_nodes": config.num_nodes,
        "seed": config.seed,
        "protocol": config.protocol,
        "backend": session.simulator.backend_name,
        "code_fingerprint": code_fingerprint(),
        "stream": {
            "window_duration": stream.window_duration,
            "num_windows": stream.num_windows,
            "packets_per_window": stream.packets_per_window,
            "end_time": stream.end_time,
        },
    }
    # Sharded runs trace one file per shard; the header says which fragment
    # of the fleet this is so tooling can line the tracks up side by side.
    shard_id = getattr(session, "shard_id", None)
    if shard_id is not None:
        meta["shard"] = {"id": shard_id, "num_shards": session.num_shards}
    return meta


__all__ = ["SessionTelemetry", "TelemetrySnapshot", "session_meta"]
