"""``repro.telemetry`` — structured tracing + metrics over the observer edges.

The subsystem has four faces:

* **metrics** (:mod:`repro.telemetry.metrics`) — a registry of counters and
  fixed-bucket histograms with stable rendered names
  (``net.bytes_sent{kind=serve}``, ``proto.requests_received``,
  ``engine.events_dispatched``), fed by cheap observer-held handles and by
  snapshot-time collectors over the simulation's existing accounting;
* **tracing** (:mod:`repro.telemetry.schema` /
  :mod:`repro.telemetry.recorder`) — a versioned (``repro.telemetry/1``)
  streaming JSONL trace of the dispatch / datagram-fate / delivery /
  protocol-phase edges, with bounded memory, sampling and per-kind filters;
* **exporters** (:mod:`repro.telemetry.export` /
  :mod:`repro.telemetry.summary`) — Chrome/Perfetto ``trace_event`` JSON
  (per-node tracks, datagram flow arrows, window-deadline markers) and a
  per-session summary table;
* **CLI** (``python -m repro.telemetry summarize|export|diff``) — reads
  traces and diffs them by first divergence; ``python -m repro run
  --trace PATH`` records one on any substrate.

Arm it by putting a :class:`TelemetryConfig` on a
:class:`~repro.core.session.SessionConfig` (or a scenario spec)::

    from repro.scenarios import build_scenario, run_spec
    from repro.telemetry import TelemetryConfig

    spec = build_scenario(
        "homogeneous", telemetry=TelemetryConfig(trace_path="session.trace.jsonl"))
    result = run_spec(spec)
    print(result.telemetry.metrics["proto.requests_received"])

Determinism contract: telemetry observes and never mutates, so an armed
session is byte-identical to a disarmed one, and two equal configs+seeds
produce identical traces modulo the header (both pinned in
``tests/telemetry``).

The session-facing classes (:class:`SessionTelemetry`,
:class:`TelemetrySnapshot`, :class:`TraceRecorder`, :class:`MetricsObserver`)
are re-exported lazily: eagerly importing them here would close an import
cycle back through :mod:`repro.core.session`, which carries the
:class:`TelemetryConfig` field.
"""

from __future__ import annotations

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.diff import TraceDiff, diff_traces
from repro.telemetry.export import export_perfetto, perfetto_events
from repro.telemetry.metrics import (
    Collector,
    Counter,
    Histogram,
    MetricsError,
    MetricsRegistry,
    render_metric_name,
)
from repro.telemetry.schema import (
    EVENT_KINDS,
    TRACE_SCHEMA,
    TraceError,
    TraceHeader,
    TraceWriter,
    iter_events,
    read_header,
    validate_trace,
)
from repro.telemetry.summary import TraceSummary, summarize_trace

_LAZY = {
    "MetricsObserver": "repro.telemetry.recorder",
    "SessionTelemetry": "repro.telemetry.session",
    "TelemetrySnapshot": "repro.telemetry.session",
    "TraceRecorder": "repro.telemetry.recorder",
    "callback_name": "repro.telemetry.recorder",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.telemetry' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


__all__ = [
    "Collector",
    "Counter",
    "EVENT_KINDS",
    "Histogram",
    "MetricsError",
    "MetricsObserver",
    "MetricsRegistry",
    "SessionTelemetry",
    "TelemetryConfig",
    "TelemetrySnapshot",
    "TRACE_SCHEMA",
    "TraceDiff",
    "TraceError",
    "TraceHeader",
    "TraceRecorder",
    "TraceSummary",
    "TraceWriter",
    "callback_name",
    "diff_traces",
    "export_perfetto",
    "iter_events",
    "perfetto_events",
    "read_header",
    "render_metric_name",
    "summarize_trace",
    "validate_trace",
]
