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
  protocol-phase edges, every kind and every dispatch, with bounded memory;
  the session keeps records and a child process renders the lines
  (:mod:`repro.telemetry.render`);
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

Every name here resolves on first access (:mod:`repro._lazy`): importing
:mod:`repro.telemetry.config`, which :mod:`repro.core.session` does for its
:class:`TelemetryConfig` field, loads neither the trace readers nor the
session-facing classes, whose eager import would close a cycle back
through :mod:`repro.core.session`.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.telemetry.config": ("TelemetryConfig",),
    "repro.telemetry.diff": ("TraceDiff", "diff_traces"),
    "repro.telemetry.export": ("export_perfetto", "perfetto_events"),
    "repro.telemetry.metrics": (
        "Collector",
        "Counter",
        "Histogram",
        "MetricsError",
        "MetricsRegistry",
        "render_metric_name",
    ),
    "repro.telemetry.recorder": ("MetricsObserver", "TraceRecorder", "callback_name"),
    "repro.telemetry.schema": (
        "EVENT_KINDS",
        "TRACE_SCHEMA",
        "TraceError",
        "TraceHeader",
        "TraceWriter",
        "iter_events",
        "read_header",
        "validate_trace",
    ),
    "repro.telemetry.session": ("SessionTelemetry", "TelemetrySnapshot"),
    "repro.telemetry.summary": ("TraceSummary", "summarize_trace"),
})

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
