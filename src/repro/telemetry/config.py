"""Telemetry configuration: what a session records, if anything.

A :class:`TelemetryConfig` travels inside
:class:`~repro.core.session.SessionConfig` (and, one level up, inside
:class:`~repro.scenarios.spec.ScenarioSpec`).  The default ``None`` at both
carriers means *no telemetry objects exist at all*: the session builds the
exact same object graph as before this subsystem existed, so an un-armed
run pays nothing — the same host-keeps-``None`` contract as the
observer edges themselves (:mod:`repro.validation.observers`).

The config is a frozen dataclass so scenario specs that embed it stay
hashable and ``dataclasses.replace``-able, and it round-trips through plain
JSON for repro bundles (:mod:`repro.validation.bundle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class TelemetryConfig:
    """What one session's telemetry layer records.

    Attributes
    ----------
    metrics:
        Build a :class:`~repro.telemetry.metrics.MetricsRegistry` for the
        session and snapshot it into the result
        (:attr:`~repro.core.session.SessionResult.telemetry`).
    trace_path:
        Write a ``repro.telemetry/1`` JSONL trace of every event kind and
        every dispatch to this path (``None`` disables tracing).  The
        writer streams with bounded memory.
    """

    metrics: bool = True
    trace_path: Optional[str] = None

    @property
    def armed(self) -> bool:
        """Whether this config makes the session build any telemetry at all."""
        return self.metrics or self.trace_path is not None

    # ------------------------------------------------------------------
    # JSON round-trip (repro bundles persist specs with telemetry configs)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """A plain-JSON dictionary capturing every field."""
        return {"metrics": self.metrics, "trace_path": self.trace_path}

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "TelemetryConfig":
        """Rebuild a config from :meth:`to_json_dict` output (other keys are ignored)."""
        return cls(metrics=bool(data.get("metrics", True)), trace_path=data.get("trace_path"))


__all__ = ["TelemetryConfig"]
