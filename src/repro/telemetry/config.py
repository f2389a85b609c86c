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
from typing import Any, Dict, Optional, Tuple


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
        Write a ``repro.telemetry/1`` JSONL trace to this path (``None``
        disables tracing).  The writer streams with bounded memory.
    sample_every:
        Keep every N-th ``dispatch`` event in the trace (the engine edge
        fires once per simulation event and dominates trace volume; all
        other kinds are always recorded when selected, because datagram
        flow ids must stay complete).
    include_kinds / exclude_kinds:
        Per-kind trace filters over
        :data:`~repro.telemetry.schema.EVENT_KINDS`.  ``include_kinds=None``
        selects every kind; ``exclude_kinds`` is subtracted afterwards.
    flush_every:
        Buffered trace lines between writes to disk.
    """

    metrics: bool = True
    trace_path: Optional[str] = None
    sample_every: int = 1
    include_kinds: Optional[Tuple[str, ...]] = None
    exclude_kinds: Tuple[str, ...] = ()
    flush_every: int = 1000

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every!r}")
        if self.flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {self.flush_every!r}")
        from repro.telemetry.schema import EVENT_KINDS

        selected = () if self.include_kinds is None else self.include_kinds
        unknown = (set(selected) | set(self.exclude_kinds)) - set(EVENT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown trace event kinds {sorted(unknown)}; known: {list(EVENT_KINDS)}"
            )

    @property
    def armed(self) -> bool:
        """Whether this config makes the session build any telemetry at all."""
        return self.metrics or self.trace_path is not None

    # ------------------------------------------------------------------
    # JSON round-trip (repro bundles persist specs with telemetry configs)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        """A plain-JSON dictionary capturing every field."""
        return {
            "metrics": self.metrics,
            "trace_path": self.trace_path,
            "sample_every": self.sample_every,
            "include_kinds": (
                None if self.include_kinds is None else list(self.include_kinds)
            ),
            "exclude_kinds": list(self.exclude_kinds),
            "flush_every": self.flush_every,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "TelemetryConfig":
        """Rebuild a config from :meth:`to_json_dict` output."""
        include = data.get("include_kinds")
        return cls(
            metrics=bool(data.get("metrics", True)),
            trace_path=data.get("trace_path"),
            sample_every=int(data.get("sample_every", 1)),
            include_kinds=None if include is None else tuple(str(k) for k in include),
            exclude_kinds=tuple(str(k) for k in data.get("exclude_kinds", ())),
            flush_every=int(data.get("flush_every", 1000)),
        )


__all__ = ["TelemetryConfig"]
