"""Running individual experiment points.

An :class:`ExperimentPoint` names one cell of a parameter sweep;
:func:`run_point` executes it from scratch.

The figure generators do not cache full results: they consume compact
:class:`~repro.sweep.PointSummary` records through
:class:`repro.sweep.SummaryCache`, which the :mod:`repro.sweep` subsystem
can fill from a multiprocess executor and persist in a resumable
:class:`~repro.sweep.ResultStore`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.session import SessionConfig, SessionResult, run_session
from repro.membership.partners import INFINITE

from repro.experiments.scale import ExperimentScale


def format_rate(value: float) -> str:
    """Render a rate knob (X / Y, in gossip periods) honestly.

    ``INFINITE`` renders as ``"inf"``, whole numbers without a decimal point,
    and fractional rates (X = 0.5 means "refresh twice per period") keep
    their fraction instead of being truncated to ``0``.
    """
    if value == INFINITE:
        return "inf"
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return f"{number:g}"


@dataclass(frozen=True)
class ExperimentPoint:
    """One point of a parameter sweep, at a given scale.

    The fields cover every knob the paper's figures vary; unspecified knobs
    take the scale's defaults (700 kbps cap, fanout 7, X = 1, Y = ∞, no
    churn).
    """

    scale_name: str
    fanout: Optional[int] = None
    cap_kbps: Optional[float] = None
    refresh_every: float = 1
    feed_me_every: float = INFINITE
    churn_fraction: float = 0.0
    seed_offset: int = 0
    protocol: str = "three-phase"

    def describe(self) -> str:
        """Short human-readable description of this point."""
        parts = [f"scale={self.scale_name}"]
        if self.protocol != "three-phase":
            parts.append(f"protocol={self.protocol}")
        if self.fanout is not None:
            parts.append(f"fanout={self.fanout}")
        if self.cap_kbps is not None:
            parts.append(f"cap={self.cap_kbps:.0f}kbps")
        parts.append(f"X={format_rate(self.refresh_every)}")
        if self.feed_me_every != INFINITE:
            parts.append(f"Y={format_rate(self.feed_me_every)}")
        if self.churn_fraction > 0.0:
            parts.append(f"churn={self.churn_fraction:.0%}")
        if self.seed_offset:
            parts.append(f"seed+{self.seed_offset}")
        return ", ".join(parts)


def point_config(scale: ExperimentScale, point: ExperimentPoint) -> SessionConfig:
    """The session configuration of ``point``, which must name ``scale``."""
    if point.scale_name != scale.name:
        raise ValueError(
            f"point was built for scale {point.scale_name!r}, not {scale.name!r}"
        )
    return scale.session_config(
        fanout=point.fanout,
        cap_kbps=point.cap_kbps,
        refresh_every=point.refresh_every,
        feed_me_every=point.feed_me_every,
        churn_fraction=point.churn_fraction,
        seed_offset=point.seed_offset,
        protocol=point.protocol,
    )


def run_point(scale: ExperimentScale, point: ExperimentPoint) -> SessionResult:
    """Run one experiment point from scratch (no caching)."""
    return run_session(point_config(scale, point))
