"""Trace diffing: the bit-reproducibility triage primitive.

Two runs of the same config and seed must produce identical traces modulo
the header — across substrates too (the plain loop, the sharded runner and
the asyncio host all feed the same observer edges).  When they do not, the *first divergent event* is the
single most useful debugging fact: everything before it is common prefix,
so the divergence's cause sits in that event's neighbourhood.

:func:`diff_traces` streams both files in lockstep (bounded memory,
headers excluded) and reports the first index where the event objects
differ, or where one trace ends early.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.telemetry.schema import iter_events, read_header


@dataclass(frozen=True)
class TraceDiff:
    """Outcome of comparing two traces event-by-event."""

    identical: bool
    events_compared: int
    index: Optional[int] = None
    left: Optional[Dict[str, Any]] = None
    right: Optional[Dict[str, Any]] = None
    reason: str = ""

    def describe(self) -> str:
        """Human-readable verdict."""
        if self.identical:
            return f"traces identical ({self.events_compared:,} events)"
        lines = [f"traces diverge at event index {self.index}: {self.reason}"]
        lines.append(f"  left:  {self.left if self.left is not None else '<ended>'}")
        lines.append(f"  right: {self.right if self.right is not None else '<ended>'}")
        return "\n".join(lines)


def diff_traces(
    left_path: Union[str, Path], right_path: Union[str, Path]
) -> TraceDiff:
    """First divergence between two traces (headers validated, not compared)."""
    read_header(left_path)
    read_header(right_path)
    left_events = iter_events(left_path)
    right_events = iter_events(right_path)
    index = 0
    sentinel = object()
    while True:
        left = next(left_events, sentinel)
        right = next(right_events, sentinel)
        if left is sentinel and right is sentinel:
            return TraceDiff(identical=True, events_compared=index)
        if left is sentinel or right is sentinel:
            which = "left" if left is sentinel else "right"
            return TraceDiff(
                identical=False,
                events_compared=index,
                index=index,
                left=None if left is sentinel else left,  # type: ignore[arg-type]
                right=None if right is sentinel else right,  # type: ignore[arg-type]
                reason=f"{which} trace ended after {index} events",
            )
        if left != right:
            differing = sorted(
                key
                for key in set(left) | set(right)  # type: ignore[arg-type]
                if left.get(key, sentinel) != right.get(key, sentinel)  # type: ignore[union-attr]
            )
            return TraceDiff(
                identical=False,
                events_compared=index,
                index=index,
                left=left,  # type: ignore[arg-type]
                right=right,  # type: ignore[arg-type]
                reason=f"fields differ: {', '.join(differing)}",
            )
        index += 1


__all__ = ["TraceDiff", "diff_traces"]
