"""Declarative sweep specifications.

A *sweep* is the unit of work behind every figure of the paper: a
cross-product over protocol knobs (fanout, upload cap, X, Y, churn fraction,
protocol), replicated over seeds.  This module turns such grids into concrete
:class:`SweepTask` lists:

* :class:`SweepGrid` — the axes of the cross-product; every axis defaults to
  a single "use the scale's default" value, so a grid only names what it
  varies;
* :class:`SweepSpec` — a named grid bound to a scale, plus seed replicas;
* :class:`SweepTask` — one executable cell × replica: an
  :class:`~repro.experiments.runner.ExperimentPoint` plus an optional
  *config patch* (dotted-path overrides applied to the built
  :class:`~repro.core.session.SessionConfig`, which is how the ablations
  reach knobs the point does not model, e.g. ``gossip.source_fanout``).

Every task has a **stable cell id**: a canonical string over all sweep axes
*except* the seed, so replicas of the same cell share an id.  Cell ids key
the :class:`~repro.sweep.store.ResultStore`, which is what makes interrupted
sweeps resumable across processes.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.experiments.runner import ExperimentPoint, format_rate
from repro.membership.partners import INFINITE

ConfigPatch = Tuple[Tuple[str, object], ...]
"""Dotted-path config overrides, e.g. ``(("gossip.source_fanout", 3),)``."""


def _canonical(value: object) -> str:
    """Canonical, version-stable rendering of one cell-id component."""
    if value is None:
        return "default"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float) and value == INFINITE:
        return "inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class SweepTask:
    """One executable cell × seed replica of a sweep."""

    point: ExperimentPoint
    patch: ConfigPatch = ()

    @property
    def cell_id(self) -> str:
        """Stable id of the task's cell (identical across seed replicas).

        Every axis is always present (``default`` when unset) so ids stay
        stable if a knob's default ever changes.
        """
        point = self.point
        parts = [
            f"scale={point.scale_name}",
            f"protocol={point.protocol}",
            f"fanout={_canonical(point.fanout)}",
            f"cap={_canonical(point.cap_kbps)}",
            f"X={format_rate(point.refresh_every)}",
            f"Y={format_rate(point.feed_me_every)}",
            f"churn={_canonical(point.churn_fraction)}",
        ]
        if self.patch:
            overrides = ",".join(
                f"{path}={_canonical(value)}" for path, value in sorted(self.patch)
            )
            parts.append(f"patch[{overrides}]")
        return "|".join(parts)


@dataclass(frozen=True)
class SweepGrid:
    """The axes of a sweep's cross-product.

    Each axis is a tuple of values; axes left at their one-element defaults
    do not multiply the grid.  ``None`` in ``fanouts`` / ``caps_kbps`` means
    "the scale's default".
    """

    fanouts: Tuple[Optional[int], ...] = (None,)
    caps_kbps: Tuple[Optional[float], ...] = (None,)
    refresh_values: Tuple[float, ...] = (1,)
    feedme_values: Tuple[float, ...] = (INFINITE,)
    churn_fractions: Tuple[float, ...] = (0.0,)
    protocols: Tuple[str, ...] = ("three-phase",)

    def __post_init__(self) -> None:
        for name in (
            "fanouts",
            "caps_kbps",
            "refresh_values",
            "feedme_values",
            "churn_fractions",
            "protocols",
        ):
            if not getattr(self, name):
                raise ValueError(f"grid axis {name!r} must have at least one value")

    def __len__(self) -> int:
        return (
            len(self.fanouts)
            * len(self.caps_kbps)
            * len(self.refresh_values)
            * len(self.feedme_values)
            * len(self.churn_fractions)
            * len(self.protocols)
        )

    def cells(self, scale_name: str) -> Iterator[ExperimentPoint]:
        """All cells of the grid as experiment points, in deterministic order."""
        for protocol, fanout, cap, refresh, feedme, churn in itertools.product(
            self.protocols,
            self.fanouts,
            self.caps_kbps,
            self.refresh_values,
            self.feedme_values,
            self.churn_fractions,
        ):
            yield ExperimentPoint(
                scale_name=scale_name,
                fanout=fanout,
                cap_kbps=cap,
                refresh_every=refresh,
                feed_me_every=feedme,
                churn_fraction=churn,
                protocol=protocol,
            )


@dataclass(frozen=True)
class SweepSpec:
    """A named, declarative sweep: a grid at a scale, replicated over seeds.

    ``replicas`` seed copies of every cell are expanded, with seed offsets
    ``base_seed_offset .. base_seed_offset + replicas - 1`` (the session seed
    is the scale's base seed plus the offset).
    """

    name: str
    scale_name: str
    grid: SweepGrid = field(default_factory=SweepGrid)
    replicas: int = 1
    base_seed_offset: int = 0
    patch: ConfigPatch = ()

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas!r}")

    def __len__(self) -> int:
        return len(self.grid) * self.replicas

    def expand(self) -> List[SweepTask]:
        """All tasks of the sweep: every grid cell × every seed replica."""
        tasks: List[SweepTask] = []
        for point in self.grid.cells(self.scale_name):
            for replica in range(self.replicas):
                replicated = dataclasses.replace(
                    point, seed_offset=self.base_seed_offset + replica
                )
                tasks.append(SweepTask(point=replicated, patch=self.patch))
        return tasks


def dedupe_tasks(tasks: List[SweepTask]) -> List[SweepTask]:
    """Drop duplicate tasks, preserving first-seen order."""
    seen = set()
    unique: List[SweepTask] = []
    for task in tasks:
        if task in seen:
            continue
        seen.add(task)
        unique.append(task)
    return unique
