"""The metrics registry: counters and fixed-bucket histograms.

Metric names follow a Prometheus-flavoured convention: a dotted base name
plus optional ``{label=value}`` labels, rendered with sorted label keys so
the same (name, labels) pair always produces the same string —
``net.bytes_sent{kind=serve}``, ``proto.requests_received``,
``engine.events_dispatched``.

Two update paths feed a registry, chosen by cost:

* **handles** — :meth:`MetricsRegistry.counter` / :meth:`histogram`
  return small mutable objects whose ``inc`` / ``observe`` are a couple of
  attribute writes.  Observers hold handles and
  update them per event; the simulation hot paths never see them (the same
  host-keeps-``None`` contract as the observer edges, so a disabled
  registry costs literally nothing).
* **collectors** — :meth:`MetricsRegistry.register_collector` accepts a
  callable returning ``{rendered name: value}``, evaluated only at
  :meth:`snapshot` time.  Quantities the simulation already counts
  (``Simulator.events_processed``, the per-node protocol counters, the
  Figure-4 traffic cells of :mod:`repro.network.stats`) are exported
  through collectors, keeping one code path for accounting and telemetry.

Histograms use **fixed, upper-inclusive** bucket bounds (bucket *i* counts
``bounds[i-1] < v <= bounds[i]``; one implicit overflow bucket catches
everything above the last bound).  Snapshots expand them Prometheus-style
into cumulative ``{le=...}`` series plus ``_count`` / ``_sum``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


class MetricsError(ValueError):
    """A metric was declared or used inconsistently."""


def render_metric_name(name: str, labels: Optional[Mapping[str, object]] = None) -> str:
    """The canonical rendered form: ``name{k1=v1,k2=v2}`` with sorted keys."""
    if not name:
        raise MetricsError("a metric needs a non-empty name")
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def _render_bound(bound: float) -> str:
    """A bucket bound as it appears in the ``le`` label (``+Inf`` for the
    overflow bucket, integers without a trailing ``.0``)."""
    if bound == float("inf"):
        return "+Inf"
    return f"{bound:g}"


class Counter:
    """A monotonically increasing value behind a cheap handle."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self) -> None:
        """Add one."""
        self.value += 1.0


class Histogram:
    """Fixed-bucket histogram with upper-inclusive bounds.

    ``bounds`` must be strictly increasing and finite; an implicit overflow
    bucket (``le=+Inf``) is always appended.  ``observe`` costs one bisect
    plus three attribute updates.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise MetricsError(f"histogram {name!r} needs at least one bucket bound")
        for left, right in zip(bounds, bounds[1:]):
            if not left < right:
                raise MetricsError(
                    f"histogram {name!r} bounds must be strictly increasing, got {bounds}"
                )
        if bounds[-1] == float("inf"):
            raise MetricsError(
                f"histogram {name!r} bounds must be finite (the +Inf overflow "
                "bucket is implicit)"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, ending at ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self.total))
        return out


Collector = Callable[[], Mapping[str, float]]
"""A snapshot-time exporter returning ``{rendered metric name: value}``."""


class MetricsRegistry:
    """Owns every metric of one session and produces flat snapshots.

    Handles are get-or-create: asking twice for the same (name, labels)
    returns the same object, so several observers may share a counter.
    Requesting an existing name as a different metric type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Collector] = []

    # ------------------------------------------------------------------
    # Handle factories
    # ------------------------------------------------------------------
    def _get_or_create(self, rendered: str, factory, kind: type):
        existing = self._metrics.get(rendered)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"metric {rendered!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = factory()
        self._metrics[rendered] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter handle."""
        rendered = render_metric_name(name, labels)
        return self._get_or_create(rendered, lambda: Counter(rendered), Counter)

    def histogram(self, name: str, bounds: Sequence[float], **labels) -> Histogram:
        """Get or create a fixed-bucket histogram handle.

        Re-requesting an existing histogram with different bounds raises —
        silently merging incompatible bucket layouts would corrupt it.
        """
        rendered = render_metric_name(name, labels)
        histogram = self._get_or_create(
            rendered, lambda: Histogram(rendered, bounds), Histogram
        )
        if histogram.bounds != tuple(float(bound) for bound in bounds):
            raise MetricsError(
                f"histogram {rendered!r} already registered with bounds "
                f"{histogram.bounds}, requested {tuple(bounds)}"
            )
        return histogram

    # ------------------------------------------------------------------
    # Collectors
    # ------------------------------------------------------------------
    def register_collector(self, collector: Collector) -> None:
        """Add a snapshot-time exporter (evaluated in registration order)."""
        self._collectors.append(collector)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Every metric flattened to ``{rendered name: float}``, sorted.

        Histograms expand into cumulative ``{le=...}`` series plus
        ``_count`` and ``_sum``.  Collector outputs are merged in; a
        collector colliding with a handle-backed metric (or another
        collector) raises, because the two would silently shadow each
        other.
        """
        out: Dict[str, float] = {}
        for rendered, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out[rendered] = metric.value
            else:
                assert isinstance(metric, Histogram)
                base, labels = _split_rendered(rendered)
                for bound, cumulative_count in metric.cumulative():
                    le_labels = dict(labels)
                    le_labels["le"] = _render_bound(bound)
                    out[render_metric_name(base, le_labels)] = float(cumulative_count)
                out[render_metric_name(base + "_count", labels)] = float(metric.total)
                out[render_metric_name(base + "_sum", labels)] = metric.sum
        for collector in self._collectors:
            for name, value in collector().items():
                if name in out:
                    raise MetricsError(
                        f"collector metric {name!r} collides with an existing metric"
                    )
                out[name] = float(value)
        return dict(sorted(out.items()))


def _split_rendered(rendered: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`render_metric_name` (labels back into a dict)."""
    if not rendered.endswith("}"):
        return rendered, {}
    base, _, inner = rendered[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in inner.split(","):
        key, _, value = part.partition("=")
        labels[key] = value
    return base, labels


__all__ = [
    "Collector",
    "Counter",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "render_metric_name",
]
