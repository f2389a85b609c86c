"""Benchmark specifications and the registry that discovers them.

A :class:`Benchmark` declares everything the unified runner needs to execute
and *gate* it: a name, tags for ``--filter`` selection and — centrally — the
list of :class:`Metric` specs describing what the runner function reports and
how each number is compared against a recorded baseline.  The runner calls a
benchmark once; one that times something takes its own best-of-N.

Only numbers that repeat are recorded, so every metric gates:

* ``identity`` metrics are **deterministic** quantities (events dispatched,
  figure-table checksums, delivery ratios of a seeded simulation).  They do
  not depend on the host at all and must match the baseline exactly — *any*
  drift means the simulation's behaviour changed and the baseline must be
  consciously re-recorded.
* ``counter`` metrics are deterministic too, but carry a direction (a
  figure's headline viewing percentage, frames per event): an exact
  comparison still applies, yet a change in the good direction reads as an
  improvement rather than a regression.
* ``ratio`` metrics are **in-process comparisons** — two timings of the same
  work on the same data in the same process (a fast path against its pinned
  reference, an armed session against a plain one).  The quotient is far
  more stable than either wall-clock number, so ratios are gated with a
  relative band.

Wall-clock rates are not recorded here: ``benchmarks/e2e/`` owns them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default relative tolerance band per metric kind.
DEFAULT_TOLERANCES: Mapping[str, float] = {
    "identity": 0.0,
    "counter": 0.0,
    "ratio": 0.5,
}

METRIC_KINDS = tuple(DEFAULT_TOLERANCES)

#: Kinds whose values are deterministic and therefore compared exactly
#: (JSON round-trips Python floats losslessly, so exact equality is sound).
EXACT_KINDS = ("identity", "counter")


@dataclass(frozen=True)
class Metric:
    """One number a benchmark reports, plus its comparison policy.

    Attributes
    ----------
    name:
        Key in the runner's returned metrics dict.
    kind:
        ``identity`` / ``counter`` / ``ratio`` (see module docstring).
    higher_is_better:
        Direction that orients the regression band.
    tolerance:
        Relative band overriding the kind default.
    unit:
        Display hint only.
    """

    name: str
    kind: str = "identity"
    higher_is_better: bool = True
    tolerance: Optional[float] = None
    unit: str = ""

    def __post_init__(self) -> None:
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}; expected one of {METRIC_KINDS}")

    @property
    def band(self) -> float:
        """The effective relative tolerance."""
        if self.tolerance is not None:
            return self.tolerance
        return DEFAULT_TOLERANCES[self.kind]


@dataclass
class BenchContext:
    """Everything a benchmark runner receives from the harness.

    ``options`` carries ``--option key=value`` overrides from the CLI;
    ``cache`` is a summary cache shared by every benchmark of one ``run``
    invocation, so consecutive figure benchmarks reuse overlapping
    simulation points.
    """

    scale_name: str
    options: Dict[str, str] = field(default_factory=dict)
    cache: Optional[object] = None
    verbose: bool = True

    @property
    def scale(self):
        """The :class:`~repro.experiments.scale.ExperimentScale` object."""
        from repro.experiments.scale import scale_by_name

        return scale_by_name(self.scale_name)

    def option_int(self, name: str, default: Optional[int] = None) -> Optional[int]:
        """An integer override, or ``default`` when absent."""
        raw = self.options.get(name)
        return default if raw is None else int(raw)

    def summary_cache(self):
        """The shared (lazily created) cross-benchmark summary cache."""
        if self.cache is None:
            from repro.sweep.cache import SummaryCache

            self.cache = SummaryCache()
        return self.cache

    def log(self, message: str) -> None:
        """Progress print, silenced when the harness runs quietly."""
        if self.verbose:
            print(message)


@dataclass(frozen=True)
class Benchmark:
    """A registered benchmark: spec + runner.

    Attributes
    ----------
    name:
        Stable identifier; baselines live in ``BENCH_<name>.json``.
    run:
        ``run(ctx) -> {metric name: float}``, called once per run.
    metrics:
        Specs for every metric ``run`` returns (extra keys are rejected, so
        reports cannot silently drift from their declared schema).
    """

    name: str
    description: str
    run: Callable[[BenchContext], Mapping[str, float]]
    metrics: Tuple[Metric, ...]
    tags: Tuple[str, ...] = ()

    def matches(self, pattern: str) -> bool:
        """One ``--filter`` pattern against this benchmark.

        A plain pattern is a substring match against the name or any tag; a
        ``tag:<name>`` pattern matches the tag *exactly* (so ``tag:figure``
        selects the figure suite without also catching a benchmark whose
        name merely contains "figure").
        """
        needle = pattern.lower()
        if needle.startswith("tag:"):
            wanted = needle[len("tag:"):]
            return any(tag.lower() == wanted for tag in self.tags)
        if needle in self.name.lower():
            return True
        return any(needle in tag.lower() for tag in self.tags)


class BenchmarkRegistry:
    """Ordered collection of registered benchmarks.

    Registration order is execution order — figure benchmarks rely on it so
    the shared summary cache is reused (figure 2 reads figure 1's points)
    and cleared at the declared group boundaries.
    """

    def __init__(self) -> None:
        self._benchmarks: Dict[str, Benchmark] = {}

    def register(self, benchmark: Benchmark) -> Benchmark:
        """Add one benchmark; duplicate names are an error."""
        if benchmark.name in self._benchmarks:
            raise ValueError(f"benchmark {benchmark.name!r} is already registered")
        self._benchmarks[benchmark.name] = benchmark
        return benchmark

    def get(self, name: str) -> Benchmark:
        """Look one benchmark up by exact name."""
        try:
            return self._benchmarks[name]
        except KeyError:
            raise KeyError(
                f"unknown benchmark {name!r}; registered: {', '.join(self._benchmarks)}"
            ) from None

    def select(self, patterns: Sequence[str] = ()) -> List[Benchmark]:
        """Benchmarks matching *any* pattern (all of them for no patterns).

        Each pattern may itself be a comma-separated list, so
        ``--filter engine,codec`` and ``--filter engine --filter codec``
        select the same set.  ``tag:<name>`` entries match tags exactly
        (see :meth:`Benchmark.matches`).
        """
        expanded = [
            part.strip()
            for pattern in patterns
            for part in pattern.split(",")
            if part.strip()
        ]
        if not expanded:
            return list(self._benchmarks.values())
        selected = [
            benchmark
            for benchmark in self._benchmarks.values()
            if any(benchmark.matches(pattern) for pattern in expanded)
        ]
        return selected


_DEFAULT_REGISTRY = BenchmarkRegistry()


def default_registry() -> BenchmarkRegistry:
    """The process-wide registry the suite module populates on import."""
    return _DEFAULT_REGISTRY
