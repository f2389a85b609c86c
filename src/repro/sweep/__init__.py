"""Parallel sweep orchestration.

The layer between scenarios and experiments: declarative parameter grids
(:class:`SweepSpec` / :class:`SweepGrid`) expand into :class:`SweepTask`
lists with stable cell ids, a serial or multiprocess executor runs them
(:class:`SerialExecutor` / :class:`ParallelExecutor`, shipping only compact
:class:`PointSummary` records between processes), a persistent JSONL
:class:`ResultStore` makes interrupted sweeps resumable, and
:func:`aggregate` reduces seed replicas to mean/stdev/CI tables.

Because every session derives its randomness from named, seed-keyed streams
(:mod:`repro.simulation.rng`), a parallel sweep is bit-identical to the
serial one for the same seeds.

Typical use::

    from repro.sweep import SweepSpec, SweepGrid, run_sweep, make_executor

    spec = SweepSpec(
        name="fanout-sweep",
        scale_name="smoke",
        grid=SweepGrid(fanouts=(4, 7, 10, 15)),
        replicas=3,
    )
    outcome = run_sweep(scale, spec.expand(), executor=make_executor(jobs=4))
    print(aggregate_table(aggregate(outcome.results)))
"""

from repro.sweep.aggregate import (
    CellAggregate,
    Stat,
    aggregate,
    aggregate_table,
    stat_of,
    t_quantile_975,
)
from repro.sweep.cache import RecordingCache, SummaryCache, shared_summary_cache
from repro.sweep.executor import (
    ParallelExecutor,
    SerialExecutor,
    SweepOutcome,
    apply_patch,
    compute_summary,
    make_executor,
    run_sweep,
    run_task,
)
from repro.sweep.spec import ConfigPatch, SweepGrid, SweepSpec, SweepTask, dedupe_tasks
from repro.sweep.store import (
    ResultStore,
    code_fingerprint,
    run_fingerprint,
    scale_fingerprint,
)
from repro.sweep.summary import MetricsRequest, PointSummary, summarize

__all__ = [
    "CellAggregate",
    "ConfigPatch",
    "MetricsRequest",
    "ParallelExecutor",
    "PointSummary",
    "RecordingCache",
    "ResultStore",
    "SerialExecutor",
    "Stat",
    "SummaryCache",
    "SweepGrid",
    "SweepOutcome",
    "SweepSpec",
    "SweepTask",
    "aggregate",
    "aggregate_table",
    "apply_patch",
    "code_fingerprint",
    "compute_summary",
    "dedupe_tasks",
    "make_executor",
    "run_fingerprint",
    "run_sweep",
    "run_task",
    "scale_fingerprint",
    "shared_summary_cache",
    "stat_of",
    "summarize",
    "t_quantile_975",
]
