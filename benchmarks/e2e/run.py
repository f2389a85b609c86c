"""End-to-end benchmark: one workload, one process, the median of repetitions.

    python3 benchmarks/e2e/run.py --workload paper230 --seed 42 --seconds 10 --trace 0

A run is one process that sets up, checks one warm-up operation against its
oracle, then repeats the identical operation a fixed number of times in a
closed loop of one client (one session at a time, the way a researcher runs
them) and reports the median.  The count is ``--seconds`` over the workload's
nominal operation time, at least five: it depends on the workload and the
command line, never on how fast this commit or this host is.  On the shared
2-core reference host a single 2 s session spreads by a quarter from one
repetition to the next and busy spells outlast a run, so every repetition is
also scaled by the host's speed while it ran (:mod:`hostspeed`); raw wall
medians are printed beside.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` makes the separate
traced run (:mod:`ledger`) and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
# The harness needs neither pytest nor PYTHONPATH: it finds the program and
# its own sibling modules itself.
sys.path[:0] = [path for path in (SRC, HERE) if path not in sys.path]

import hostspeed  # noqa: E402
import ledger  # noqa: E402
import workloads  # noqa: E402
from repro.simulation.engine import Simulator  # noqa: E402

#: Fresh-process set-ups timed per run (the median is ``setup_s``).
SETUP_PROBES = 7
#: Timed repetitions per run: ``--seconds`` / nominal operation time, at least this.
MIN_REPETITIONS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "1/s",
    "delivery_ratio": "ratio",
    "complete_windows_pct_10s": "%",
}


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def host_line(backend: str, load_at_start: float) -> str:
    """The fingerprint every number carries: cores, interpreter, backend, load."""
    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"backend={backend} loadavg_1m_at_start={load_at_start:.2f}"
    )


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def time_setup(args: argparse.Namespace, probes: int) -> List[Tuple[float, float]]:
    """``probes`` fresh processes timed from spawn to exit: start, import, generate, build.

    Returns (raw wall seconds net of the probe, host-scaled seconds) of each;
    the child measures the host's speed itself while it works
    (:mod:`setup_probe`).
    """
    command = [
        sys.executable, os.path.join(HERE, "setup_probe.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        done = subprocess.run(command, check=True, env=env, stdout=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        probe = json.loads(done.stdout)
        wall_s = elapsed - probe["probe_wall_s"]
        samples.append((wall_s, wall_s / probe["slowdown"]))
    return samples


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, failures: List[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED op {self.attempted}: {failure}", file=sys.stderr)


class Sample:
    """One timed repetition.

    ``wall_s`` and ``cpu_s`` are the raw readings net of the speed probe's
    own: what the operation took on this host as it was.  ``run_s`` is
    ``wall_s`` divided by the host's slowdown while the repetition ran; a
    wall-paced workload is not probed (its length is set by the clock, not
    by the host's speed), so its ``run_s`` is the raw wall time.
    """

    __slots__ = (
        "wall_s", "cpu_s", "slowdown", "run_s", "events", "delivery_ratio",
        "complete_windows_pct",
    )

    def __init__(self, wall_s, cpu_s, probe, summary) -> None:
        self.wall_s = wall_s - probe.wall_s
        self.cpu_s = cpu_s - probe.cpu_s
        self.slowdown = probe.slowdown
        self.run_s = self.wall_s / self.slowdown
        self.events = summary.events_processed
        self.delivery_ratio = summary.delivery_ratio
        self.complete_windows_pct = summary.average_complete_windows_percentage(10.0)


def timed_op(workload, config, tally: Tally, reference) -> Optional[Sample]:
    """Run one operation under the clock and check it; ``None`` if it raised."""
    gc.collect()
    probe = hostspeed.HostSpeedProbe()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.nullcontext() if workload.wall_paced else probe:
            result, summary = workload.op(config)
    except Exception:
        tally.record([traceback.format_exc()])
        return None
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0
    failures = workloads.sanity_failures(result, summary)
    if workload.deterministic and reference is not None:
        if workloads.fingerprint(result) != reference:
            failures.append("repetition disagrees with the warm-up on events or deliveries")
    tally.record(failures)
    return Sample(wall_s, cpu_s, probe, summary)


def warm_up(workload, config, tally: Tally) -> Tuple[object, float]:
    """One checked, untimed operation: fills caches, and is compared to its oracle.

    Returns the fingerprint later repetitions must reproduce and the oracle's
    wall seconds (0.0 when the workload has no oracle).
    """
    try:
        result, summary = workload.op(config)
    except Exception:
        tally.record([traceback.format_exc()])
        return None, 0.0
    failures = workloads.sanity_failures(result, summary)
    oracle_s = 0.0
    if workload.oracle is not None:
        gc.collect()
        start = time.perf_counter()
        oracle_result = workloads.run_scalar(workload.oracle(config))
        oracle_s = time.perf_counter() - start
        failures += workloads.oracle_failures(workload, result, oracle_result)
    tally.record(failures)
    return workloads.fingerprint(result), oracle_s


def repetitions(workload, seconds: float, quick: bool) -> int:
    """How many timed operations a run of ``seconds`` makes: fixed before it starts."""
    if quick:
        return 2
    return max(MIN_REPETITIONS, round(seconds / workload.nominal_s))


def repeat(workload, config, tally, reference, count: int) -> List[Sample]:
    """The closed loop: ``count`` identical operations, one after the other."""
    samples = (timed_op(workload, config, tally, reference) for _ in range(count))
    return [sample for sample in samples if sample is not None]


def spread(values: List[float]) -> str:
    """Quartiles, minimum and count beside a median (no tail percentile: n < 11)."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} n={len(values)}"


def series(samples: list, function) -> Tuple[float, str]:
    """The median of one per-repetition quantity, with its spread note."""
    values = [function(sample) for sample in samples]
    return statistics.median(values), spread(values)


def end_to_end(
    samples: List[Sample], setup: List[Tuple[float, float]]
) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric as (value, spread note)."""
    return {
        "setup_s": series(setup, lambda s: s[1]),
        "run_s": series(samples, lambda s: s.run_s),
        "events_per_s": series(samples, lambda s: s.events / s.run_s),
        "delivery_ratio": series(samples, lambda s: s.delivery_ratio),
        "complete_windows_pct_10s": series(samples, lambda s: s.complete_windows_pct),
    }


def run(args: argparse.Namespace) -> Dict[str, object]:
    """Set up, warm up, measure; returns the result object of the last line."""
    load_at_start = os.getloadavg()[0]  # before this run adds its own
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        config = workload.make_config(args.seed, args.quick, workdir)
        values: Dict[str, Tuple[float, str]] = {}
        setup: List[Tuple[float, float]] = []
        if args.trace:
            # Half the time on unprofiled repetitions (the base of the
            # overhead ratios), the rest on the one profiled operation.
            count = repetitions(workload, args.seconds / 2.0, args.quick)
            reference, oracle_s = warm_up(workload, config, tally)
            samples = repeat(workload, config, tally, reference, count)
            units = ledger.metric_units()
            if samples:
                base = ledger.Untraced(
                    wall_s=statistics.median(s.wall_s for s in samples),
                    slowdown=statistics.median(s.slowdown for s in samples),
                    cpu_s=statistics.median(s.cpu_s for s in samples),
                    events=statistics.median(s.events for s in samples),
                    oracle_s=oracle_s,
                )
                traced = ledger.traced_run(workload, config, base)
                values = {name: (value, "") for name, value in traced.items()}
        else:
            count = repetitions(workload, args.seconds, args.quick)
            setup = time_setup(args, 1 if args.quick else SETUP_PROBES)
            reference, _oracle_s = warm_up(workload, config, tally)
            samples = repeat(workload, config, tally, reference, count)
            units = END_TO_END_UNITS
            if samples:
                values = end_to_end(samples, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(host_line(Simulator().backend_name, load_at_start))
    for name, (value, note) in values.items():
        print(f"{name:42s} {value:.6g} {units[name]:6s} {note}")
    for label, readings, function in (
        ("raw setup wall_s", setup, lambda s: s[0]),
        ("raw wall_s", samples, lambda s: s.wall_s),
        ("raw cpu_us_per_event", samples, lambda s: s.cpu_s / s.events * 1e6),
        ("host slowdown", samples, lambda s: s.slowdown),
    ):
        if readings:
            print("{:42s} {:.6g}        {}".format(label, *series(readings, function)))
    print(f"ops_attempted {tally.attempted} ops_failed {tally.failed}")
    return {
        "correct": tally.failed == 0 and bool(values),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _note) in values.items()
        },
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="paper230, stressed120, telemetry, shard2 or realnet")
    parser.add_argument("--seed", type=int, default=42,
                        help="fed to SessionConfig.seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="sets the repetition count: this over the workload's nominal "
                        "operation time (at least 5)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: the traced run's per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the harness's own tests; numbers mean nothing")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    outcome = run(parse_args(argv))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
