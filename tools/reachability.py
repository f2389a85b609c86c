#!/usr/bin/env python
"""Reachability audit: which ``src/repro`` functions the product runs.

Run from anywhere with Python >= 3.12 and pytest importable (no arguments)::

    python tools/reachability.py

It runs every command of :data:`PRODUCT_COMMANDS` (the CI and nightly jobs
at smoke size, every CLI subcommand, every example and every end-to-end
workload), then tier-1 (:data:`TIER1`), and records which functions each
phase starts.  Recording needs no change to the program: a throwaway
``sitecustomize.py``, first on ``PYTHONPATH`` for every command, registers a
``sys.monitoring`` ``PY_START`` callback that writes ``(path, qualname,
first line)`` once per code object under ``src/repro`` and then disables
itself for that code object.  Sweep pools, shard processes and fuzz workers
inherit the hook, so their work is recorded too.  There is no
``sys.setprofile`` fallback for older interpreters: cProfile replaces that
hook, and the bench ``--profile`` run and the e2e ledger both start cProfile.

Every ``def`` under ``src/repro`` is enumerated with :mod:`ast` (qualname
from the nesting, first line from the first decorator, as CPython numbers
the code object).  A definition whose body is only a docstring, ``...`` or
``pass`` declares an interface and has nothing to run: it is counted, not
audited.  The report lists, per module, each other definition the product
never started, marked ``test-only`` (tier-1 starts it) or ``unreached``,
with its line span and its verdict: the verdict of the :data:`KEEP` entry
that covers it, or ``delete``.  A definition nested in one the product
never started is counted inside its parent and not listed.  The totals and
the kept entries, as markdown table rows, close the report.  Exit status 1
means a product command failed, an unkept definition of :data:`MIN_LINES`
or more lines is left, or a :data:`KEEP` entry covers nothing; tier-1's
status is printed and not counted.
"""

from __future__ import annotations

import ast
import os
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

TOOL_ID = 4
"""The ``sys.monitoring`` tool id: cProfile takes 2 and Hypothesis 3."""

MIN_LINES = 5
"""An unkept product-unreached definition this long fails the audit."""

_SCENARIOS = (
    "churn-window",
    "eager-push",
    "flash-crowd",
    "heterogeneous-bandwidth",
    "homogeneous",
    "large-session",
    "lossy-wan",
    "metropolis",
)
_E2E_WORKLOADS = ("paper230", "stressed120", "telemetry", "shard2", "realnet")

# ``{tmp}`` is a scratch directory that lives for one audit; ``python`` is
# the interpreter running the audit.  Each line runs through the shell, so
# globs expand as in the CI job it copies.
PRODUCT_COMMANDS: Tuple[str, ...] = (
    # ci.yml, job by job (``tests`` is TIER1 below, ``mean-field`` a test run
    # outside it, ``lint`` is not Python).
    "python tools/check_docs.py",
    "python -m repro.bench run --scale smoke --json {tmp}/BENCH_smoke.json",
    "python -m repro.bench compare {tmp}/BENCH_smoke.json",
    "python -m repro.experiments figure1 --scale smoke --jobs 2 --store {tmp}/ci-sweep.jsonl",
    "python -m repro.experiments figure1 --scale smoke --jobs 2 --store {tmp}/ci-sweep.jsonl"
    " --resume",
    "python -m repro run --scenario homogeneous --scale smoke --nodes 30"
    " --seed 2009 --trace {tmp}/TRACE_ci_smoke.jsonl --metrics-out {tmp}/TRACE_ci_metrics.json",
    "python -m repro.telemetry summarize {tmp}/TRACE_ci_smoke.jsonl",
    "python -m repro.telemetry export {tmp}/TRACE_ci_smoke.jsonl",
    "python -m repro run --scenario homogeneous --nodes 10 --windows 3 --realnet"
    " --time-scale 0.25 --seed 2009 --run-dir {tmp}/realnet-smoke --trace"
    " --assert-delivery-ratio 0.9 --parity",
    "python -m repro.telemetry summarize {tmp}/realnet-smoke/*/trace.jsonl",
    "python -m repro.validation --fuzz 10 --seed 2009 --jobs 2 --bundle-dir {tmp}/fuzz",
    # nightly-fuzz.yml at smoke size.
    "python -m repro.validation --fuzz 10 --seed 20261015 --jobs 2 --bundle-dir {tmp}/fuzz",
    "python -m repro.bench run --scale smoke --filter engine-throughput,large-session"
    " --json {tmp}/BENCH_xlarge.json",
    "python -m repro.bench compare {tmp}/BENCH_xlarge.json",
    "python -m repro.bench run --scale smoke --filter sharded-session"
    " --json {tmp}/BENCH_metropolis.json",
    # repro.experiments: every figure, a resume, a serial run, the listing
    # and every ablation.
    "python -m repro.experiments figure1 figure2 figure3 figure4 figure5 figure6 figure7"
    " figure8 --scale smoke --jobs 2 --store {tmp}/figures.jsonl",
    "python -m repro.experiments figure4 figure7 --scale smoke --jobs 2"
    " --store {tmp}/figures.jsonl --resume",
    "python -m repro.experiments figure5 --scale smoke --jobs 1",
    "python -m repro.experiments --list",
    "python -m repro.experiments ablation:detection-delay ablation:fec"
    " ablation:retransmission ablation:source-fanout --scale smoke --jobs 2",
    # repro run traced with every filter, then repro.telemetry summarize,
    # export, diff.
    "python -m repro run --scenario churn-window --scale smoke --seed 5"
    " --sample-every 3 --trace {tmp}/churn.jsonl",
    "python -m repro run --scenario flash-crowd --scale smoke"
    " --include-kinds send,deliver_msg,packet --trace {tmp}/flash.jsonl",
    "python -m repro run --scenario lossy-wan --scale smoke"
    " --exclude-kinds dispatch --no-metrics --trace {tmp}/lossy.jsonl",
    "python -m repro run --scenario eager-push --nodes 20"
    " --trace {tmp}/eager.jsonl",
    "python -m repro.telemetry summarize {tmp}/churn.jsonl",
    "python -m repro.telemetry summarize {tmp}/lossy.jsonl",
    "python -m repro.telemetry export {tmp}/flash.jsonl --out {tmp}/flash.perfetto.json",
    "python -m repro run --scenario homogeneous --scale smoke --nodes 30"
    " --seed 2009 --trace {tmp}/TRACE_again.jsonl",
    "python -m repro.telemetry diff {tmp}/TRACE_ci_smoke.jsonl {tmp}/TRACE_again.jsonl",
    # repro run sharded: parity on every scenario, both modes, 2 and 4 shards.
    *(
        f"python -m repro run --scenario {scenario} --nodes 30 --shards {shards}"
        f" --mode {mode} --parity"
        for scenario in _SCENARIOS
        for mode in ("thread", "process")
        for shards in (2, 4)
    ),
    # repro run on realnet, repro.validation and repro.bench beyond the CI
    # lines.
    "python -m repro run --scenario homogeneous --nodes 8 --windows 2 --realnet"
    " --time-scale 0.25 --seed 7 --parity --json",
    "python -m repro.validation --list-invariants",
    "python -m repro.bench list",
    "python -m repro.bench record {tmp}/BENCH_smoke.json --baseline-dir {tmp}/baselines",
    "python -m repro.bench run --scale smoke --filter engine-throughput --profile"
    " --profile-dir {tmp}/profiles --json {tmp}/BENCH_profiled.json",
    # Every example, then every end-to-end workload untraced and with its
    # per-layer ledger.
    *(f"python {path.relative_to(ROOT)}" for path in sorted((ROOT / "examples").glob("*.py"))),
    *(
        f"python benchmarks/e2e/run.py --workload {workload} --quick"
        for workload in _E2E_WORKLOADS
    ),
    *(
        f"python benchmarks/e2e/run.py --workload {workload} --quick --trace 1"
        for workload in _E2E_WORKLOADS
    ),
)

TIER1 = "python -m pytest -q -p no:cacheprovider"

_ORACLE = "keep: oracle or fault tooling"
_API = "keep: product API"
_ACCESSOR = "keep: test-facing accessor"


@dataclass(frozen=True)
class Keep:
    """Why some product-unreached definitions stay: one verdict, one reason.

    ``names`` are qualnames in ``path`` (each also covers what is nested
    under it); no names covers the whole module.
    """

    verdict: str
    path: str
    names: Tuple[str, ...]
    reason: str

    def covers(self, path: str, qualname: str) -> bool:
        return path == self.path and (
            not self.names
            or any(qualname == name or qualname.startswith(f"{name}.") for name in self.names)
        )


KEEP: Tuple[Keep, ...] = (
    Keep(_ORACLE, "metrics/reference.py", (),
         "the reference analyzer test_quality_fast_path pins metrics/quality.py against; "
         "its tests kill 9 of 13 quality.py mutants, none that only they kill "
         "(docs/validation.md)"),
    Keep(_ORACLE, "streaming/player.py", (),
         "the online player the quality tests cross-check the offline analyzer against; "
         "its tests kill 4 of 13 quality.py mutants, none that only they kill "
         "(docs/validation.md)"),
    Keep(_ORACLE, "network/latency.py",
         ("ConstantLatency.min_latency", "UniformLatency.min_latency"),
         "the min_latency family: shard/partition.py reads it, the partition tests use it "
         "as the global-floor oracle"),
    Keep(_ORACLE, "membership/directory.py", ("MembershipDirectory.selectable",),
         "the candidate list, copied out: the directory tests pin the cache against a "
         "fresh scan through it, the sampler tests draw stdlib's sample from it"),
    Keep(_ORACLE, "shard/partition.py", ("_no_floor_term",),
         "the hash-only placement the partition tests compare sorted placement with"),
    Keep(_ORACLE, "network/transport.py", ("Network.send",),
         "the tests' one-datagram reference path into send_many"),
    Keep(_ORACLE, "simulation/engine.py", ("Simulator.step", "Simulator.run_until_idle"),
         "the tests' stepping harness"),
    Keep(_ORACLE, "simulation/event_queue.py", ("EventQueue.pop",),
         "the reference pop that run_loop inlines"),
    Keep(_ORACLE, "realnet/host.py", ("AsyncioHost._on_callback_error",),
         "runs only when a timer or datagram callback raises: ends the run with that error"),
    Keep(_ORACLE, "bench/runner.py", ("BenchmarkSelectionError.__str__",),
         "the CLI's message for a filter that selects nothing"),
    Keep(_ORACLE, "protocols/registry.py", ("available_protocols",),
         "the unknown-protocol error lists it; the conformance suite runs every entry"),
    Keep(_ORACLE, "validation/bundle.py", (),
         "repro bundles: written only on an invariant violation, read by --replay"),
    Keep(_ORACLE, "validation/fuzzer.py",
         ("ScenarioFuzzer.write_bundle", "ReplayReport", "replay_bundle"),
         "writes and replays a repro bundle after a violation"),
    Keep(_ORACLE, "validation/invariants.py",
         ("InvariantViolation", "Invariant.fail", "ChurnHygiene.on_node_recovered"),
         "runs only when an invariant fires or a node recovers"),
    Keep(_ORACLE, "telemetry/config.py",
         ("TelemetryConfig.to_json_dict", "TelemetryConfig.from_json_dict"),
         "the telemetry field of a repro bundle"),
    Keep(_ORACLE, "telemetry/schema.py",
         ("_ClosedBuffer", "TraceWriter._abandon", "TraceWriter.__enter__", "TraceWriter.__exit__"),
         "keeps a trace whole and closed after a handler exception or a full disk"),
    Keep(_API, "sweep/aggregate.py", (),
         "docs/architecture.md, Parallel sweeps: aggregate and aggregate_table"),
    Keep(_API, "sweep/spec.py", ("SweepGrid", "SweepSpec"),
         "docs/architecture.md, Parallel sweeps"),
    Keep(_API, "experiments/runner.py", ("run_point",), "docs/architecture.md, Layers"),
    Keep(_API, "scenarios/registry.py", ("run_scenario",),
         "README and docs/architecture.md, Scenario registry"),
    Keep(_API, "experiments/figures.py", ("_default_cache",),
         "the cache=None default of the eight exported figure generators"),
    Keep(_API, "simulation/engine.py", ("Simulator.cancel",),
         "the Host interface of docs/architecture.md (now, rng, schedule, schedule_at, cancel)"),
    Keep(_API, "realnet/host.py", ("AsyncioHost.cancel",),
         "the Host interface of docs/architecture.md (now, rng, schedule, schedule_at, cancel)"),
    Keep(_API, "realnet/host.py", ("AsyncioHost.schedule_fire_and_forget",),
         "Network.send_many looks it up on every host"),
    Keep(_API, "network/transport.py", ("Network.recover_node",),
         "the only source of the node_recovered trace kind (docs/observability.md)"),
    Keep(_API, "telemetry/recorder.py",
         ("TraceRecorder._unsent", "TraceRecorder.on_send_blocked",
          "TraceRecorder.on_congestion_drop", "TraceRecorder.on_node_recovered",
          "TraceRecorder.on_feed_me_round", "MetricsObserver.on_send_blocked",
          "MetricsObserver.on_node_recovered"),
         "the rare trace kinds and fates of docs/observability.md (send_blocked, "
         "drop_congestion, node_recovered, feed_me_round)"),
    Keep(_API, "telemetry/schema.py", ("TraceWriter.append",),
         "docs/observability.md: the general any-kind path"),
    Keep(_API, "telemetry/metrics.py", ("Histogram.observe",),
         "the update method of the registry's histograms (docs/observability.md)"),
    Keep(_ACCESSOR, "metrics/delivery.py", ("DeliveryLog.total_deliveries",),
         "a frozen suite calls it: tests/protocols/test_regression.py l.57"),
    Keep(_ACCESSOR, "realnet/host.py", ("WallClockHandle.cancelled",),
         "a Protocol declares it: repro.core.host.ScheduledHandle.cancelled"),
    Keep(_ACCESSOR, "realnet/net.py", ("UdpNetwork.address",),
         "a mutant only a test through it kills: realnet/net.py:184, the misaddressed "
         "datagram's return dropped"),
)
"""Why each product-unreached definition that stays, stays."""

UNSEEN: Dict[Tuple[str, str], str] = {
    ("bench/suite.py", "frames_per_event.<locals>.on_profile_event"):
        "a sys.setprofile callback: no monitoring event fires inside a profile hook",
}
"""Product code the recorder cannot see, counted as product-reached."""


@dataclass(frozen=True)
class Definition:
    """One ``def`` in the source tree, keyed the way its code object is."""

    path: str
    qualname: str
    first_line: int
    last_line: int
    enclosing: Optional["Definition"]
    declaration: bool

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.path, self.qualname, self.first_line)

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1


def _declares_only(node: ast.AST) -> bool:
    """Whether a function body is only a docstring, ``...`` or ``pass``."""
    return all(
        isinstance(statement, ast.Pass)
        or (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and (statement.value.value is Ellipsis or isinstance(statement.value.value, str))
        )
        for statement in node.body
    )


def module_definitions(path: Path, root: Path) -> List[Definition]:
    """Every ``def`` in ``path``, with ``co_qualname`` and ``co_firstlineno``."""
    rel = path.relative_to(root).as_posix()
    found: List[Definition] = []

    def visit(node: ast.AST, prefix: str, enclosing: Optional[Definition]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                definition = Definition(
                    rel, prefix + child.name, first, child.end_lineno, enclosing,
                    _declares_only(child),
                )
                found.append(definition)
                visit(child, f"{definition.qualname}.<locals>.", definition)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", enclosing)
            else:
                visit(child, prefix, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "", None)
    return found


def tree_definitions(root: Path) -> List[Definition]:
    """Every ``def`` in every module under ``root``, in path order."""
    return [
        definition
        for path in sorted(root.rglob("*.py"))
        for definition in module_definitions(path, root)
    ]


HOOK = """\
import os
import sys

_ROOT = {root!r}
_OUT = os.open({out!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)


def _started(code, offset):
    if code.co_filename.startswith(_ROOT):
        path = code.co_filename[len(_ROOT):]
        os.write(_OUT, f"{{path}}\\t{{code.co_qualname}}\\t{{code.co_firstlineno}}\\n".encode())
    return sys.monitoring.DISABLE


sys.monitoring.use_tool_id({tool}, "reachability")
sys.monitoring.register_callback({tool}, sys.monitoring.events.PY_START, _started)
sys.monitoring.set_events({tool}, sys.monitoring.events.PY_START)
"""


def write_hook(hook_dir: Path, root: Path, out: Path) -> None:
    """Write the ``sitecustomize.py`` recording starts under ``root`` into ``out``."""
    source = HOOK.format(root=f"{root}{os.sep}", out=str(out), tool=TOOL_ID)
    (hook_dir / "sitecustomize.py").write_text(source, encoding="utf-8")


def read_records(out: Path) -> Set[Tuple[str, str, int]]:
    """The ``(path, qualname, first line)`` keys a recording holds."""
    if not out.exists():
        return set()
    records = set()
    for line in out.read_text(encoding="utf-8").splitlines():
        path, qualname, first_line = line.split("\t")
        records.add((path, qualname, int(first_line)))
    return records


def recorded_run(commands: Iterable[str], out: Path, tmp: Path) -> List[str]:
    """Run each command with the hook armed; returns the commands that failed."""
    hook_dir = Path(tempfile.mkdtemp(dir=tmp))
    write_hook(hook_dir, PACKAGE, out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(hook_dir), str(SRC), env.get("PYTHONPATH")) if part
    )
    python = shlex.quote(sys.executable)
    commands = list(commands)
    failed = []
    for index, command in enumerate(commands, 1):
        line = command.replace("{tmp}", str(tmp))
        started = time.perf_counter()
        completed = subprocess.run(
            python + line[len("python"):],
            shell=True,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        status = "ok" if completed.returncode == 0 else f"exit {completed.returncode}"
        last = (completed.stdout.strip().splitlines() or [""])[-1]
        print(
            f"[{index:>2}/{len(commands)}] {time.perf_counter() - started:6.1f}s "
            f"{status:<6} {command}\n{'':>17}{last[:100]}",
            flush=True,
        )
        if completed.returncode != 0:
            failed.append(command)
            print(completed.stdout[-4000:], completed.stderr[-2000:], sep="\n", file=sys.stderr)
    return failed


def verdict(definition: Definition) -> str:
    """The verdict of the first :data:`KEEP` entry covering the definition, or ``delete``."""
    for keep in KEEP:
        if keep.covers(definition.path, definition.qualname):
            return keep.verdict
    return "delete"


def classify(
    definitions: List[Definition],
    product: Set[Tuple[str, str, int]],
    tests: Set[Tuple[str, str, int]],
) -> Dict[Tuple[str, str, int], str]:
    """``product``, ``test-only`` or ``unreached`` for each definition."""
    return {
        d.key: "product"
        if d.key in product or (d.path, d.qualname) in UNSEEN
        else "test-only"
        if d.key in tests
        else "unreached"
        for d in definitions
    }


def report(definitions: List[Definition], reach: Dict[Tuple[str, str, int], str]) -> int:
    """Print the listing, the totals and the kept entries; returns the problem count."""
    audited = [d for d in definitions if not d.declaration]
    listed = [
        d
        for d in audited
        if reach[d.key] != "product"
        and (d.enclosing is None or reach[d.enclosing.key] == "product")
    ]
    module = None
    for d in listed:
        if d.path != module:
            module = d.path
            print(f"\n{module}")
        print(
            f"  {d.first_line:>4}  {d.qualname:<52} {d.lines:>4}  "
            f"{reach[d.key]:<9}  {verdict(d)}"
        )

    def tally(subset: List[Definition]) -> str:
        return f"{len(subset):>5} definitions {sum(d.lines for d in subset):>6} lines"

    print("\ntotals (lines: each listed definition's span, nested ones included)")
    print(f"  defined                        {len(definitions):>5}")
    print(f"  declarations, not audited      {len(definitions) - len(audited):>5}")
    print(f"  product-reached                {sum(reach[d.key] == 'product' for d in audited):>5}")
    for state in ("test-only", "unreached"):
        print(f"  {state:<30} {tally([d for d in listed if reach[d.key] == state])}")
    for label in (_ORACLE, _API, _ACCESSOR, "delete"):
        print(f"  {label:<30} {tally([d for d in listed if verdict(d) == label])}")
    unkept_long = [d for d in listed if verdict(d) == "delete" and d.lines >= MIN_LINES]
    print(f"  {f'delete, >= {MIN_LINES} lines':<30} {tally(unkept_long)}")

    print("\nkept entries")
    print("| verdict | where | definitions | lines | why |")
    print("|---|---|---|---|---|")
    stale = 0
    for keep in KEEP:
        covered = [
            d for d in listed if verdict(d) == keep.verdict and keep.covers(d.path, d.qualname)
        ]
        stale += not covered
        names = ", ".join(f"`{name}`" for name in keep.names) or "the whole module"
        print(
            f"| {keep.verdict[len('keep: '):]} | `{keep.path}`: {names} | {len(covered)} "
            f"| {sum(d.lines for d in covered)} | {keep.reason} |"
        )
    if stale:
        print(f"  {stale} kept entries cover no listed definition")
    return len(unkept_long) + stale


def main() -> int:
    if sys.version_info < (3, 12):
        print("reachability needs Python >= 3.12 (sys.monitoring)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        tmp = Path(scratch)
        print(f"== product: {len(PRODUCT_COMMANDS)} commands ==", flush=True)
        failed = recorded_run(PRODUCT_COMMANDS, tmp / "product.tsv", tmp)
        # Tier-1 runs without -x, so its recording is whole even when a test
        # fails; whether tests pass is CI's verdict, not the audit's.
        print("== tier-1 ==", flush=True)
        recorded_run([TIER1], tmp / "tests.tsv", tmp)
        product = read_records(tmp / "product.tsv")
        tests = read_records(tmp / "tests.tsv")
    definitions = tree_definitions(PACKAGE)
    problems = report(definitions, classify(definitions, product, tests))
    for command in failed:
        print(f"FAILED: {command}", file=sys.stderr)
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
