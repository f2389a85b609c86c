"""The benchmark harness checks itself at ``--quick`` size (a few seconds).

Loaded by path under a private module name so that neither pytest's rootdir
``conftest.py`` fixtures nor a top-level module called ``run`` can leak in:
``run.py`` must work the same without pytest.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

_spec = importlib.util.spec_from_file_location("e2e_run", os.path.join(HERE, "run.py"))
e2e_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_run)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def quick(workload: str, trace: int = 0, seed: int = 42) -> dict:
    args = e2e_run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--quick"]
    )
    return e2e_run.run(args)


def declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def reported(outcome: dict) -> dict:
    return {name: cell["unit"] for name, cell in outcome["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_the_declared_end_to_end_metrics(workload):
    outcome = quick(workload)
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] is True and outcome["failed"] == 0
    assert outcome["attempted"] >= 3  # the warm-up and at least two repetitions
    assert reported(outcome) == declared("end_to_end")
    assert all(cell["value"] > 0 for cell in outcome["metrics"].values())


def test_ledger_reports_the_declared_per_layer_metrics_and_repeats_its_counts():
    first, second = quick("paper230", trace=1), quick("paper230", trace=1)
    assert first["correct"] and second["correct"]
    assert reported(first) == declared("per_layer")
    counts = [name for name in first["metrics"] if name.endswith("calls_per_event")]
    assert len(counts) > 30
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["ledger.attributed_share"]["value"] >= 0.95


def test_a_broken_parity_check_counts_as_a_failed_operation(monkeypatch):
    workloads = e2e_run.workloads
    honest = workloads.WORKLOADS["shard2"]
    broken = dataclasses.replace(
        honest, oracle=lambda config: dataclasses.replace(config, seed=config.seed + 1)
    )
    monkeypatch.setitem(workloads.WORKLOADS, "shard2", broken)
    outcome = quick("shard2")
    assert outcome["failed"] == 1 and outcome["correct"] is False


def test_benchmark_json_names_every_workload_the_harness_has():
    assert WORKLOADS == list(e2e_run.workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
