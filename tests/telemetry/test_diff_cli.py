"""Trace diffing (first-divergence detection) and the telemetry CLI."""

import json

import pytest

from repro.cli import main as run_main
from repro.telemetry.cli import main
from repro.telemetry.diff import diff_traces
from repro.telemetry.schema import TRACE_SCHEMA, TraceWriter


def write_events(path, events):
    with TraceWriter(path) as writer:
        for kind, time, fields in events:
            writer.append(kind, time, **fields)
    return path


BASE_EVENTS = [
    ("round", 0.0, {"n": 1, "np": 7}),
    ("round", 0.2, {"n": 2, "np": 7}),
    ("packet", 0.4, {"n": 1, "p": 0, "source": False}),
    ("round", 0.6, {"n": 3, "np": 7}),
]


class TestDiffTraces:
    def test_identical_traces(self, tmp_path):
        left = write_events(tmp_path / "a.jsonl", BASE_EVENTS)
        right = write_events(tmp_path / "b.jsonl", BASE_EVENTS)
        outcome = diff_traces(left, right)
        assert outcome.identical
        assert outcome.events_compared == 4
        assert "identical" in outcome.describe()

    def test_injected_divergence_found_at_right_index(self, tmp_path):
        mutated = [list(event) for event in BASE_EVENTS]
        mutated[2] = ("packet", 0.4, {"n": 1, "p": 99, "source": False})
        left = write_events(tmp_path / "a.jsonl", BASE_EVENTS)
        right = write_events(tmp_path / "b.jsonl", mutated)
        outcome = diff_traces(left, right)
        assert not outcome.identical
        assert outcome.index == 2
        assert "p" in outcome.reason
        assert outcome.left["p"] == 0 and outcome.right["p"] == 99

    def test_truncated_trace_reported(self, tmp_path):
        left = write_events(tmp_path / "a.jsonl", BASE_EVENTS)
        right = write_events(tmp_path / "b.jsonl", BASE_EVENTS[:2])
        outcome = diff_traces(left, right)
        assert not outcome.identical
        assert outcome.index == 2
        assert "right trace ended after 2 events" in outcome.reason

    def test_headers_not_compared(self, tmp_path):
        left = tmp_path / "a.jsonl"
        right = tmp_path / "b.jsonl"
        with TraceWriter(left, meta={"created_unix": 1.0}) as writer:
            writer.append("round", 0.0, n=1, np=7)
        with TraceWriter(right, meta={"created_unix": 2.0}) as writer:
            writer.append("round", 0.0, n=1, np=7)
        assert diff_traces(left, right).identical


class TestCli:
    def test_diff_exit_codes(self, tmp_path, capsys):
        left = write_events(tmp_path / "a.jsonl", BASE_EVENTS)
        right = write_events(tmp_path / "b.jsonl", BASE_EVENTS)
        assert main(["diff", str(left), str(right)]) == 0
        mutated = list(BASE_EVENTS)
        mutated[1] = ("round", 0.2, {"n": 9, "np": 7})
        diverged = write_events(tmp_path / "c.jsonl", mutated)
        assert main(["diff", str(left), str(diverged)]) == 1
        out = capsys.readouterr().out
        assert "diverge at event index 1" in out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["summarize", str(tmp_path / "nope.jsonl")]) == 2

    def test_foreign_trace_is_usage_error(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({"schema": "other/9"}) + "\n")
        assert main(["export", str(path)]) == 2

    def test_record_summarize_export_pipeline(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = run_main(
            [
                "run",
                "--scenario",
                "homogeneous",
                "--nodes",
                "8",
                "--seed",
                "3",
                "--trace",
                str(trace),
                "--metrics-out",
                str(tmp_path / "metrics.json"),
            ]
        )
        assert code == 0
        assert trace.exists()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["membership.members"] == 8.0

        assert main(["summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert TRACE_SCHEMA in out
        assert "events by kind" in out

        assert main(["export", str(trace)]) == 0
        exported = trace.with_suffix(".perfetto.json")
        assert json.loads(exported.read_text())["traceEvents"]

    def test_record_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_main(["run", "--scenario", "no-such-scenario"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'no-such-scenario'" in capsys.readouterr().err

    def test_record_trace_only(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = run_main(
            [
                "run",
                "--scenario",
                "homogeneous",
                "--nodes",
                "6",
                "--no-metrics",
                "--include-kinds",
                "packet,round",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        from repro.telemetry.schema import iter_events

        kinds = {event["k"] for event in iter_events(trace)}
        assert kinds <= {"packet", "round"}
