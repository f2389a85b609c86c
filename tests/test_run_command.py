"""Tests for ``python -m repro run``: one command for every substrate."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import main, make_run_id, prepare_run_dir
from repro.core.session import StreamingSession
from repro.sweep.summary import PointSummary
from repro.telemetry.schema import validate_trace

SRC = Path(__file__).resolve().parent.parent / "src"

SIM_ARGS = ["run", "--scenario", "homogeneous", "--nodes", "12", "--seed", "3"]

# Realnet smoke shape: tiny stream, 4x wall clock.
REALNET_ARGS = [
    "run", "--scenario", "homogeneous", "--nodes", "8", "--windows", "2",
    "--extra-time", "4", "--seed", "3", "--realnet", "--time-scale", "0.25",
]


def _field(line, name):
    """The value of the ``name=value`` token of a report line."""
    token = next(token for token in line.split() if token.startswith(f"{name}="))
    return token[len(name) + 1 :]


def _line(out, prefix):
    return next(line for line in out.splitlines() if line.startswith(prefix))


def _run_dir(root):
    (run_dir,) = list(root.iterdir())
    return run_dir


class TestShardedRuns:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_parity_run_matches_the_scalar_oracle(self, mode, capsys):
        assert main([*SIM_ARGS, "--shards", "2", "--mode", mode, "--parity"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("scenario=homogeneous nodes=12 seed=3 ")
        assert "shards=2" in out.splitlines()[0]
        sharded = _line(out, f"sharded-{mode}:")
        scalar = _line(out, "scalar oracle:")
        for name in ("events", "delivery", "viewing(10s)", "viewing(inf)"):
            assert _field(sharded, name) == _field(scalar, name)
        assert out.splitlines()[-1] == (
            f"PARITY OK: sharded-{mode} run is identical to the scalar oracle"
        )

    def test_plain_run_reports_the_partition_and_skips_the_oracle(self, capsys):
        assert main([*SIM_ARGS, "--shards", "3"]) == 0
        out = capsys.readouterr().out
        windows = _line(out, "windows :")
        sizes = windows[windows.index("[") + 1 : windows.index("]")].split(", ")
        assert len(sizes) == 3 and sum(map(int, sizes)) == 12
        assert int(_field(windows, "windows")) > 0
        assert "oracle" not in out and "PARITY" not in out

    def test_parity_mismatch_exits_one_and_names_every_differing_field(
        self, monkeypatch, capsys
    ):
        class OtherSeed(StreamingSession):
            """An oracle on the next seed: stands in for a diverged sharded run."""

            def __init__(self, config):
                super().__init__(dataclasses.replace(config, seed=config.seed + 1))

        monkeypatch.setattr(cli, "StreamingSession", OtherSeed)
        assert main([*SIM_ARGS, "--shards", "2", "--parity"]) == 1
        captured = capsys.readouterr()
        assert "PARITY OK" not in captured.out
        first, *details = captured.err.splitlines()
        assert first.startswith("PARITY FAILED: fields differ: ")
        named = first[len("PARITY FAILED: fields differ: "):].split(", ")
        assert "events_processed" in named
        assert len(details) == 3 * len(named)  # name, run value, scalar value
        assert [line.strip() for line in details[::3]] == [f"{name}:" for name in named]

    def test_compared_fields_leave_out_wall_clock(self):
        names = {f.name for f in dataclasses.fields(PointSummary) if f.compare}
        assert "wall_seconds" not in names
        assert {"events_processed", "delivery_ratio", "viewing", "end_time"} <= names

    def test_scenario_shards_decide_unless_overridden(self, capsys):
        assert main(["run", "--scenario", "metropolis", "--nodes", "12", "--seed", "3",
                     "--windows", "1"]) == 0
        assert "sharded-thread:" in capsys.readouterr().out
        assert main(["run", "--scenario", "metropolis", "--nodes", "12", "--seed", "3",
                     "--windows", "1", "--realnet", "--time-scale", "0.25",
                     "--extra-time", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards=None" in out and "realnet-asyncio:" in out


class TestRealnetRuns:
    def test_plain_run_succeeds(self, capsys):
        assert main(REALNET_ARGS) == 0
        assert "delivery=" in _line(capsys.readouterr().out, "realnet-asyncio:")

    def test_run_writes_artifacts(self, tmp_path, capsys):
        assert main([*REALNET_ARGS, "--run-dir", str(tmp_path), "--trace"]) == 0
        run_dir = _run_dir(tmp_path)
        assert {path.name for path in run_dir.iterdir()} == {
            "delivery.jsonl", "summary.json", "trace.jsonl",
        }
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["backend"] == "realnet-asyncio"
        assert summary["num_nodes"] == 8
        assert summary["run_id"] == run_dir.name
        validate_trace(run_dir / "trace.jsonl")

    def test_parity_prints_the_delta_table(self, capsys):
        assert main([*REALNET_ARGS, "--parity"]) == 0
        out = capsys.readouterr().out
        assert "delivery-ratio gate" in out
        assert "PASS" in out

    def test_parity_json(self, capsys):
        assert main([*REALNET_ARGS, "--parity", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["passed"] is True
        assert any(entry["name"] == "delivery_ratio" for entry in doc["metrics"])

    def test_parity_gates_on_the_tolerance(self, monkeypatch, capsys):
        class Starved(StreamingSession):
            """An oracle losing half its datagrams: far below the real run."""

            def __init__(self, config):
                network = dataclasses.replace(config.network, random_loss=0.5)
                super().__init__(dataclasses.replace(config, network=network))

        monkeypatch.setattr(cli, "StreamingSession", Starved)
        assert main([*REALNET_ARGS, "--parity"]) == 1
        assert "-> FAIL" in capsys.readouterr().out


class TestEverySubstrate:
    def test_every_substrate_writes_the_same_run_artifacts(self, tmp_path, capsys):
        small = ["run", "--scenario", "homogeneous", "--nodes", "8", "--windows", "2",
                 "--extra-time", "4", "--seed", "3"]
        roots = {}
        for name, extra in (
            ("shards1", ["--shards", "1"]),
            ("shards2", ["--shards", "2"]),
            ("realnet", ["--realnet", "--time-scale", "0.25"]),
        ):
            roots[name] = tmp_path / name
            assert main([*small, *extra, "--run-dir", str(roots[name])]) == 0
        run_dirs = {name: _run_dir(root) for name, root in roots.items()}
        artifacts = {
            name: {path.name for path in run_dir.iterdir()}
            for name, run_dir in run_dirs.items()
        }
        assert artifacts["shards1"] == artifacts["shards2"] == artifacts["realnet"] == {
            "delivery.jsonl", "summary.json",
        }
        summaries = {
            name: json.loads((run_dir / "summary.json").read_text())
            for name, run_dir in run_dirs.items()
        }
        assert set(summaries["shards1"]) == set(summaries["shards2"]) == set(summaries["realnet"])
        assert [summary["backend"] for summary in summaries.values()] == [
            "sharded-thread", "sharded-thread", "realnet-asyncio",
        ]
        # The shard parity contract, checked through the artifacts.
        one = (run_dirs["shards1"] / "delivery.jsonl").read_bytes()
        assert one and one == (run_dirs["shards2"] / "delivery.jsonl").read_bytes()

    @pytest.mark.parametrize("extra", [[], ["--shards", "2"]], ids=["scalar", "sharded"])
    def test_the_header_horizon_is_where_the_session_stops(self, extra, tmp_path, capsys):
        assert main([*SIM_ARGS, *extra, "--run-dir", str(tmp_path)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        summary = json.loads((_run_dir(tmp_path) / "summary.json").read_text())
        assert _field(header, "horizon") == f"{summary['end_time']:.3f}s(virtual)"


class TestRunDirectories:
    def test_a_taken_run_id_gets_a_fresh_directory(self, tmp_path):
        first = prepare_run_dir(str(tmp_path), "20260101T000000Z-s3")
        second = prepare_run_dir(str(tmp_path), "20260101T000000Z-s3")
        assert first[0] == "20260101T000000Z-s3"
        assert second[0] == "20260101T000000Z-s3-2"
        assert first[1] != second[1]
        assert Path(first[1]).is_dir() and Path(second[1]).is_dir()

    def test_two_runs_in_one_second_keep_both_artifact_sets(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "make_run_id", lambda seed: f"20260101T000000Z-s{seed}")
        for seed in ("3", "3"):
            assert main(["run", "--scenario", "homogeneous", "--nodes", "6", "--windows",
                         "1", "--seed", seed, "--run-dir", str(tmp_path)]) == 0
        run_dirs = sorted(path.name for path in tmp_path.iterdir())
        assert run_dirs == ["20260101T000000Z-s3", "20260101T000000Z-s3-2"]
        for name in run_dirs:
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            assert summary["run_id"] == name

    def test_make_run_id_embeds_seed(self):
        assert make_run_id(42).endswith("-s42")

    def test_run_ids_differ_by_seed(self):
        assert make_run_id(1) != make_run_id(2)


class TestTelemetryAndGates:
    def test_sharded_metrics_are_one_snapshot_per_shard(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main([*SIM_ARGS, "--shards", "2", "--metrics-out", str(metrics_path)]) == 0
        snapshots = json.loads(metrics_path.read_text())
        assert len(snapshots) == 2
        assert all("membership.members" in snapshot for snapshot in snapshots)

    def test_delivery_gate_failure_exits_nonzero(self, capsys):
        # A ratio above 1.0 is unreachable; the gate must trip.
        assert main([*SIM_ARGS, "--assert-delivery-ratio", "1.5"]) == 1
        assert "DELIVERY GATE FAILED" in capsys.readouterr().err


class TestArguments:
    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    def test_more_shards_than_nodes_is_a_usage_error(self, tmp_path, capsys):
        err = self._usage_error(
            ["run", "--scenario", "homogeneous", "--nodes", "4", "--shards", "5",
             "--run-dir", str(tmp_path / "runs")],
            capsys,
        )
        assert "--shards 5 exceeds the node count (4 for scenario 'homogeneous')" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--shards", "two", "'two' is not an integer"),
            ("--shards", "0", "must be a positive integer, got 0"),
            ("--nodes", "-3", "must be a positive integer, got -3"),
            ("--time-scale", "0", "must be positive, got 0.0"),
        ],
    )
    def test_counts_and_scales_must_be_positive(self, option, value, message, capsys):
        err = self._usage_error([*SIM_ARGS, "--realnet", option, value], capsys)
        assert message in err

    def test_unknown_mode_is_rejected(self, capsys):
        err = self._usage_error([*SIM_ARGS, "--shards", "2", "--mode", "fiber"], capsys)
        assert "invalid choice: 'fiber'" in err

    def test_bare_trace_requires_run_dir(self, capsys):
        err = self._usage_error([*SIM_ARGS, "--trace"], capsys)
        assert "--run-dir" in err

    def test_realnet_flags_need_realnet(self, capsys):
        err = self._usage_error([*SIM_ARGS, "--time-scale", "0.5"], capsys)
        assert "apply only to --realnet runs" in err

    def test_realnet_runs_are_never_sharded(self, capsys):
        err = self._usage_error([*SIM_ARGS, "--realnet", "--shards", "2"], capsys)
        assert "cannot be sharded" in err

    def test_a_command_is_required(self, capsys):
        self._usage_error([], capsys)


class TestModuleEntryPoints:
    def _python_m(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def test_run_is_the_one_command(self):
        completed = self._python_m("repro", "--help")
        assert completed.returncode == 0
        assert "{run}" in completed.stdout

    @pytest.mark.parametrize("package", ["repro.shard", "repro.realnet"])
    def test_the_old_substrate_commands_are_gone(self, package):
        completed = self._python_m(package, "run")
        assert completed.returncode != 0
        assert f"No module named {package}.__main__" in completed.stderr

    def test_telemetry_no_longer_records(self):
        completed = self._python_m("repro.telemetry", "record", "--scenario", "homogeneous")
        assert completed.returncode == 2
        assert "invalid choice: 'record'" in completed.stderr
