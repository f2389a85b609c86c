"""Tests for the ``python -m repro.shard`` command line."""

import dataclasses

import pytest

import repro.shard.cli as cli
from repro.core.session import StreamingSession
from repro.shard.cli import main
from repro.sweep.summary import PointSummary

RUN_ARGS = ["run", "--scenario", "homogeneous", "--nodes", "12", "--seed", "3"]


def _field(line, name):
    """The value of the ``name=value`` token of a CLI report line."""
    token = next(token for token in line.split() if token.startswith(f"{name}="))
    return token[len(name) + 1 :]


class TestRun:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_parity_run_matches_the_scalar_oracle(self, mode, capsys):
        assert main([*RUN_ARGS, "--shards", "2", "--mode", mode, "--parity"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"scenario=homogeneous nodes=12 shards=2 mode={mode}"
        sharded = next(line for line in lines if line.startswith("sharded :"))
        scalar = next(line for line in lines if line.startswith("scalar  :"))
        for name in ("events", "delivery", "viewing(inf)"):
            assert _field(sharded, name) == _field(scalar, name)
        assert lines[-1] == "PARITY OK: 2-shard run is identical to the scalar oracle"

    def test_plain_run_reports_the_partition_and_skips_the_oracle(self, capsys):
        assert main([*RUN_ARGS, "--shards", "3"]) == 0
        out = capsys.readouterr().out
        windows = next(line for line in out.splitlines() if line.startswith("windows :"))
        sizes = windows[windows.index("[") + 1 : windows.index("]")].split(", ")
        assert len(sizes) == 3 and sum(map(int, sizes)) == 12
        assert int(_field(windows, "windows")) > 0
        assert "scalar" not in out and "PARITY" not in out

    def test_parity_mismatch_exits_one_and_names_every_differing_field(
        self, monkeypatch, capsys
    ):
        class OtherSeed(StreamingSession):
            """An oracle on the next seed: stands in for a diverged sharded run."""

            def __init__(self, config):
                super().__init__(dataclasses.replace(config, seed=config.seed + 1))

        monkeypatch.setattr(cli, "StreamingSession", OtherSeed)
        assert main([*RUN_ARGS, "--shards", "2", "--parity"]) == 1
        captured = capsys.readouterr()
        assert "PARITY OK" not in captured.out
        first, *details = captured.err.splitlines()
        assert first.startswith("PARITY FAILED: fields differ: ")
        named = first[len("PARITY FAILED: fields differ: "):].split(", ")
        assert "events_processed" in named
        assert len(details) == 3 * len(named)  # name, sharded value, scalar value
        assert [line.strip() for line in details[::3]] == [f"{name}:" for name in named]

    def test_compared_fields_leave_out_wall_clock(self):
        names = cli._summary_fields(PointSummary(cell_id="c", seed=1))
        assert "wall_seconds" not in names
        assert {"events_processed", "delivery_ratio", "viewing", "end_time"} <= set(names)


class TestArguments:
    def test_more_shards_than_nodes_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--scenario", "homogeneous", "--nodes", "4", "--shards", "5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--shards 5 exceeds the node count (4 for scenario 'homogeneous')" in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--shards", "two", "'two' is not an integer"),
            ("--shards", "0", "must be a positive integer, got 0"),
            ("--nodes", "-3", "must be a positive integer, got -3"),
        ],
    )
    def test_counts_must_be_positive_integers(self, option, value, message, capsys):
        args = {"--shards": "2", option: value}
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--scenario", "homogeneous", *[x for kv in args.items() for x in kv]])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_mode_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([*RUN_ARGS, "--shards", "2", "--mode", "fiber"])
        assert "invalid choice: 'fiber'" in capsys.readouterr().err

    def test_a_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2
