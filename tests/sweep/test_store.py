"""Tests for the JSONL result store: persistence, resume, crash safety."""

import json

from repro.sweep.store import ResultStore, code_fingerprint, run_fingerprint, scale_fingerprint
from repro.sweep.summary import PointSummary


def _summary(cell: str, seed: int) -> PointSummary:
    return PointSummary(
        cell_id=cell,
        seed=seed,
        viewing=((20.0, 85.0),),
        delivery_ratio=0.97,
    )


class TestFingerprint:
    def test_fingerprint_is_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_scale_fingerprint_sees_contents_not_just_name(self):
        import dataclasses

        from repro.experiments.scale import SMOKE

        impostor = dataclasses.replace(SMOKE, num_nodes=SMOKE.num_nodes + 1)
        assert impostor.name == SMOKE.name
        assert scale_fingerprint(impostor) != scale_fingerprint(SMOKE)
        assert run_fingerprint(SMOKE) == f"{code_fingerprint()}+{scale_fingerprint(SMOKE)}"


class TestPersistence:
    def test_missing_file_loads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert store.get("cell", 1, "fp") is None

    def test_append_then_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append("cell-a", 42, "fp", _summary("cell-a", 42))
        store.append("cell-b", 43, "fp", _summary("cell-b", 43))

        reloaded = ResultStore(path)
        assert reloaded.get("cell-b", 43, "fp") == _summary("cell-b", 43)
        record = reloaded.get("cell-a", 42, "fp")
        assert record is not None
        assert record.viewing_percentage(20.0) == 85.0

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append("cell-a", 42, "old-code", _summary("cell-a", 42))
        assert ResultStore(path).get("cell-a", 42, "new-code") is None

    def test_append_does_not_parse_the_existing_file(self, tmp_path):
        """Write-mostly runs stay O(1) per point regardless of store size."""
        path = tmp_path / "store.jsonl"
        path.write_text("corrupt line that would be skipped on load\n", encoding="utf-8")
        store = ResultStore(path)
        store.append("cell-a", 42, "fp", _summary("cell-a", 42))
        # A second writer appends after us.  Had our append loaded the file,
        # our cached records would miss its line; the first get loads now.
        ResultStore(path).append("cell-b", 43, "fp", _summary("cell-b", 43))
        assert store.get("cell-b", 43, "fp") == _summary("cell-b", 43)
        assert store.get("cell-a", 42, "fp") == _summary("cell-a", 42)

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append("cell-a", 42, "fp", _summary("cell-a", 42))
        newer = PointSummary(cell_id="cell-a", seed=42, delivery_ratio=1.0)
        store.append("cell-a", 42, "fp", newer)
        assert ResultStore(path).get("cell-a", 42, "fp").delivery_ratio == 1.0


class TestCrashSafety:
    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append("cell-a", 42, "fp", _summary("cell-a", 42))
        store.append("cell-b", 43, "fp", _summary("cell-b", 43))
        # Simulate a writer killed mid-record: truncate the last line.
        content = path.read_text(encoding="utf-8")
        path.write_text(content[: len(content) // 2 + len(content) // 3], encoding="utf-8")

        reloaded = ResultStore(path)
        assert reloaded.get("cell-a", 42, "fp") is not None
        assert reloaded.get("cell-b", 43, "fp") is None

    def test_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('not json at all\n{"cell_id": "x"}\n', encoding="utf-8")
        ResultStore(path).append("cell-a", 42, "fp", _summary("cell-a", 42))
        store = ResultStore(path)
        store.load()
        assert store.get("cell-a", 42, "fp") == _summary("cell-a", 42)

    def test_reappend_after_torn_write_round_trips(self, tmp_path):
        """Regression: a record appended after a torn line must not be glued
        onto the torn fragment (which would corrupt *both* records)."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append("cell-a", 42, "fp", _summary("cell-a", 42))
        store.append("cell-b", 43, "fp", _summary("cell-b", 43))
        # A writer killed mid-append leaves a newline-less truncated tail.
        content = path.read_text(encoding="utf-8")
        torn = content[: -len(content.splitlines()[-1]) // 2 - 1]
        assert not torn.endswith("\n")
        path.write_text(torn, encoding="utf-8")

        # A fresh store (a restarted process) appends the lost point again.
        fresh = ResultStore(path)
        fresh.append("cell-b", 43, "fp", _summary("cell-b", 43))

        reloaded = ResultStore(path)
        reloaded.load()
        assert reloaded.get("cell-a", 42, "fp") is not None
        assert reloaded.get("cell-b", 43, "fp") is not None

    def test_blank_lines_between_records_are_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).append("cell-a", 42, "fp", _summary("cell-a", 42))
        path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
        ResultStore(path).append("cell-b", 43, "fp", _summary("cell-b", 43))
        reloaded = ResultStore(path)
        assert reloaded.get("cell-a", 42, "fp") == _summary("cell-a", 42)
        assert reloaded.get("cell-b", 43, "fp") == _summary("cell-b", 43)

    def test_append_to_clean_file_adds_no_blank_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).append("cell-a", 42, "fp", _summary("cell-a", 42))
        ResultStore(path).append("cell-b", 43, "fp", _summary("cell-b", 43))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(line.strip() for line in lines)

    def test_corrupt_lines_do_not_poison_resume(self, sweep_scale, tmp_path):
        """A store whose file holds torn/foreign lines still resumes: intact
        records are reused, the corrupted point is simply re-run."""
        from repro.sweep.executor import SerialExecutor, run_sweep
        from repro.sweep.spec import SweepGrid, SweepSpec
        from repro.sweep.store import run_fingerprint

        path = tmp_path / "sweep.jsonl"
        tasks = SweepSpec(
            name="resume-sweep",
            scale_name=sweep_scale.name,
            grid=SweepGrid(fanouts=(2, 4)),
        ).expand()
        run_sweep(sweep_scale, tasks, executor=SerialExecutor(), store=ResultStore(path))

        # Corrupt the *last* record (torn write) and prepend a foreign line.
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("not json\n" + "\n".join(lines), encoding="utf-8")

        store = ResultStore(path)
        resumed = run_sweep(
            sweep_scale, tasks, executor=SerialExecutor(), store=store, resume=True
        )
        assert resumed.reused == len(tasks) - 1
        assert resumed.executed == 1
        # The re-run point was re-appended; a second resume reuses everything.
        second = run_sweep(
            sweep_scale,
            tasks,
            executor=SerialExecutor(),
            store=ResultStore(path),
            resume=True,
        )
        assert second.reused == len(tasks)
        assert second.executed == 0
        fingerprint = run_fingerprint(sweep_scale)
        for task in tasks:
            seed = sweep_scale.seed + task.point.seed_offset
            assert ResultStore(path).get(task.cell_id, seed, fingerprint) is not None

    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append("cell-a", 42, "fp", _summary("cell-a", 42))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["cell_id"] == "cell-a"
        assert record["seed"] == 42
        assert record["fingerprint"] == "fp"
