"""``tools/check_docs.py``: documented bench filters select something, named code exists."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def filter_problems(check_docs, tmp_path, monkeypatch, text):
    """(checked, problems) of the bench-filter check over one document."""
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    problems = []
    return check_docs.check_bench_filters(doc, problems), problems


class TestBenchFilters:
    def test_filter_naming_a_registered_benchmark_passes(self, check_docs, tmp_path, monkeypatch):
        text = "```bash\npython -m repro.bench run --filter engine-throughput\n```\n"
        assert filter_problems(check_docs, tmp_path, monkeypatch, text) == (1, [])

    def test_filter_selecting_nothing_is_reported(self, check_docs, tmp_path, monkeypatch):
        text = "```bash\npython -m repro.bench list --filter=sweep-parallel\n```\n"
        checked, problems = filter_problems(check_docs, tmp_path, monkeypatch, text)
        assert checked == 1
        assert problems == [
            "doc.md:2: block filters benchmarks by 'sweep-parallel', which selects none"
        ]

    def test_backslash_continued_command_is_one_line(self, check_docs, tmp_path, monkeypatch):
        text = "```bash\npython -m repro.bench run \\\n    --filter ghost --scale smoke\n```\n"
        checked, problems = filter_problems(check_docs, tmp_path, monkeypatch, text)
        assert checked == 1
        assert "'ghost'" in problems[0]

    def test_prose_outside_fenced_blocks_is_not_checked(self, check_docs, tmp_path, monkeypatch):
        text = "Run `repro.bench run --filter ghost` for nothing.\n"
        assert filter_problems(check_docs, tmp_path, monkeypatch, text) == (0, [])

    def test_repository_docs_pass_every_check(self, check_docs, capsys):
        assert check_docs.main() == 0
        assert "docs check ok" in capsys.readouterr().out


class TestDottedNames:
    def test_stale_name_is_reported(self, check_docs, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        doc = tmp_path / "doc.md"
        doc.write_text(
            "The loop is `repro.simulation.engine.Simulator.run`; a host is a\n"
            "`repro.core.host.Host`.  Windows ran in `repro.simulation.backend.sharded`.\n",
            encoding="utf-8",
        )
        problems = []
        assert check_docs.check_dotted_names(doc, problems) == 3
        assert problems == [
            "doc.md:2: names repro.simulation.backend.sharded, which does not exist"
        ]

    def test_committed_docs_name_only_code_that_exists(self, check_docs):
        problems = []
        checked = sum(
            check_docs.check_dotted_names(path, problems) for path in check_docs.doc_files()
        )
        assert checked > 0
        assert problems == []


class TestSourceDocPaths:
    def test_missing_document_is_reported(self, check_docs, tmp_path, monkeypatch):
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "real.md").write_text("# Real\n", encoding="utf-8")
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            '"""See ``docs/real.md``.\n\nSee ``DESIGN.md`` and docs/gone.md."""\n',
            encoding="utf-8",
        )
        problems = []
        assert check_docs.check_source_doc_paths(problems) == 3
        assert problems == [
            "src/pkg/mod.py:3: names DESIGN.md, which does not exist",
            "src/pkg/mod.py:3: names docs/gone.md, which does not exist",
        ]

    def test_main_reports_a_missing_document(self, check_docs, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        (tmp_path / "README.md").write_text("# Readme\n", encoding="utf-8")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text('"""See EXPERIMENTS.md."""\n', encoding="utf-8")
        assert check_docs.main() == 1
        captured = capsys.readouterr()
        assert "src/mod.py:1: names EXPERIMENTS.md, which does not exist" in captured.err
        assert "1 document paths in src/ checked, 1 problem(s)" in captured.out

    def test_committed_sources_name_only_documents_that_exist(self, check_docs):
        problems = []
        assert check_docs.check_source_doc_paths(problems) > 0
        assert problems == []


class TestCommands:
    def test_deleted_module_and_subcommand_are_reported(self, check_docs):
        text = (
            "python -m repro run --scenario homogeneous\n"
            "python -m repro.shard run --scenario homogeneous \\\n    --shards 2\n"
            "python -m repro.telemetry record --scenario homogeneous\n"
            "python -m repro.telemetry summarize t.jsonl\n"
            "python -m repro.experiments --list\n"
        )
        problems = []
        assert check_docs.check_commands("doc.md:3", text, problems) == 5
        assert problems == [
            "doc.md:3: runs python -m repro.shard, which has no __main__",
            "doc.md:3: runs python -m repro.telemetry record, which is not one of its "
            "subcommands (summarize, export, diff)",
        ]

    def test_main_checks_fenced_blocks_and_workflows(
        self, check_docs, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        (tmp_path / "README.md").write_text(
            "Run `python -m repro.realnet run` in prose: not checked.\n\n"
            "```bash\npython -m repro.realnet compare --nodes 8\n```\n",
            encoding="utf-8",
        )
        workflows = tmp_path / ".github" / "workflows"
        workflows.mkdir(parents=True)
        (workflows / "ci.yml").write_text(
            "run: |\n  python -m repro.bench run --scale smoke\n"
            "  python -m repro.bench replay x.json\n",
            encoding="utf-8",
        )
        assert check_docs.main() == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "README.md:4: runs python -m repro.realnet, which has no __main__",
            ".github/workflows/ci.yml: runs python -m repro.bench replay, which is not "
            "one of its subcommands (run, compare, record, list)",
        ]
        assert "3 python -m commands resolved, 0 document paths" in captured.out

    def test_committed_commands_all_resolve(self, check_docs):
        problems = []
        checked = sum(
            check_docs.check_commands(where, text, problems)
            for where, text in check_docs.command_sources()
        )
        assert checked > 0
        assert problems == []
