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
            "The loop is `repro.simulation.backend.run_loop`; a host is a\n"
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
