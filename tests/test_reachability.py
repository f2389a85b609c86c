"""``tools/reachability.py``: its ``def`` enumerator, recorder, verdicts and lists.

The recorder needs ``sys.monitoring`` (Python >= 3.12); everything else
the audit decides from the source tree alone and is checked on every
interpreter, so a stale ``KEEP`` entry or command line fails tier-1 instead
of waiting for the next multi-minute audit.
"""

import importlib
import importlib.util
import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reachability.py"

needs_monitoring = pytest.mark.skipif(
    sys.version_info < (3, 12), reason="the recorder needs sys.monitoring (Python >= 3.12)"
)

SAMPLE = '''\
import functools


def traced(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)

    return wrapper


@traced
@functools.lru_cache(maxsize=None)
def decorated(value):
    return value


class Thing:
    def method(self):
        def nested():
            return 1

        return nested()

    @property
    def prop(self):
        return 2


def plain():
    return 3


def never_called():
    return 4
'''

SAMPLE_DEFINITIONS = {
    "traced": 4,
    "traced.<locals>.wrapper": 5,
    "decorated": 12,
    "Thing.method": 19,
    "Thing.method.<locals>.nested": 20,
    "Thing.prop": 25,
    "plain": 30,
    "never_called": 34,
}

CALLS = (
    "import sample; sample.decorated(1); thing = sample.Thing(); "
    "thing.method(); thing.prop; sample.plain()"
)


@pytest.fixture(scope="module")
def reachability():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def sample_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("package")
    (root / "sample.py").write_text(SAMPLE, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def recorded(reachability, sample_root, tmp_path_factory):
    """The sample's definitions, and what a process calling all but one recorded."""
    hook = tmp_path_factory.mktemp("hook")
    out = tmp_path_factory.mktemp("records") / "records.tsv"
    reachability.write_hook(hook, sample_root, out)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(sample_root)]))
    subprocess.run([sys.executable, "-c", CALLS], env=env, check=True, timeout=60)
    definitions = reachability.module_definitions(sample_root / "sample.py", sample_root)
    return definitions, reachability.read_records(out)


def _function_code_objects(code):
    """Every function code object compiled into ``code`` (class bodies are not)."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _function_code_objects(const)


@needs_monitoring
def test_enumerator_and_recorder_agree_on_qualname_and_first_line(recorded):
    definitions, records = recorded
    assert {d.qualname: d.first_line for d in definitions} == SAMPLE_DEFINITIONS
    called = {d.key for d in definitions if d.qualname != "never_called"}
    assert called <= records


@needs_monitoring
def test_a_function_never_called_is_reported_unreached(reachability, recorded, capsys):
    definitions, records = recorded
    reach = reachability.classify(definitions, product=records, tests=set())
    assert [d.qualname for d in definitions if reach[d.key] == "unreached"] == ["never_called"]
    reachability.report(definitions, reach)
    listing = capsys.readouterr().out.split("\ntotals")[0]
    assert [line.split() for line in listing.splitlines() if line.startswith("  ")] == [
        ["34", "never_called", "2", "unreached", "delete"]
    ]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_enumerator_keys_definitions_as_cpython_keys_code_objects(reachability, sample_root):
    source = (sample_root / "sample.py").read_text(encoding="utf-8")
    compiled = compile(source, "sample.py", "exec")
    code_keys = {(c.co_qualname, c.co_firstlineno) for c in _function_code_objects(compiled)}
    definitions = reachability.module_definitions(sample_root / "sample.py", sample_root)
    assert {(d.qualname, d.first_line) for d in definitions} == code_keys
    assert {d.qualname: d.first_line for d in definitions} == SAMPLE_DEFINITIONS


def test_nesting_and_declarations(reachability, tmp_path):
    (tmp_path / "shapes.py").write_text(
        "class Base:\n"
        "    def interface(self):\n"
        '        """Subclasses answer."""\n'
        "\n"
        "    def stub(self): ...\n"
        "\n"
        "    def empty(self):\n"
        "        pass\n"
        "\n"
        "    async def fetch(self):\n"
        "        return 1\n",
        encoding="utf-8",
    )
    definitions = reachability.module_definitions(tmp_path / "shapes.py", tmp_path)
    assert [(d.qualname, d.declaration) for d in definitions] == [
        ("Base.interface", True),
        ("Base.stub", True),
        ("Base.empty", True),
        ("Base.fetch", False),
    ]
    fetch = definitions[-1]
    assert (fetch.first_line, fetch.last_line, fetch.lines) == (10, 11, 2)
    assert fetch.path == "shapes.py" and fetch.enclosing is None


def test_a_keep_entry_covers_its_names_what_they_nest_and_nothing_else(reachability):
    keep = reachability.Keep("keep: product API", "a/b.py", ("Thing",), "why")
    assert keep.covers("a/b.py", "Thing")
    assert keep.covers("a/b.py", "Thing.method.<locals>.nested")
    assert not keep.covers("a/b.py", "Things")
    assert not keep.covers("a/c.py", "Thing")
    whole = reachability.Keep("keep: product API", "a/b.py", (), "why")
    assert whole.covers("a/b.py", "anything") and not whole.covers("a/c.py", "anything")


def test_every_keep_entry_names_a_definition_in_the_tree(reachability):
    by_path = {}
    for definition in reachability.tree_definitions(reachability.PACKAGE):
        by_path.setdefault(definition.path, set()).add(definition.qualname)
    for keep in reachability.KEEP:
        assert keep.path in by_path, f"KEEP names a missing module {keep.path}"
        for name in keep.names:
            assert any(
                keep.covers(keep.path, qualname) and qualname.startswith(name)
                for qualname in by_path[keep.path]
            ), f"KEEP names {name!r}, which {keep.path} does not define"
        assert keep.verdict.startswith("keep: ") and keep.reason


def test_unseen_product_code_is_classified_as_product(reachability):
    definitions = reachability.tree_definitions(reachability.PACKAGE)
    unseen = [d for d in definitions if (d.path, d.qualname) in reachability.UNSEEN]
    assert len(unseen) == len(reachability.UNSEEN)
    reach = reachability.classify(unseen, product=set(), tests=set())
    assert all(reach[d.key] == "product" for d in unseen)


def test_report_counts_long_unkept_definitions_and_stale_keeps(
    reachability, monkeypatch, capsys
):
    def define(qualname, first, last, enclosing=None):
        return reachability.Definition("m.py", qualname, first, last, enclosing, False)

    outer = define("outer", 1, 10)
    inner = define("outer.<locals>.inner", 2, 9, enclosing=outer)
    short = define("short", 12, 14)
    kept = define("kept", 16, 30)
    monkeypatch.setattr(
        reachability,
        "KEEP",
        (
            reachability.Keep("keep: product API", "m.py", ("kept",), "documented"),
            reachability.Keep("keep: product API", "m.py", ("gone",), "stale"),
        ),
    )
    definitions = [outer, inner, short, kept]
    reach = reachability.classify(definitions, product=set(), tests={short.key})
    # outer (10 lines, unkept) and the stale entry are problems; inner is
    # listed inside outer, short is under MIN_LINES, kept is kept.
    assert reachability.report(definitions, reach) == 2
    listing = capsys.readouterr().out.split("\ntotals")[0]
    assert [line.split()[1:] for line in listing.splitlines() if line.startswith("  ")] == [
        ["outer", "10", "unreached", "delete"],
        ["short", "3", "test-only", "delete"],
        ["kept", "15", "unreached", "keep:", "product", "API"],
    ]


def test_read_records_parses_the_hook_lines(reachability, tmp_path):
    out = tmp_path / "records.tsv"
    assert reachability.read_records(out) == set()
    out.write_text("a/b.py\tThing.method\t19\na/b.py\tThing.method\t19\n", encoding="utf-8")
    assert reachability.read_records(out) == {("a/b.py", "Thing.method", 19)}


def test_product_commands_name_what_the_repo_has(reachability):
    from repro.scenarios import available_scenarios

    assert sorted(reachability._SCENARIOS) == sorted(available_scenarios())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(reachability._E2E_WORKLOADS) == [w["name"] for w in spec["workloads"]]
    for command in reachability.PRODUCT_COMMANDS:
        words = command.split()
        assert words[0] == "python", command
        if words[1] == "-m":
            assert importlib.util.find_spec(words[2]) is not None, command
        else:
            assert (ROOT / words[1]).is_file(), command
    examples = {path.name for path in (ROOT / "examples").glob("*.py")}
    listed = {Path(c.split()[1]).name for c in reachability.PRODUCT_COMMANDS if "examples/" in c}
    assert listed == examples


#: The module whose ``build_parser()`` parses each ``python -m`` command line.
PARSERS = {"repro": "repro.cli", "repro.telemetry": "repro.telemetry.cli",
           "repro.bench": "repro.bench.cli"}


def test_product_command_lines_parse(reachability, tmp_path):
    parsed = set()
    for command in reachability.PRODUCT_COMMANDS:
        words = shlex.split(command.replace("{tmp}", str(tmp_path)))
        if words[1] != "-m" or words[2] not in PARSERS:
            continue
        parser = importlib.import_module(PARSERS[words[2]]).build_parser()
        try:
            parser.parse_args(words[3:])
        except SystemExit:
            pytest.fail(f"{command!r} does not parse")
        parsed.add(words[2])
    assert parsed == set(PARSERS)
