"""What an import of ``repro`` loads, and what every package name resolves to.

Every package ``__init__`` resolves its exports on first access
(:mod:`repro._lazy`), so a session's imports load the modules it runs and
not the substrates it does not.  Each check runs in a fresh interpreter:
what this process has imported already says nothing about what an import
loads, nor about the order in which a name and its submodule are bound.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE_INITS = sorted((SRC / "repro").rglob("__init__.py"))

#: What ``benchmarks/e2e/workloads.py`` imports to build any of its sessions.
SESSION_IMPORTS = """
import repro.core.session, repro.experiments.scale, repro.sweep.summary, repro.shard, repro.realnet
from repro.realnet import RealNetConfig, RealNetSession
from repro.shard import run_sharded
"""
NEVER_LOADED_BY_A_SESSION_IMPORT = (
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "repro.sweep.executor",
    "repro.realnet.compare",
    "repro.experiments.figures",
    "repro.telemetry.schema",
)

_CHECK = """
import importlib, json, pkgutil, sys

import repro

owners = json.loads(sys.argv[1])


def misbound():
    wrong = []
    for package, table in owners.items():
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", ()):
            owner = table.get(name)
            if owner is None:  # defined by the package itself
                expected = vars(module)[name]
            else:
                expected = getattr(importlib.import_module(owner), name)
            if getattr(module, name) is not expected:
                wrong.append(f"{package}.{name} is {getattr(module, name)!r}")
    return wrong


def import_every_submodule():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
"""


def package_name(init: Path) -> str:
    return ".".join(init.parent.relative_to(SRC).parts)


def defining_modules(init: Path) -> Dict[str, str]:
    """``{name: defining module}`` of a package ``__init__``, read from its source.

    The ``lazy_exports`` table and any ``from repro… import`` statement both
    count; a name neither binds is defined by the package itself.
    """
    owners = {}
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro."):
            owners.update({alias.asname or alias.name: node.module for alias in node.names})
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            table = ast.literal_eval(node.args[1])
            owners.update({name: module for module, names in table.items() for name in names})
    return owners


def run_fresh(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def check_bindings(steps: str) -> list:
    owners = {package_name(init): defining_modules(init) for init in PACKAGE_INITS}
    code = f"{_CHECK}\n{steps}\nprint(json.dumps(wrong))"
    return json.loads(run_fresh(code, json.dumps(owners)))


def declared_names(init: Path) -> set:
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            return set(ast.literal_eval(node.value))
    return set()


def test_every_package_resolves_its_exports_from_a_table_of_its_all():
    eager = []
    for init in PACKAGE_INITS:
        if "lazy_exports" not in init.read_text():
            eager.append(package_name(init))
            continue
        assert set(defining_modules(init)) - {"lazy_exports"} == declared_names(init) - {
            "__version__"
        }, package_name(init)
    # bench binds its suite module for itself; simulation.backend is code.
    assert eager == ["repro.bench", "repro.simulation.backend"]


def test_a_session_import_loads_no_substrate_it_does_not_run():
    code = f"import json, sys\n{SESSION_IMPORTS}\nprint(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(run_fresh(code)))
    assert [name for name in NEVER_LOADED_BY_A_SESSION_IMPORT if name in loaded] == []


def test_every_export_is_its_defining_modules_object_before_and_after_every_import():
    assert check_bindings("wrong = misbound()\nimport_every_submodule()\nwrong += misbound()") == []


def test_every_export_is_its_defining_modules_object_when_submodules_come_first():
    # Importing repro.sweep.aggregate binds the module under the name of its
    # function ``aggregate`` in repro.sweep before anything resolves it.
    assert check_bindings("import_every_submodule()\nwrong = misbound()") == []


def test_an_unknown_name_is_an_attribute_error():
    code = (
        "import repro.sweep\n"
        "try:\n    repro.sweep.no_such_name\n"
        "except AttributeError as error:\n    print(error)"
    )
    assert run_fresh(code).strip() == "module 'repro.sweep' has no attribute 'no_such_name'"
