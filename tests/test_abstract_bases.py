"""Every abstract base under ``src/repro`` has at least two implementations.

An ``abc.ABC`` with one concrete subclass is a layer its callers must still
see through.  A test fake counts as the second implementation: substituting
one is what such a layer is for.  Decided from the source with :mod:`ast`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _classes():
    """``(name, base names, declares an abstract method, path)`` per class."""
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                abstract = any(
                    _name(decorator) == "abstractmethod"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for decorator in item.decorator_list
                )
                yield node.name, {_name(base) for base in node.bases}, abstract, path


def test_every_abstract_base_has_two_concrete_subclasses():
    classes = list(_classes())
    children = {}
    for name, bases, abstract, _ in classes:
        for base in bases:
            children.setdefault(base, []).append((name, abstract))
    roots = [name for name, bases, _, path in classes if "ABC" in bases and PACKAGE in path.parents]
    assert roots, "no abstract base found: the check would be vacuous"
    for root in roots:
        concrete, seen, frontier = set(), set(), [root]
        while frontier:
            for child, abstract in children.get(frontier.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
                    if not abstract:
                        concrete.add(child)
        assert len(concrete) >= 2, f"{root} has one implementation: {sorted(concrete)}"
