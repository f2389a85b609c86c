"""Lazy package namespaces: a package's exports resolve on first access.

Every ``repro`` package ``__init__`` keeps its docstring and ``__all__`` and
binds a PEP 562 module ``__getattr__`` built from a table of its defining
modules::

    __getattr__ = lazy_exports(globals(), {
        "repro.core.config": ("GossipConfig",),
        "repro.core.session": ("SessionConfig", "StreamingSession"),
    })

so ``import repro.core.session`` loads the modules that session needs and
nothing the package merely re-exports.  An exported name is imported from
its defining module the first time it is looked up on the package, then
bound in the package namespace: later lookups are plain attribute reads and
never call ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Dict, Mapping, Sequence


def lazy_exports(
    namespace: Dict[str, Any], table: Mapping[str, Sequence[str]]
) -> Callable[[str], Any]:
    """Return the ``__getattr__`` that resolves ``table``'s names for ``namespace``.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    defining module to the names the package exports from it.

    A name can also be the name of its defining submodule: the function
    ``aggregate`` of ``repro.sweep.aggregate``.  Importing a submodule binds
    the module object under its name in the package, where a lookup finds
    it and never reaches ``__getattr__``.  Such a package's module class
    binds the export in the module's place instead, so the name means the
    function whichever import comes first, as it did when the package
    imported it eagerly.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in table.items() for name in names}
    shadowed = {name for name, module in owners.items() if module == f"{package}.{name}"}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    if shadowed:

        class Package(types.ModuleType):
            def __setattr__(self, name: str, value: Any) -> None:
                if name in shadowed and isinstance(value, types.ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = Package
    return __getattr__
