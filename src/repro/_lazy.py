"""Lazy package exports (PEP 562): a package's names load on first use.

A package ``__init__`` that re-exports its submodules' names lists them
in a table ``{submodule: names}`` instead of importing them::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "records": ("records",),
        "spans": ("SPANS", "SpanRecorder"),
    })

``pkg.name``, ``from pkg import name`` and ``from pkg import *`` import
the defining submodule on first access and store the value in the
package's globals, so every later access is a plain attribute read.  A
name listed under its own submodule's name is that submodule.  Pickles
are unaffected: they name the defining module, not the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

#: ``{package: {name: submodule}}`` of every package set up here, for
#: the tests that check each table against the modules it names.
TABLES: dict[str, dict[str, str]] = {}


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """The names *table* lists, in its order, and the module-level
    ``__getattr__`` and ``__dir__`` of *package*."""
    where = {name: sub for sub, names in table.items() for name in names}
    TABLES[package] = where
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        sub = where.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}", name=name
            )
        module = importlib.import_module(f"{package}.{sub}")
        value = module if name == sub else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    return list(where), __getattr__, __dir__
