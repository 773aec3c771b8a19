"""Package exports that load on first access (PEP 562).

``repro``, ``repro.core``, ``repro.graphs``, ``repro.hierarchy`` and
``repro.pool`` hold both the construction side and the query side, so they
import their exports under ``if TYPE_CHECKING:`` only, where static checkers
see real types, and :func:`lazy_exports` imports each one on first read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(package: str) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``.

    The first read of a name that the package imports under ``if
    TYPE_CHECKING:`` imports it from the same module and stores it in the
    package, so later reads do not come back here.
    """
    homes: dict[str, str] = {}

    def __getattr__(name: str) -> Any:
        if not homes:
            homes.update(_type_checking_imports(sys.modules[package]))
        try:
            module = homes[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name)) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


def _type_checking_imports(module: Any) -> dict[str, str]:
    """Name -> module of each ``from M import N`` under ``if TYPE_CHECKING:``."""
    import ast

    homes = {}
    source = module.__spec__.loader.get_source(module.__name__)
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            for statement in node.body:
                if isinstance(statement, ast.ImportFrom):
                    for alias in statement.names:
                        homes[alias.asname or alias.name] = statement.module
    return homes
