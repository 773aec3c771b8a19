"""Package exports that load on first access (PEP 562).

``repro``, ``repro.core``, ``repro.graphs``, ``repro.hierarchy`` and
``repro.pool`` hold both the construction side and the query side, so they
import their exports under ``if TYPE_CHECKING:`` only, where static checkers
see real types, and :func:`lazy_exports` imports each one on first read.
"""

from __future__ import annotations

import importlib.util
import sys
from typing import Any, Callable


def lazy_exports(package: str) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``.

    The first read of a name that the package imports under ``if
    TYPE_CHECKING:`` imports it from the same module and stores it in the
    package, so later reads do not come back here.
    """
    homes: dict[str, tuple[str, str]] = {}

    def __getattr__(name: str) -> Any:
        if not homes:
            homes.update(_type_checking_imports(sys.modules[package]))
        try:
            module, imported = homes[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name)) from None
        if module == package:
            # ``from . import X`` names a submodule; reading X from the
            # package itself would come back here.
            value = importlib.import_module(module + "." + imported)
        else:
            value = getattr(importlib.import_module(module), imported)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


def _type_checking_imports(module: Any) -> dict[str, tuple[str, str]]:
    """Bound name -> (module, imported name) of each ``from M import N as B``
    under ``if TYPE_CHECKING:``, with relative modules resolved."""
    import ast

    homes = {}
    source = module.__spec__.loader.get_source(module.__name__)
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            for statement in node.body:
                if isinstance(statement, ast.ImportFrom):
                    home = importlib.util.resolve_name(
                        "." * statement.level + (statement.module or ""),
                        module.__package__)
                    for alias in statement.names:
                        homes[alias.asname or alias.name] = (home, alias.name)
    return homes
