"""The serving process imports only the query side of the scheme.

The paper's scheme answers ``connected(s, t, F)`` from the labels of s, t and
F alone, so ``repro serve`` needs the snapshot reader and the decoder, and
never the construction (the epsilon-net sparsification, the hierarchy, the
build plan) or the ``--workers`` fleet.  The packages that hold both sides
resolve their exported names on first access (:mod:`repro._lazy`).  Both
tests run in a fresh process, whose ``sys.modules`` the rest of the suite has
not filled.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.api import open_oracle
from repro.workloads import GraphFamily, make_graph

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages whose exported names load on first access.
LAZY_PACKAGES = ("repro", "repro.core", "repro.graphs", "repro.hierarchy", "repro.pool")

#: Modules that only the construction side or the ``--workers`` fleet imports.
BUILD_SIDE = {"repro.build", "repro.epsnet", "repro.hierarchy.base",
              "repro.hierarchy.deterministic", "repro.hierarchy.randomized",
              "repro.core.transform", "repro.core.tree_scheme", "repro.core.oracle",
              "repro.graphs.spanning_tree", "repro.graphs.euler",
              "repro.graphs.auxiliary", "repro.graphs.fragments",
              "repro.pool.frontend", "multiprocessing", "concurrent.futures.process"}


def _build_side(modules: list) -> list:
    return [name for name in modules if name in BUILD_SIDE
            or name.rpartition(".")[0] in ("repro.build", "repro.epsnet")]


def _run_child(script: str, job: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                            input=json.dumps(job), capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, (result.returncode, result.stderr)
    return json.loads(result.stdout)


def test_serving_process_imports_only_the_query_side(tmp_path):
    """What ``repro serve`` runs before its readiness line, and queries
    after it, load no construction-side module and no numpy, and the
    answers are the ``build:`` oracle's."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=48, seed=7)
    built = open_oracle("build:", graph=graph, max_faults=3)  # GF(2^16), k = 73
    path = tmp_path / "served.ftcs"
    built.save(str(path))
    rng = random.Random(7)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    queries = [(rng.sample(edges, 3), [rng.sample(vertices, 2) for _ in range(12)])
               for _ in range(6)]
    report = _run_child("""
        import json
        import sys

        import repro.cli
        from repro.api import Oracle

        job = json.load(sys.stdin)
        oracle = Oracle.load(job["path"])
        import repro.pool.prewarm
        import repro.server.server

        ready = sorted(sys.modules)
        answers = [oracle.connected_many([tuple(pair) for pair in pairs],
                                         [tuple(fault) for fault in faults])
                   for faults, pairs in job["queries"]]
        print(json.dumps({"ready": ready, "answered": sorted(sys.modules),
                          "answers": answers}))
    """, {"path": str(path), "queries": queries})

    assert _build_side(report["ready"]) == []
    assert _build_side(report["answered"]) == []
    assert "numpy" not in report["ready"]
    assert "numpy" not in report["answered"]
    assert report["answers"] == [
        built.connected_many([tuple(pair) for pair in pairs],
                             [tuple(fault) for fault in faults])
        for faults, pairs in queries]


def test_lazy_package_exports_resolve_to_their_modules():
    """Every name in ``__all__`` of a lazy package resolves, on first access
    in a fresh process, to the object its defining module holds."""
    report = _run_child("""
        import importlib
        import json
        import sys

        problems = []
        for package in json.load(sys.stdin):
            module = importlib.import_module(package)
            for name in module.__all__:
                try:
                    value = getattr(module, name)
                except AttributeError as error:
                    problems.append(str(error))
                    continue
                home = getattr(value, "__module__", None)
                if home is not None and \\
                        getattr(importlib.import_module(home), name, None) is not value:
                    problems.append("%s.%s is not %s.%s" % (package, name, home, name))
        print(json.dumps({"problems": problems}))
    """, list(LAZY_PACKAGES))
    assert report["problems"] == []


def test_lazy_exports_follow_aliased_and_relative_imports(tmp_path, monkeypatch):
    """``from M import X as Y`` exports M's X under Y, and ``from . import
    X`` and ``from .M import X`` resolve against the package."""
    package = tmp_path / "lazyprobe"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent("""
        from typing import TYPE_CHECKING

        from repro._lazy import lazy_exports

        if TYPE_CHECKING:
            from lazyprobe.values import original as renamed
            from lazyprobe.values import shadow
            from . import helpers
            from . import helpers as helpers_alias
            from .values import original

        __getattr__ = lazy_exports(__name__)
    """))
    (package / "values.py").write_text(
        "original = 'original'\nshadow = 'shadow'\nrenamed = 'not the export'\n")
    (package / "helpers.py").write_text("marker = 'helpers'\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("lazyprobe", "lazyprobe.values", "lazyprobe.helpers"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        import lazyprobe

        assert lazyprobe.renamed == "original"
        assert lazyprobe.shadow == "shadow"
        assert lazyprobe.original == "original"
        assert lazyprobe.helpers.marker == "helpers"
        assert lazyprobe.helpers_alias is lazyprobe.helpers
    finally:
        for name in ("lazyprobe", "lazyprobe.values", "lazyprobe.helpers"):
            sys.modules.pop(name, None)
