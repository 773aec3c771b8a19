"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artifact of the paper (a Table-1 column, a
figure, a theorem's scaling claim); README.md ("Tests and benchmarks") says
how to run them.  The helpers here cache built labelings (they are
expensive) and provide a uniform way to print the result tables that
accompany the pytest-benchmark timings.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from repro.core.config import FTCConfig, SchemeVariant
from repro.core.ftc import FTCLabeling
from repro.graphs.graph import Graph
from repro.hierarchy.config import ThresholdRule
from repro.workloads import FaultModel, GraphFamily, make_graph, make_query_workload

#: The Table-1 rows reproduced by the harness (scheme name -> builder kwargs).
TABLE1_VARIANTS = {
    "DP21-2nd (whp)": dict(variant=SchemeVariant.SKETCH_WHP),
    "DP21-2nd (full)": dict(variant=SchemeVariant.SKETCH_FULL),
    "This paper (det, near-linear)": dict(variant=SchemeVariant.DETERMINISTIC_NEARLINEAR),
    "This paper (det, poly)": dict(variant=SchemeVariant.DETERMINISTIC_POLY),
    "This paper (rand, full)": dict(variant=SchemeVariant.RANDOMIZED_FULL),
}


@functools.lru_cache(maxsize=64)
def cached_graph(family_value: str, n: int, seed: int, density: float = 2.5) -> Graph:
    return make_graph(GraphFamily(family_value), n=n, seed=seed, density=density)


@functools.lru_cache(maxsize=64)
def cached_labeling(family_value: str, n: int, seed: int, max_faults: int,
                    variant_value: str, rule_value: str = "practical",
                    density: float = 2.5) -> FTCLabeling:
    graph = cached_graph(family_value, n, seed, density)
    config = FTCConfig(
        max_faults=max_faults,
        variant=SchemeVariant(variant_value),
        threshold_rule=ThresholdRule(rule_value),
    )
    return FTCLabeling(graph, config)


def cached_workload(family_value: str, n: int, seed: int, num_queries: int,
                    max_faults: int, model: FaultModel = FaultModel.TREE_BIASED):
    graph = cached_graph(family_value, n, seed)
    return make_query_workload(graph, num_queries=num_queries, max_faults=max_faults,
                               model=model, seed=seed + 1)


def bench_strict() -> bool:
    """Whether wall-clock thresholds are enforced (``REPRO_BENCH_STRICT=1``).

    Timing ratios are flaky on shared CI runners, so speedup thresholds are
    advisory by default and only fail the run in the dedicated strict CI job.
    Bit-identity and correctness assertions are never advisory.
    """
    return os.environ.get("REPRO_BENCH_STRICT", "").strip() == "1"


def check_speedup(name: str, speedup: float, minimum: float) -> None:
    """Enforce (strict mode) or report (default) a wall-clock speedup floor."""
    if speedup >= minimum:
        return
    message = ("%s speedup %.1fx is below the %.1fx threshold" % (name, speedup, minimum))
    if bench_strict():
        raise AssertionError(message)
    print("ADVISORY (set REPRO_BENCH_STRICT=1 to enforce): %s" % message)


def check_ratio_max(name: str, ratio: float, maximum: float,
                    enforce: bool | None = None) -> None:
    """Enforce (strict mode) or report (default) a wall-clock ratio ceiling.

    The mirror image of :func:`check_speedup` for "A must stay within X times
    B" targets, e.g. the ROADMAP's cold-session-within-2x-of-warm claim.
    ``enforce`` overrides the strict-mode default: ``False`` keeps a target
    advisory even under ``REPRO_BENCH_STRICT`` (for aspirational ROADMAP
    targets that are tracked but not yet met).
    """
    if ratio <= maximum:
        return
    message = ("%s ratio %.2fx exceeds the %.1fx ceiling" % (name, ratio, maximum))
    if enforce if enforce is not None else bench_strict():
        raise AssertionError(message)
    if enforce is False:
        print("ADVISORY (tracked target, not enforced): %s" % message)
    else:
        print("ADVISORY (set REPRO_BENCH_STRICT=1 to enforce): %s" % message)


# ----------------------------------------------------- machine-readable output

#: Results recorded by benchmark code during a pytest run, keyed by benchmark
#: name (``batch_queries`` for ``bench_batch_queries.py``); the conftest
#: session hook folds these into the emitted ``BENCH_<name>.json`` files.
_RECORDED_RESULTS: dict = {}


def bench_output_dir() -> Path:
    """Where ``BENCH_<name>.json`` files land (``REPRO_BENCH_DIR`` or CWD)."""
    directory = Path(os.environ.get("REPRO_BENCH_DIR", "").strip() or ".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def record_bench_result(name: str, metrics: dict) -> None:
    """Merge ``metrics`` into the machine-readable results of one benchmark.

    Benchmarks call this from inside their pytest tests for the quantities the
    timing fixtures do not capture (speedup ratios, table rows, workload
    parameters); everything recorded under ``name`` ends up in that
    benchmark's ``BENCH_<name>.json``.
    """
    _RECORDED_RESULTS.setdefault(name, {}).update(metrics)


def recorded_bench_results() -> dict:
    """The results recorded so far (consumed by the conftest session hook)."""
    return _RECORDED_RESULTS


def emit_bench_json(name: str, payload: dict) -> Path:
    """Write one benchmark's machine-readable results file.

    The file is ``BENCH_<name>.json`` in :func:`bench_output_dir`, with a
    small envelope (benchmark name, unix timestamp, strict flag) around the
    payload so :mod:`compare` can diff two runs of the same benchmark.
    Returns the written path.
    """
    path = bench_output_dir() / ("BENCH_%s.json" % name)
    document = {
        "benchmark": name,
        "created_unix": time.time(),
        "strict": bench_strict(),
        "results": payload,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True, default=str)
                    + "\n")
    print("wrote %s" % path)
    return path


def print_table(title: str, headers: list, rows: list) -> None:
    """Print an aligned results table (shows up with ``pytest -s`` and in logs)."""
    widths = [max(len(str(headers[i])), max((len(str(row[i])) for row in rows), default=0))
              for i in range(len(headers))]
    line = "  ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers))
    print("\n== %s" % title)
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print()
