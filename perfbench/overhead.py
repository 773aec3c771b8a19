#!/usr/bin/env python3
"""What the traced run's wrappers cost on the decode path, measured in process.

Run from the repository root::

    python3 perfbench/overhead.py

Loads the benchmark's graph from a snapshot and decodes every fault set of
the cold panel twice: once bare and once under the wrappers of
``spans.install`` (spans plus the field-arithmetic counters), taking turns at
which goes first.  The two decodes of a set run back to back, so slow phases
of the host fall on both.  Prints the total of each side and the overhead.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Recorder, install  # noqa: E402


def main() -> int:
    from repro.api import Oracle
    from repro.core.snapshot import load_snapshot

    inputs = run.Inputs("cold-faults", 0)
    built = Oracle.build(inputs.graph, max_faults=run.MAX_FAULTS)
    oracle = load_snapshot(built.to_snapshot_bytes())
    decoder = oracle.decoder()
    totals = {False: 0.0, True: 0.0}
    ratios = []
    for index, query in enumerate(inputs.cold):
        labels = [oracle.edge_label(u, v) for u, v in query.faults]
        took = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            uninstall = install(Recorder()) if traced else None
            started = time.perf_counter()
            decoder.session(labels)
            took[traced] = time.perf_counter() - started
            if uninstall is not None:
                uninstall()
            totals[traced] += took[traced]
        ratios.append(took[True] / took[False])
    print("bare %.3f s, wrapped %.3f s over %d fault sets"
          % (totals[False], totals[True], len(inputs.cold)))
    print("overhead %.2f%% of the total; per set, median %.2f%%, quartiles %s"
          % (100.0 * (totals[True] / totals[False] - 1.0),
             100.0 * (statistics.median(ratios) - 1.0),
             ", ".join("%.2f%%" % (100.0 * (q - 1.0))
                       for q in statistics.quantiles(ratios, n=4)[::2])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
