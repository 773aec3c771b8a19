"""Distributed construction of the f-FTC labels (Section 8, Theorem 3).

The construction runs on the CONGEST simulator and is organized exactly as in
the paper:

1. build a BFS tree of the auxiliary graph (``O(D)`` rounds);
2. compute ancestry labels from subtree sizes (convergecast + top-down
   interval assignment, ``O(D)`` rounds);
3. compute the outdetect vertex labels locally (each node knows the
   identifiers of its incident non-tree edges) and aggregate the subtree XOR
   sums of the tree-edge labels by *pipelined* convergecast
   (``O(D + f^2 polylog n)`` rounds — the label length in words is the
   pipeline depth);
4. the sparsification hierarchy itself is computed centrally and charged the
   ``Õ(√m · D)`` round budget of Lemma 13 (the distributed NetFind of the
   paper is a segment-parallel emulation of the same centralized code; we
   account for its rounds analytically).

The outcome is checked against the centralized construction: the distributed
ancestry labels and subtree XOR sums must match exactly, which the CONGEST
tests assert.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.congest.bfs import DistributedBFS
from repro.congest.primitives import convergecast_sum, pipelined_subtree_xor
from repro.core.config import FTCConfig
from repro.core.ftc import FTCLabeling
from repro.graphs.graph import Graph

Vertex = Hashable


class DistributedLabelConstruction:
    """Runs the distributed construction and accounts for rounds."""

    def __init__(self, graph: Graph, max_faults: int, config: FTCConfig | None = None):
        self.graph = graph
        self.config = config or FTCConfig(max_faults=max_faults)
        if self.config.max_faults != max_faults:
            raise ValueError("config.max_faults disagrees with max_faults")
        self.rounds: dict[str, int] = {}
        self._run()

    def _run(self) -> None:
        root = min(self.graph.vertices(), key=lambda v: (type(v).__name__, repr(v)))

        # Phase 1: distributed BFS tree (on the original graph; the auxiliary
        # graph is simulated on top of it, one extra round per phase).
        bfs = DistributedBFS(self.graph, root)
        tree = bfs.tree()
        self.rounds["bfs"] = bfs.rounds()

        # The centralized labeling gives the reference labels (and carries the
        # auxiliary-graph bookkeeping); the distributed phases below recompute
        # the communication-heavy parts and are compared against it.
        self.labeling = FTCLabeling(self.graph, self.config, root=root)
        instance = self.labeling.instance

        # Phase 2: ancestry labels = subtree sizes (convergecast) + top-down
        # interval assignment (broadcast depth).  We measure the convergecast.
        sizes, report = convergecast_sum(self.graph, tree,
                                         {v: 1 for v in self.graph.vertices()})
        self.rounds["ancestry_subtree_sizes"] = report["rounds"]
        self._subtree_sizes = sizes

        # Phase 3: pipelined aggregation of the outdetect vertex labels into
        # tree-edge subtree sums.  The vector width (in words) is what the
        # pipeline pays for beyond the tree depth.
        vectors, width = self._flatten_outdetect_labels(tree)
        if width > 0:
            xor_sums, xor_report = pipelined_subtree_xor(self.graph, tree, vectors, width)
            self.rounds["outdetect_aggregation"] = xor_report["rounds"]
            self._distributed_subtree_xor = xor_sums
        else:
            self.rounds["outdetect_aggregation"] = 0
            self._distributed_subtree_xor = {v: [] for v in self.graph.vertices()}
        self._label_width_words = width

        # Phase 4: hierarchy construction round budget (Lemma 13), accounted
        # analytically for the segment-parallel NetFind emulation.
        m = max(self.graph.num_edges(), 2)
        diameter = max(bfs.rounds(), 1)
        self.rounds["hierarchy_budget"] = int(math.ceil(math.sqrt(m) * diameter
                                                        + math.log2(m) * diameter))

    # ------------------------------------------------------------------ helpers

    def _flatten_outdetect_labels(self, tree) -> tuple[dict, int]:
        """Flatten each original vertex's outdetect label into a word vector.

        Subdivision vertices of G' are simulated by one of their endpoints, so
        for the round accounting we aggregate the labels of original vertices
        over the original tree — the quantity whose pipelined aggregation
        dominates the communication.
        """
        outdetect = self.labeling.outdetect
        vectors = {}
        width = 0
        for vertex in self.graph.vertices():
            flat = outdetect.lanes(outdetect.label_of(vertex))
            vectors[vertex] = flat
            width = max(width, len(flat))
        for vertex, flat in vectors.items():
            if len(flat) < width:
                vectors[vertex] = flat + [0] * (width - len(flat))
        return vectors, width

    # ------------------------------------------------------------------ results

    def subtree_sizes(self) -> dict:
        """Distributed subtree sizes (phase 2 result)."""
        return dict(self._subtree_sizes)

    def distributed_subtree_xor(self) -> dict:
        """Distributed subtree XOR vectors (phase 3 result)."""
        return dict(self._distributed_subtree_xor)

    def label_width_words(self) -> int:
        return self._label_width_words

    def total_rounds(self) -> int:
        return sum(self.rounds.values())

    def theoretical_bound(self) -> float:
        """The Õ(√m·D + f²) bound of Theorem 3 (with the polylog spelled out)."""
        m = max(self.graph.num_edges(), 2)
        n = max(self.graph.num_vertices(), 2)
        diameter = max(self.rounds.get("bfs", 1), 1)
        f = self.config.max_faults
        polylog = math.log2(n) ** 3
        return math.sqrt(m) * diameter + f * f * polylog + diameter

    def report(self) -> dict:
        return {
            "rounds": dict(self.rounds),
            "total_rounds": self.total_rounds(),
            "theoretical_bound": self.theoretical_bound(),
            "label_width_words": self._label_width_words,
        }

