"""Graph, spanning-tree, Euler-tour, and auxiliary-graph substrates.

Everything the labeling schemes need to know about graphs lives here:

* :mod:`repro.graphs.graph` — a small undirected multigraph-free graph type
  with canonical edge identities (no dependency on networkx in the hot path).
* :mod:`repro.graphs.spanning_tree` — rooted spanning trees (BFS/DFS) and the
  rooted-tree structure (parents, children, subtree traversal).
* :mod:`repro.graphs.euler` — Euler tours, DFS intervals, the one-dimensional
  coordinates ``c(v)`` of Section 4.3 and the 2-D embedding of non-tree edges.
* :mod:`repro.graphs.auxiliary` — the auxiliary graph ``G'`` obtained by
  subdividing non-tree edges (Section 3.2, Figure 1) together with the edge
  mapping sigma.
* :mod:`repro.graphs.fragments` — ground-truth fragment decomposition of
  ``T - F`` used by tests and the construction side.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.graphs.graph import Graph, canonical_edge
    from repro.graphs.spanning_tree import RootedTree, bfs_spanning_tree, dfs_spanning_tree
    from repro.graphs.euler import EulerTour
    from repro.graphs.auxiliary import AuxiliaryGraph
    from repro.graphs.fragments import tree_fragments

__all__ = [
    "Graph",
    "canonical_edge",
    "RootedTree",
    "bfs_spanning_tree",
    "dfs_spanning_tree",
    "EulerTour",
    "AuxiliaryGraph",
    "tree_fragments",
]

__getattr__ = lazy_exports(__name__)
