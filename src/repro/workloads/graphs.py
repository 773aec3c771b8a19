"""Graph families used by the experiments.

Every generator returns a *connected* :class:`~repro.graphs.graph.Graph` and is
fully determined by ``(family, n, seed)`` plus family-specific parameters, so
every benchmark number can be regenerated exactly.
"""

from __future__ import annotations

import heapq
import random
from enum import Enum

import networkx as nx

from repro.graphs.graph import Graph

try:  # networkx's tree/chord sampling needs numpy; we keep a pure fallback.
    import numpy  # noqa: F401
    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the numpy-absent CI job
    _HAVE_NUMPY = False


class GraphFamily(Enum):
    """Synthetic graph families for the benchmark harness."""

    ERDOS_RENYI = "erdos-renyi"          # G(n, m) with m ~ density * n
    BARABASI_ALBERT = "barabasi-albert"  # preferential attachment
    RANDOM_REGULAR = "random-regular"    # d-regular
    GRID = "grid"                        # 2-D grid (many bridges after faults)
    TREE_PLUS_CHORDS = "tree-chords"     # spanning tree plus a few random chords
    COMPLETE = "complete"                # dense extreme


def make_graph(family: GraphFamily, n: int, seed: int = 0, density: float = 2.5,
               degree: int = 4) -> Graph:
    """Build a connected graph of roughly ``n`` vertices from the given family.

    Parameters
    ----------
    family:
        Which generator to use.
    n:
        Target vertex count (grids round to the nearest rectangle).
    seed:
        Seed for the randomized families.
    density:
        Average edge/vertex ratio for the Erdős–Rényi and tree-plus-chords
        families.
    degree:
        Degree for the random-regular family and attachment count for
        Barabási–Albert.
    """
    if n < 2:
        raise ValueError("graphs need at least two vertices, got n=%d" % n)
    if family is GraphFamily.ERDOS_RENYI:
        target_edges = max(int(density * n), n)
        nx_graph = nx.gnm_random_graph(n, target_edges, seed=seed)
        nx_graph = _ensure_connected(nx_graph, seed)
    elif family is GraphFamily.BARABASI_ALBERT:
        nx_graph = nx.barabasi_albert_graph(n, max(min(degree, n - 1), 1), seed=seed)
    elif family is GraphFamily.RANDOM_REGULAR:
        effective_degree = min(degree, n - 1)
        if (effective_degree * n) % 2 == 1:
            effective_degree -= 1
        nx_graph = nx.random_regular_graph(max(effective_degree, 2), n, seed=seed)
        nx_graph = _ensure_connected(nx_graph, seed)
    elif family is GraphFamily.GRID:
        side = max(int(round(n ** 0.5)), 2)
        nx_graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(side, side))
    elif family is GraphFamily.TREE_PLUS_CHORDS:
        if _HAVE_NUMPY:
            nx_graph = nx.random_labeled_tree(n, seed=seed)
            rng = nx.utils.create_random_state(seed)
            rand_pair = lambda: (rng.randint(0, n), rng.randint(0, n))  # noqa: E731
        else:
            # networkx's samplers need numpy; fall back to a pure-Python
            # uniform random tree (random Prüfer sequence) + chord sampler.
            nx_graph = _random_tree_pure(n, seed)
            py_rng = random.Random(seed)
            rand_pair = lambda: (py_rng.randrange(n), py_rng.randrange(n))  # noqa: E731
        chords = max(int((density - 1.0) * n), 1)
        added = 0
        attempts = 0
        while added < chords and attempts < 20 * chords:
            u, v = rand_pair()
            attempts += 1
            if u != v and not nx_graph.has_edge(u, v):
                nx_graph.add_edge(u, v)
                added += 1
    elif family is GraphFamily.COMPLETE:
        nx_graph = nx.complete_graph(n)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError("unknown graph family %r" % (family,))
    return Graph.from_networkx(nx_graph)


def _random_tree_pure(n: int, seed: int):
    """Uniform random labeled tree from a random Prüfer sequence (no numpy)."""
    rng = random.Random(seed)
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(n))
    if n == 2:
        nx_graph.add_edge(0, 1)
        return nx_graph
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for vertex in sequence:
        degree[vertex] += 1
    leaves = [vertex for vertex in range(n) if degree[vertex] == 1]
    heapq.heapify(leaves)
    for vertex in sequence:
        leaf = heapq.heappop(leaves)
        nx_graph.add_edge(leaf, vertex)
        degree[leaf] = 0
        degree[vertex] -= 1
        if degree[vertex] == 1:
            heapq.heappush(leaves, vertex)
    last = [vertex for vertex in range(n) if degree[vertex] == 1]
    nx_graph.add_edge(last[0], last[1])
    return nx_graph


def _ensure_connected(nx_graph, seed: int):
    """Connect a possibly disconnected graph by linking its components."""
    if nx.is_connected(nx_graph):
        return nx_graph
    components = [sorted(component) for component in nx.connected_components(nx_graph)]
    for first, second in zip(components, components[1:]):
        nx_graph.add_edge(first[0], second[0])
    return nx_graph


def graph_summary(graph: Graph) -> dict:
    """n, m, and average degree — printed at the top of every experiment."""
    n = graph.num_vertices()
    m = graph.num_edges()
    return {"n": n, "m": m, "avg_degree": (2.0 * m / n) if n else 0.0}
