"""Cross-checks between independent implementations of the same quantity.

Each test here validates one component against a second, independently coded
path: the two epsilon-net constructions against each other, adaptive against
non-adaptive decoding, Proposition-4 subtree sums against brute force, and the
decoder objects against the convenience API.
"""

import random

import networkx as nx
import pytest

from repro.core import FTCConfig, FTCLabeling
from repro.epsnet.greedy_net import greedy_rectangle_net
from repro.epsnet.netfind import hitting_threshold, net_find
from repro.epsnet.rectangles import Rectangle, points_in_rectangle
from repro.gf2 import GF2m
from repro.graphs import Graph, bfs_spanning_tree, canonical_edge
from repro.graphs.spanning_tree import non_tree_edges
from repro.hierarchy.config import ThresholdRule
from repro.outdetect import RSThresholdOutdetect


def random_connected_graph(n, m, seed):
    nx_graph = nx.gnm_random_graph(n, m, seed=seed)
    if not nx.is_connected(nx_graph):
        nx_graph = nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=seed)
    return Graph.from_networkx(nx_graph)


# ------------------------------------------------------------------ epsilon-nets

def test_netfind_and_greedy_both_hit_the_same_heavy_rectangles():
    rng = random.Random(3)
    points = sorted({(rng.randint(0, 120), rng.randint(0, 120)) for _ in range(90)})
    threshold = hitting_threshold(len(points))
    netfind_selection = {points[i] for i in net_find(points)}
    greedy_selection = {points[i] for i in greedy_rectangle_net(points, threshold)}
    for _ in range(150):
        xs = sorted(rng.randint(0, 120) for _ in range(2))
        ys = sorted(rng.randint(0, 120) for _ in range(2))
        rect = Rectangle(xs[0], xs[1], ys[0], ys[1])
        inside = points_in_rectangle(points, rect)
        if len(inside) >= threshold:
            assert any(p in netfind_selection for p in inside)
            assert any(p in greedy_selection for p in inside)


# --------------------------------------------------------------- adaptive decode

def test_adaptive_and_full_decoding_agree_on_vertex_sets():
    graph = random_connected_graph(16, 34, seed=5)
    tree = bfs_spanning_tree(graph, 0)
    extra = non_tree_edges(graph, tree)
    field = GF2m(20)
    edge_ids = {edge: index + 1 for index, edge in enumerate(extra)}
    adaptive = RSThresholdOutdetect(field, 8, graph.vertices(), edge_ids, adaptive=True)
    plain = RSThresholdOutdetect(field, 8, graph.vertices(), edge_ids, adaptive=False)
    rng = random.Random(6)
    vertices = sorted(graph.vertices())
    for _ in range(25):
        subset = set(rng.sample(vertices, rng.randint(1, len(vertices) - 1)))
        outgoing = [edge_ids[canonical_edge(u, v)] for u, v in extra
                    if (u in subset) != (v in subset)]
        if len(outgoing) > 8:
            continue
        combined_a = adaptive.label_of_set(subset)
        combined_p = plain.label_of_set(subset)
        assert combined_a == combined_p
        assert adaptive.decode(combined_a) == plain.decode(combined_p) == sorted(outgoing)


# -------------------------------------------------------------- Proposition 4

def test_proposition4_subtree_sums_match_brute_force():
    """The edge label's subtree sum equals the XOR of vertex outdetect labels below it."""
    # The first graph has one level of 15 edges, below the bulk backends'
    # SMALL_ROWS, so its labels are built as Python rows; the second has
    # levels of 81 and 7 edges, one built as an array (when numpy is
    # installed) and one as Python rows.
    for n, m in ((14, 28), (40, 120)):
        graph = random_connected_graph(n, m, seed=7)
        labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
        outdetect = labeling.outdetect
        tree_prime = labeling.instance.auxiliary.tree_prime
        for vertex in list(tree_prime.vertices()):
            parent = tree_prime.parent(vertex)
            if parent is None:
                continue
            edge_label = labeling._tree_labeling.tree_edge_label(vertex, parent)
            brute = outdetect.label_of_set(tree_prime.subtree_vertices(vertex))
            assert edge_label.outdetect_subtree_sum == brute


def test_whole_tree_outdetect_sum_is_zero():
    graph = random_connected_graph(14, 28, seed=8)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    outdetect = labeling.outdetect
    all_vertices = list(labeling.instance.auxiliary.tree_prime.vertices())
    assert outdetect.label_of_set(all_vertices) == outdetect.zero_label()
    assert outdetect.decode(outdetect.zero_label()) == []


# ----------------------------------------------------------- threshold rules

def test_practical_and_paper_rules_agree_with_each_other():
    graph = random_connected_graph(20, 44, seed=9)
    paper = FTCLabeling(graph, FTCConfig(max_faults=2, threshold_rule=ThresholdRule.PAPER))
    practical = FTCLabeling(graph, FTCConfig(max_faults=2,
                                             threshold_rule=ThresholdRule.PRACTICAL))
    rng = random.Random(10)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    for _ in range(30):
        faults = rng.sample(edges, 2)
        s, t = rng.sample(vertices, 2)
        expected = graph.connected(s, t, removed=faults)
        assert paper.connected(s, t, faults) == expected
        assert practical.connected(s, t, faults) == expected
    # The paper rule never uses a smaller threshold than the practical rule.
    paper_thresholds = paper.hierarchy.thresholds
    practical_thresholds = practical.hierarchy.thresholds
    assert paper_thresholds[0] >= practical_thresholds[0]


# ------------------------------------------------------------------- decoder API

def test_decoder_object_matches_convenience_api():
    graph = random_connected_graph(15, 32, seed=11)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    decoder = labeling.decoder()
    rng = random.Random(12)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    for _ in range(20):
        faults = rng.sample(edges, 2)
        s, t = rng.sample(vertices, 2)
        via_decoder = decoder.connected(labeling.vertex_label(s), labeling.vertex_label(t),
                                        [labeling.edge_label(u, v) for u, v in faults])
        assert via_decoder == labeling.connected(s, t, faults)
