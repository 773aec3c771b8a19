"""Tests for the decoder-side internals: fragment structure, labels, failure injection."""

import itertools
import random

import networkx as nx
import pytest

from repro.core import FTCConfig, FTCLabeling, QueryFailure
from repro.core.labels import EdgeLabel, VertexLabel
from repro.core.query import ROOT_FRAGMENT, BasicQueryEngine, FragmentStructure
from repro.core.fast_query import FastQueryEngine
from repro.gf2.bulk import pack_lanes
from repro.graphs import Graph, bfs_spanning_tree, canonical_edge
from repro.graphs.fragments import fragment_index_of
from repro.labeling import AncestryLabel


def build_labeling(n=14, m=30, seed=0, f=3):
    nx_graph = nx.gnm_random_graph(n, m, seed=seed)
    if not nx.is_connected(nx_graph):
        nx_graph = nx.connected_watts_strogatz_graph(n, 4, 0.3, seed=seed)
    graph = Graph.from_networkx(nx_graph)
    return graph, FTCLabeling(graph, FTCConfig(max_faults=f))


# --------------------------------------------------------------- label objects

def test_edge_label_requires_ancestor_relation():
    upper = AncestryLabel(0, 10)
    lower = AncestryLabel(2, 5)
    EdgeLabel(ancestry_upper=upper, ancestry_lower=lower, outdetect_subtree_sum=(), outdetect_bits=0)
    with pytest.raises(ValueError):
        EdgeLabel(ancestry_upper=lower, ancestry_lower=upper, outdetect_subtree_sum=(), outdetect_bits=0)


def test_vertex_and_edge_label_bit_sizes():
    graph, labeling = build_labeling()
    for vertex in graph.vertices():
        assert labeling.vertex_label(vertex).bit_size() > 0
    for edge in graph.edges():
        label = labeling.edge_label(*edge)
        assert label.bit_size() >= label.outdetect_bits
        assert label.subtree_interval() == label.ancestry_lower


# ----------------------------------------------------------- fragment structure

def test_fragment_structure_matches_ground_truth():
    graph, labeling = build_labeling(seed=3)
    tree_prime = labeling.instance.auxiliary.tree_prime
    ancestry = labeling.instance.ancestry
    rng = random.Random(1)
    graph_edges = sorted(graph.edges())
    for _ in range(20):
        faults = rng.sample(graph_edges, 3)
        mapped = labeling.instance.auxiliary.map_faults(faults)
        fault_labels = [labeling.edge_label(u, v) for u, v in faults]
        structure = FragmentStructure(fault_labels)
        ground_truth = fragment_index_of(tree_prime, mapped)
        # Two vertices are in the same decoder-side fragment iff they are in
        # the same ground-truth component of T' - sigma(F).
        vertices = sorted(graph.vertices())
        for u, v in itertools.combinations(vertices[:10], 2):
            same_decoder = (structure.fragment_of_vertex(ancestry.label(u))
                            == structure.fragment_of_vertex(ancestry.label(v)))
            same_truth = ground_truth[u] == ground_truth[v]
            assert same_decoder == same_truth, (faults, u, v)


def test_fragment_structure_deduplicates_repeated_faults():
    graph, labeling = build_labeling(seed=4)
    edge = sorted(graph.edges())[0]
    label = labeling.edge_label(*edge)
    structure = FragmentStructure([label, label, label])
    assert structure.num_fragments() == 2


def test_fragment_structure_no_faults():
    structure = FragmentStructure([])
    assert structure.fragment_ids() == [ROOT_FRAGMENT]
    assert structure.fragment_of_preorder(5) == ROOT_FRAGMENT
    assert structure.boundary_of(ROOT_FRAGMENT) == set()


def test_fragment_boundaries_cover_all_faults():
    graph, labeling = build_labeling(seed=5)
    faults = sorted(graph.edges())[:3]
    fault_labels = [labeling.edge_label(u, v) for u, v in faults]
    structure = FragmentStructure(fault_labels)
    # Every fault index appears in exactly two fragment boundaries.
    counts = {index: 0 for index in range(len(faults))}
    for fragment_id in structure.fragment_ids():
        for index in structure.boundary_of(fragment_id):
            counts[index] += 1
    assert all(count == 2 for count in counts.values())


# ------------------------------------------------------------ query edge cases

def test_query_with_duplicate_faults():
    graph, labeling = build_labeling(seed=6)
    edge = sorted(graph.edges())[1]
    for s, t in itertools.combinations(sorted(graph.vertices())[:6], 2):
        expected = graph.connected(s, t, removed=[edge])
        assert labeling.connected(s, t, [edge, edge, edge]) == expected


def test_query_same_vertex_is_always_connected():
    graph, labeling = build_labeling(seed=7)
    faults = sorted(graph.edges())[:3]
    for vertex in list(graph.vertices())[:5]:
        assert labeling.connected(vertex, vertex, faults) is True


def test_query_with_no_faults_on_connected_graph():
    graph, labeling = build_labeling(seed=8)
    vertices = sorted(graph.vertices())
    assert labeling.connected(vertices[0], vertices[-1], []) is True


def test_query_faults_far_from_endpoints():
    """Faults in a different part of the graph must not change the answer."""
    # Two triangles joined by a path: faults inside one triangle do not affect
    # connectivity inside the other.
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]
    graph = Graph(edges)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    assert labeling.connected(5, 6, [(0, 1), (1, 2)]) is True
    assert labeling.connected(0, 1, [(4, 5), (6, 4)]) is True


def test_star_and_cycle_and_complete_graphs():
    star = Graph([(0, i) for i in range(1, 8)])
    cycle = Graph([(i, (i + 1) % 9) for i in range(9)])
    complete = Graph([(i, j) for i in range(6) for j in range(i + 1, 6)])
    for graph, f in ((star, 2), (cycle, 2), (complete, 3)):
        labeling = FTCLabeling(graph, FTCConfig(max_faults=f))
        edges = sorted(graph.edges())
        rng = random.Random(0)
        for _ in range(25):
            faults = rng.sample(edges, min(f, len(edges)))
            s, t = rng.sample(sorted(graph.vertices()), 2)
            assert labeling.connected(s, t, faults) == graph.connected(s, t, removed=faults)


def test_two_cliques_joined_by_bridge():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    edges += [(4, 5)]
    graph = Graph(edges)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=1))
    assert labeling.connected(0, 9, [(4, 5)]) is False
    assert labeling.connected(0, 9, [(0, 1)]) is True
    assert labeling.connected(0, 4, [(4, 5)]) is True


def test_labels_are_deterministic_across_rebuilds():
    graph, first = build_labeling(seed=9)
    _, second = build_labeling(seed=9)
    for vertex in graph.vertices():
        assert first.vertex_label(vertex) == second.vertex_label(vertex)
    for edge in graph.edges():
        assert first.edge_label(*edge) == second.edge_label(*edge)


# ------------------------------------------------------------ failure injection

def test_corrupted_fault_label_is_detected_or_harmless():
    """Corrupting an outdetect subtree sum must not cause silent nonsense beyond
    a wrong connectivity bit: the decoder either raises QueryFailure or returns
    a boolean (never crashes with an internal error)."""
    graph, labeling = build_labeling(seed=10, f=2)
    edges = sorted(graph.edges())
    s, t = sorted(graph.vertices())[0], sorted(graph.vertices())[-1]
    faults = edges[:2]
    genuine = [labeling.edge_label(u, v) for u, v in faults]
    corrupted_sum = tuple(
        pack_lanes([value ^ 0b1011 for value in scheme.lanes(level)], scheme.lane_bits)
        for scheme, level in zip(labeling.outdetect.level_schemes,
                                 genuine[0].outdetect_subtree_sum))
    corrupted = EdgeLabel(ancestry_upper=genuine[0].ancestry_upper,
                          ancestry_lower=genuine[0].ancestry_lower,
                          outdetect_subtree_sum=corrupted_sum,
                          outdetect_bits=genuine[0].outdetect_bits)
    decoder = labeling.decoder()
    try:
        result = decoder.connected(labeling.vertex_label(s), labeling.vertex_label(t),
                                   [corrupted, genuine[1]])
        assert isinstance(result, bool)
    except QueryFailure:
        pass


def test_engines_reject_inconsistent_outdetect_gracefully():
    """Both engines surface decoding failures as QueryFailure, not random exceptions."""
    graph, labeling = build_labeling(seed=11, f=2)
    outdetect = labeling.outdetect
    codec = labeling.instance.codec
    basic = BasicQueryEngine(outdetect, codec)
    fast = FastQueryEngine(outdetect, codec)
    source = VertexLabel(ancestry=AncestryLabel(1, 2))
    target = VertexLabel(ancestry=AncestryLabel(3, 4))
    # A fault label whose outdetect sum is garbage (valid structure, wrong values).
    garbage = tuple(pack_lanes([17] * scheme.lane_count, scheme.lane_bits)
                    for scheme in outdetect.level_schemes)
    fault = EdgeLabel(ancestry_upper=AncestryLabel(0, 9), ancestry_lower=AncestryLabel(1, 8),
                      outdetect_subtree_sum=garbage, outdetect_bits=0)
    for engine in (basic, fast):
        try:
            outcome = engine.connected(source, target, [fault])
            assert isinstance(outcome, bool)
        except QueryFailure:
            pass
