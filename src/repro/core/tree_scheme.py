"""The tree-edge f-FTC labeling scheme (Lemma 1).

Vertices receive their ancestry label; every tree edge of ``T'`` receives the
ancestry labels of its endpoints plus the XOR of the outdetect labels over the
subtree hanging below it.  Proposition 4 then lets the decoder reconstruct the
outdetect label of any union of fragments purely from the labels of the faulty
edges bounding it.

All subtree sums come from one call, ``OutdetectScheme.subtree_sums``.  The
ancestry labels of Lemma 7 already order ``T'``: in DFS preorder every
subtree is one contiguous run of vertices, so each level's sums are one
prefix-XOR scan over its label matrix (see
:meth:`repro.gf2.bulk.BulkOps.subtree_xor`).
"""

from __future__ import annotations

from typing import Hashable

from repro.core.labels import EdgeLabel, VertexLabel
from repro.core.transform import TransformedInstance
from repro.graphs.graph import Edge, canonical_edge
from repro.outdetect.base import OutdetectScheme

Vertex = Hashable


class TreeEdgeLabeling:
    """Vertex and tree-edge labels of the tree-edge scheme.

    Parameters
    ----------
    instance:
        The transformed instance (auxiliary graph, ancestry labels, ...).
    outdetect:
        The S_{f,T'}-outdetect scheme over the non-tree edges of G'.
    """

    def __init__(self, instance: TransformedInstance, outdetect: OutdetectScheme):
        self.instance = instance
        self.outdetect = outdetect
        self._vertex_labels: dict[Vertex, VertexLabel] = {}
        self._edge_labels: dict[Edge, EdgeLabel] = {}
        self._build()

    def _build(self) -> None:
        ancestry = self.instance.ancestry
        tree = self.instance.auxiliary.tree_prime
        labels = {vertex: ancestry.label(vertex) for vertex in tree.vertices()}
        for vertex, label in labels.items():
            self._vertex_labels[vertex] = VertexLabel(ancestry=label)

        # Proposition 4's per-edge quantity L_out(V_{T'(e)}) for every tree
        # edge.  A vertex's interval [pre, post] spends one number on entry
        # and one on exit per vertex below it, so the vertex at preorder
        # position p heads positions p .. p + (post - pre - 1) / 2.
        preorder = sorted(labels, key=lambda vertex: labels[vertex].pre)
        last = [position + (labels[vertex].post - labels[vertex].pre - 1) // 2
                for position, vertex in enumerate(preorder)]
        subtree_sum = dict(zip(preorder, self.outdetect.subtree_sums(preorder, last)))
        # Every label of a scheme has the same size.
        bits = self.outdetect.label_bit_size(self.outdetect.zero_label())

        for vertex in tree.vertices():
            parent = tree.parent(vertex)
            if parent is None:
                continue
            self._edge_labels[canonical_edge(vertex, parent)] = EdgeLabel(
                ancestry_upper=labels[parent],
                ancestry_lower=labels[vertex],
                outdetect_subtree_sum=subtree_sum[vertex],
                outdetect_bits=bits,
            )

    # ------------------------------------------------------------- accessors

    def vertex_label(self, vertex: Vertex) -> VertexLabel:
        return self._vertex_labels[vertex]

    def tree_edge_label(self, u: Vertex, v: Vertex) -> EdgeLabel:
        return self._edge_labels[canonical_edge(u, v)]

    def all_vertex_labels(self) -> dict:
        return dict(self._vertex_labels)

    def all_edge_labels(self) -> dict:
        return dict(self._edge_labels)

    def max_vertex_label_bits(self) -> int:
        return max(label.bit_size() for label in self._vertex_labels.values())

    def max_edge_label_bits(self) -> int:
        if not self._edge_labels:
            return 0
        return max(label.bit_size() for label in self._edge_labels.values())
