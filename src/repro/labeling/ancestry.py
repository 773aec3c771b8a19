"""Ancestry labeling scheme (Kannan, Naor, Rudich [KNR92]; Lemma 7).

Every vertex of a rooted tree receives the pair ``(pre, post)`` of its DFS
pre-order and post-order indices.  Vertex ``u`` is an ancestor of ``v``
(inclusive) exactly when the interval ``[pre_u, post_u]`` contains
``[pre_v, post_v]``.  Labels are ``O(log n)`` bits, construction is linear,
and decoding is constant time — exactly the guarantees of Lemma 7.

The decoder side of the FTC scheme manipulates only these label objects (never
the tree), which is what keeps the overall decoding function universal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:
    from repro.graphs.spanning_tree import RootedTree

Vertex = Hashable


@dataclass(frozen=True, order=True)
class AncestryLabel:
    """An interval label ``[pre, post]`` of one vertex."""

    pre: int
    post: int

    def is_ancestor_of(self, other: "AncestryLabel") -> bool:
        """Inclusive ancestry: every label is an ancestor of itself."""
        return self.pre <= other.pre and other.post <= self.post

    def is_strict_ancestor_of(self, other: "AncestryLabel") -> bool:
        return self != other and self.is_ancestor_of(other)

    def contains_preorder(self, preorder: int) -> bool:
        """Whether a vertex with the given preorder lies in this subtree."""
        return self.pre <= preorder <= self.post

    def bit_size(self) -> int:
        """Number of bits needed to store the label."""
        return max(self.pre.bit_length(), 1) + max(self.post.bit_length(), 1)

    def pack(self, modulus: int) -> int:
        """Pack into a single integer given an exclusive bound on pre/post."""
        return self.pre * modulus + self.post

    @classmethod
    def unpack(cls, packed: int, modulus: int) -> "AncestryLabel":
        return cls(pre=packed // modulus, post=packed % modulus)


def ancestry_relation(a: AncestryLabel, b: AncestryLabel) -> int:
    """The universal decoder of Lemma 7.

    Returns ``1`` if ``a`` is a strict ancestor of ``b``, ``-1`` if ``b`` is a
    strict ancestor of ``a``, and ``0`` otherwise (including equality).
    """
    if a == b:
        return 0
    if a.is_ancestor_of(b):
        return 1
    if b.is_ancestor_of(a):
        return -1
    return 0


class AncestryLabeling:
    """Assigns :class:`AncestryLabel` objects to all vertices of a rooted tree."""

    def __init__(self, tree: RootedTree):
        self.tree = tree
        self._labels: dict[Vertex, AncestryLabel] = {}
        self._build()

    def _build(self) -> None:
        counter = 0
        order: dict[Vertex, int] = {}
        post: dict[Vertex, int] = {}
        stack: list[tuple] = [(self.tree.root, False)]
        while stack:
            vertex, expanded = stack.pop()
            if expanded:
                post[vertex] = counter
                counter += 1
                continue
            order[vertex] = counter
            counter += 1
            stack.append((vertex, True))
            for child in reversed(self.tree.children(vertex)):
                stack.append((child, False))
        for vertex in self.tree.vertices():
            self._labels[vertex] = AncestryLabel(pre=order[vertex], post=post[vertex])

    # ------------------------------------------------------------- accessors

    def label(self, vertex: Vertex) -> AncestryLabel:
        return self._labels[vertex]

    def labels(self) -> dict:
        """A copy of the full vertex -> label mapping."""
        return dict(self._labels)

    def max_value(self) -> int:
        """Exclusive upper bound on any pre/post value (used for packing)."""
        return 2 * self.tree.num_vertices()

    def max_bit_size(self) -> int:
        """Maximum label size in bits over all vertices."""
        return max(label.bit_size() for label in self._labels.values())

    def is_ancestor(self, u: Vertex, v: Vertex) -> bool:
        """Convenience ancestry test through the labels (inclusive)."""
        return self._labels[u].is_ancestor_of(self._labels[v])
