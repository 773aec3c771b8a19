"""Common interface of outdetect labeling schemes.

A scheme assigns every vertex a label; labels form a group under ``combine``
(XOR), and decoding the combined label of a vertex set S yields identifiers of
outgoing edges of S.  The identifiers are opaque integers here — the FTC
scheme interprets them through its edge-ID codec.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Iterable, Sequence

from repro.gf2.bulk import BulkOps, Matrix

Vertex = Hashable
Label = Any


class OutdetectDecodeError(Exception):
    """Raised when an outdetect decode is detectably inconsistent.

    With the paper's (PAPER preset) constants this never happens; with the
    heuristic PRACTICAL preset or the randomized sketch it signals that the
    scheme's sparsity/validity promise was violated for this query, so the
    caller can report an explicit failure instead of a silently wrong answer.
    """


class OutdetectScheme(ABC):
    """Abstract base class of all outdetect labelings."""

    #: Whether the scheme (construction and decoding) is deterministic.
    deterministic: bool = True

    @abstractmethod
    def label_of(self, vertex: Vertex) -> Label:
        """The label assigned to one vertex."""

    @abstractmethod
    def zero_label(self) -> Label:
        """The identity element of the label group (label of the empty set)."""

    @abstractmethod
    def combine(self, first: Label, second: Label) -> Label:
        """XOR-combine two labels."""

    @abstractmethod
    def decode(self, label: Label) -> list[int]:
        """Edge identifiers of outgoing edges encoded by a combined label.

        Returns the empty list when the label certifies an empty outgoing edge
        set, and raises :class:`OutdetectDecodeError` when the label is
        detectably inconsistent.
        """

    @abstractmethod
    def label_bit_size(self, label: Label) -> int:
        """Size of one label in bits (for the experiment harness)."""

    @abstractmethod
    def subtree_sums(self, preorder: Sequence[Vertex],
                     last: Sequence[int]) -> list:
        """The combined label of every subtree of a rooted tree at once.

        ``preorder`` lists the tree's vertices in DFS preorder and
        ``last[p]`` is the position of the last vertex of the subtree rooted
        at position ``p``, which is ``preorder[p:last[p] + 1]``.  Entry ``p``
        equals ``label_of_set(preorder[p:last[p] + 1])``: over the tree
        edges of T' these are the sums Proposition 4 stores in edge labels.
        """

    def decode_many(self, labels) -> list:
        """Decode many combined labels, deferring failures into the result.

        Each entry of the returned list is either the decoded edge-identifier
        list or the :class:`OutdetectDecodeError` that :meth:`decode` would
        have raised for that label — callers that decode lazily (the batch
        session's merge forest) surface a deferred error only when the failing
        label is actually consumed.  The base implementation loops over
        :meth:`decode`.  The Reed--Solomon and layered schemes override it
        with their one decode body, and their :meth:`decode` decodes a batch
        of one (:func:`raise_deferred`).
        """
        results = []
        for label in labels:
            try:
                results.append(self.decode(label))
            except OutdetectDecodeError as error:
                results.append(error)
        return results

    # ------------------------------------------------------------ conveniences

    def combine_all(self, labels) -> Label:
        """Combine an iterable of labels."""
        total = self.zero_label()
        for label in labels:
            total = self.combine(total, label)
        return total

    def label_of_set(self, vertices) -> Label:
        """The combined label of an explicit vertex set (testing helper)."""
        return self.combine_all(self.label_of(vertex) for vertex in vertices)

    def max_label_bits(self, vertices) -> int:
        """Maximum label size over a collection of vertices."""
        sizes = [self.label_bit_size(self.label_of(vertex)) for vertex in vertices]
        return max(sizes) if sizes else 0


def raise_deferred(entry: list[int] | OutdetectDecodeError) -> list[int]:
    """One :meth:`OutdetectScheme.decode_many` entry as
    :meth:`~OutdetectScheme.decode` gives it: the identifiers, or the
    deferred error raised."""
    if isinstance(entry, OutdetectDecodeError):
        raise entry
    return entry


class MatrixLabels:
    """Vertex labels kept as one label matrix of a bulk backend.

    The label of ``v`` is row ``_rows[v]`` of ``_matrix``, a matrix in the
    form of ``bulk`` (a uint64 array on numpy, see
    :meth:`~repro.gf2.bulk.BulkOps.scatter_pow_rows`), so a build never
    turns it into Python ints row by row; labels come out as tuples of
    Python ints.
    """

    bulk: BulkOps
    _matrix: Matrix
    _rows: dict

    def _adopt_matrix(self, vertices: Iterable[Vertex], matrix: Matrix) -> None:
        """Take ``matrix`` as the labels of ``vertices``, row by row."""
        vertices = list(vertices)
        if len(matrix) != len(vertices):
            raise ValueError("label matrix has %d rows for %d vertices"
                             % (len(matrix), len(vertices)))
        self._rows = {vertex: position for position, vertex in enumerate(vertices)}
        self._matrix = matrix

    def label_of(self, vertex: Vertex) -> Label:
        return self.bulk.matrix_row(self._matrix, self._rows[vertex])

    def subtree_sums(self, preorder: Sequence[Vertex],
                     last: Sequence[int]) -> list:
        return self.bulk.subtree_xor(
            self._matrix, [self._rows[vertex] for vertex in preorder], last)
