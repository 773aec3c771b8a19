"""Power-sum syndromes of sparse supports over GF(2^w).

The deterministic outdetect labeling assigns each edge ``e`` (identified by a
non-zero field element ``x_e``) the vector

    g(e) = (x_e, x_e^2, ..., x_e^{2k})

which is exactly the row of the Reed--Solomon parity-check matrix indexed by
``e`` (Section 7.4).  A vertex label is the XOR of ``g(e)`` over incident
edges, and the XOR over a vertex set S collapses to the *syndrome* of the
outgoing edge set ``∂(S)``:

    sum_{v in S} L(v) = sum_{e in ∂(S)} g(e) = (s_1, ..., s_{2k}),
    s_j = sum_{e in ∂(S)} x_e^j.

Recovering the ``x_e`` from the power sums ``s_j`` is classic syndrome
decoding, performed in :mod:`repro.coding.rs_decoder`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.gf2.bulk import BulkOps, Matrix, get_bulk_ops
from repro.gf2.field import GF2m


def xor_vectors(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Component-wise XOR of two equal-length syndrome vectors."""
    if len(a) != len(b):
        raise ValueError("syndrome vectors have different lengths: %d vs %d" % (len(a), len(b)))
    return [x ^ y for x, y in zip(a, b)]


class SyndromeEncoder:
    """Computes ``g(e)`` rows and syndromes of explicit supports.

    Parameters
    ----------
    field:
        The GF(2^w) field the edge identifiers live in.
    threshold:
        The sparsity threshold ``k``; syndromes have ``2k`` components, which
        is what allows recovery of up to ``k`` edges.
    bulk:
        Bulk arithmetic backend; defaults to the auto-selected one (numpy
        bit-sliced when available, pure Python otherwise).
    """

    __slots__ = ("field", "threshold", "length", "bulk")

    def __init__(self, field: GF2m, threshold: int, bulk: BulkOps | None = None):
        if threshold < 1:
            raise ValueError("threshold must be at least 1, got %d" % threshold)
        self.field = field
        self.threshold = threshold
        self.length = 2 * threshold
        self.bulk = bulk if bulk is not None else get_bulk_ops(field)

    def zero(self) -> list[int]:
        """The syndrome of the empty support."""
        return [0] * self.length

    def encode(self, element: int) -> list[int]:
        """The parity-check row ``(x, x^2, ..., x^{2k})`` for one element.

        The element must be a non-zero field element; zero is reserved as the
        paper's "formal zero" marker for an empty outgoing edge set.
        """
        if element == 0:
            raise ValueError("edge identifiers must be non-zero field elements")
        if not self.field.contains(element):
            raise ValueError("element %d is outside the field" % element)
        return self.bulk.pow_range(element, self.length)

    def encode_many(self, elements: Sequence[int]) -> list[list[int]]:
        """The parity-check rows of many elements, computed in one bulk call."""
        self._check_elements(elements)
        return self.bulk.pow_range_many(elements, self.length)

    def encode_scattered(self, num_rows: int, elements: Sequence[int],
                         targets: Sequence[Sequence[int]]) -> Matrix:
        """The parity-check rows of many elements, XOR-ed into matrix rows.

        Row ``r`` of the returned ``num_rows x 2k`` label matrix (see
        :meth:`~repro.gf2.bulk.BulkOps.scatter_pow_rows`) is the XOR of
        ``encode(elements[i])`` over every ``i`` with ``indices[i] == r`` for
        some ``indices`` in ``targets``: Proposition 2's vertex labels when
        ``targets`` holds each edge's two endpoints.
        """
        self._check_elements(elements)
        return self.bulk.scatter_pow_rows(num_rows, self.length, elements, targets)

    def _check_elements(self, elements: Sequence[int]) -> None:
        for element in elements:
            if element == 0:
                raise ValueError("edge identifiers must be non-zero field elements")
            if not self.field.contains(element):
                raise ValueError("element %d is outside the field" % element)

    def encode_prefix(self, element: int, length: int) -> list[int]:
        """The first ``length`` components of ``encode(element)``.

        Proposition 6 of the paper: prefixes of Reed--Solomon syndromes are
        themselves Reed--Solomon syndromes for a smaller threshold, which is
        what makes adaptive decoding possible without re-labeling.
        """
        full = self.encode(element)
        return full[:length]

    def syndrome_of(self, elements: Iterable[int]) -> list[int]:
        """The syndrome (power sums) of an explicit support set."""
        return self.syndrome_of_many([list(elements)])[0]

    def syndrome_of_many(self, supports: Sequence[Sequence[int]]) -> list[list[int]]:
        """The syndromes of many support sets, computed in two bulk calls.

        All elements of all supports are encoded by one ``pow_range_many``
        and the rows are XOR-scattered back into one syndrome per support
        (``scatter_xor_rows``), so verifying every support a decode round
        recovers takes two backend calls.
        """
        flat: list[int] = []
        owners: list[int] = []
        for index, support in enumerate(supports):
            for element in support:
                flat.append(element)
                owners.append(index)
        if not flat:
            return [self.zero() for _ in supports]
        rows = self.encode_many(flat)
        return self.bulk.scatter_xor_rows(len(supports), self.length, owners, rows)
