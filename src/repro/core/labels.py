"""The label objects handed to the universal decoder.

A query ``(s, t, F)`` is answered from the :class:`VertexLabel` of ``s`` and
``t`` and the :class:`EdgeLabel` of every edge in ``F`` — nothing else.  The
label objects therefore contain exactly what the paper assigns (Section 7.2):

* a vertex carries its ancestry label in the auxiliary spanning tree ``T'``;
* an edge carries the ancestry labels of the two endpoints of its image
  ``sigma(e)`` in ``T'`` and the XOR of the outdetect labels over the subtree
  hanging below that tree edge.

The outdetect part of an edge label holds one packed word per level (see
:mod:`repro.gf2.bulk`).  Both label classes round-trip through a versioned
byte format (``to_bytes`` / ``from_bytes``, see :mod:`repro.core.serialize`)
so labels can be stored and shipped out of process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core import serialize
from repro.labeling.ancestry import AncestryLabel

OutdetectLabel = Any


@dataclass(frozen=True)
class VertexLabel:
    """Label of a vertex: its ancestry label in T'."""

    ancestry: AncestryLabel

    def bit_size(self) -> int:
        return self.ancestry.bit_size()

    def to_bytes(self) -> bytes:
        """Serialize to the versioned byte format of :mod:`repro.core.serialize`."""
        out = serialize.write_header(serialize.KIND_VERTEX)
        serialize.write_varint(self.ancestry.pre, out)
        serialize.write_varint(self.ancestry.post, out)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "VertexLabel":
        """Inverse of :meth:`to_bytes`; raises
        :class:`~repro.core.serialize.LabelDecodeError` on malformed input."""
        _, offset = serialize.read_header(data, serialize.KIND_VERTEX)
        pre, offset = serialize.read_varint(data, offset)
        post, offset = serialize.read_varint(data, offset)
        serialize.check_consumed(data, offset)
        return cls(ancestry=AncestryLabel(pre=pre, post=post))


@dataclass(frozen=True)
class EdgeLabel:
    """Label of an edge: endpoint ancestry labels of sigma(e) plus a subtree sum.

    Attributes
    ----------
    ancestry_upper / ancestry_lower:
        Ancestry labels of the endpoints of the tree edge ``sigma(e)``; the
        *lower* endpoint is the one farther from the root, so its interval is
        contained in the upper one's.
    outdetect_subtree_sum:
        XOR of the outdetect labels over all vertices in the subtree of T'
        rooted at the lower endpoint (the quantity Proposition 4 sums): a
        packed word, or a tuple of one word per level.
    outdetect_bits:
        Size of ``outdetect_subtree_sum`` in bits — the field bits of its
        lanes, not their bytes (recorded at construction time so size
        accounting does not need the scheme object).
    """

    ancestry_upper: AncestryLabel
    ancestry_lower: AncestryLabel
    outdetect_subtree_sum: OutdetectLabel
    outdetect_bits: int

    def __post_init__(self):
        if not self.ancestry_upper.is_ancestor_of(self.ancestry_lower):
            raise ValueError("the upper endpoint of a tree edge must be an ancestor "
                             "of the lower endpoint")

    def bit_size(self) -> int:
        return (self.ancestry_upper.bit_size() + self.ancestry_lower.bit_size()
                + self.outdetect_bits)

    def subtree_interval(self) -> AncestryLabel:
        """The DFS interval of the subtree cut off by removing this edge."""
        return self.ancestry_lower

    def to_bytes(self) -> bytes:
        """Serialize to the versioned byte format of :mod:`repro.core.serialize`.

        The outdetect subtree sum is stored as a tagged tree of packed words,
        so any scheme variant's label shape (one word for a single
        k-threshold or sketch level, a tuple of per-level words for layered
        schemes) round-trips exactly.
        """
        out = serialize.write_header(serialize.KIND_EDGE)
        serialize.write_varint(self.ancestry_upper.pre, out)
        serialize.write_varint(self.ancestry_upper.post, out)
        serialize.write_varint(self.ancestry_lower.pre, out)
        serialize.write_varint(self.ancestry_lower.post, out)
        serialize.write_varint(self.outdetect_bits, out)
        serialize.write_label_tree(self.outdetect_subtree_sum, out)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EdgeLabel":
        """Inverse of :meth:`to_bytes`; raises
        :class:`~repro.core.serialize.LabelDecodeError` on malformed input.

        The subtree sum comes back as stored: of a version-1 payload, with
        each level the tuple of its field elements, which
        :meth:`~repro.outdetect.base.OutdetectScheme.read_label` packs.
        """
        version, offset = serialize.read_header(data, serialize.KIND_EDGE)
        upper_pre, offset = serialize.read_varint(data, offset)
        upper_post, offset = serialize.read_varint(data, offset)
        lower_pre, offset = serialize.read_varint(data, offset)
        lower_post, offset = serialize.read_varint(data, offset)
        outdetect_bits, offset = serialize.read_varint(data, offset)
        subtree_sum, offset = serialize.read_label_tree(data, offset, version)
        serialize.check_consumed(data, offset)
        try:
            return cls(
                ancestry_upper=AncestryLabel(pre=upper_pre, post=upper_post),
                ancestry_lower=AncestryLabel(pre=lower_pre, post=lower_post),
                outdetect_subtree_sum=subtree_sum,
                outdetect_bits=outdetect_bits,
            )
        except ValueError as error:
            # Structurally valid bytes can still violate the label's own
            # invariants (the upper endpoint must be an ancestor of the
            # lower); that is corrupt input, not a programming error.
            raise serialize.LabelDecodeError(
                "decoded edge label is invalid: %s" % error) from error
