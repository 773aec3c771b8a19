"""The deterministic k-threshold outdetect labeling scheme (Proposition 2).

Every edge ``e`` of the (sub)graph is identified by a non-zero field element
``x_e``; its parity-check row is ``g(e) = (x_e, x_e^2, ..., x_e^{2k})``, and a
vertex label is the XOR of the rows of its incident edges.  XOR-ing the labels
over a vertex set S cancels internal edges and leaves the syndrome of the
outgoing edge set, from which up to ``k`` edge identifiers are recovered by
syndrome decoding — deterministically.

A label is one packed word of ``2k`` lanes of ``w`` bits
(:class:`~repro.outdetect.base.MatrixLabels`), unpacked into its syndrome
only when it is decoded.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from repro.coding.rs_decoder import DecodeFailure, SparseRecoveryDecoder
from repro.coding.syndrome import SyndromeEncoder
from repro.gf2.bulk import BulkOps, Matrix, get_bulk_ops, pack_lanes
from repro.gf2.field import GF2m
from repro.graphs.graph import Edge, canonical_edge
from repro.outdetect.base import (MatrixLabels, OutdetectDecodeError, OutdetectScheme,
                                  raise_deferred)

Vertex = Hashable
Label = int


class RSThresholdOutdetect(MatrixLabels, OutdetectScheme):
    """k-threshold outdetect labels for one edge set over a fixed vertex set.

    Parameters
    ----------
    field:
        The GF(2^w) field edge identifiers live in.
    threshold:
        The decoding threshold ``k`` (labels are ``2k`` field elements).
    vertices:
        All vertices that may be queried (isolated ones get the zero label).
    edge_ids:
        Mapping from canonical edges of this level to non-zero field elements.
    adaptive:
        Whether decoding uses geometrically growing prefixes (Appendix B),
        making its cost depend on the actual outgoing-edge count.
    bulk:
        Bulk GF(2^w) backend used for construction and label combination;
        auto-selected when omitted (numpy bit-sliced when available).
    """

    deterministic = True

    def __init__(self, field: GF2m, threshold: int, vertices: Iterable[Vertex],
                 edge_ids: Mapping[Edge, int], adaptive: bool = True,
                 bulk: BulkOps | None = None):
        self._set_parameters(field, threshold, adaptive, bulk)
        self.edge_ids = dict(edge_ids)
        self._build_labels(list(vertices))

    @classmethod
    def decode_only(cls, field: GF2m, threshold: int, adaptive: bool = True,
                    bulk: BulkOps | None = None) -> "RSThresholdOutdetect":
        """A decode-side scheme rebuilt from parameters alone.

        Snapshot rehydration (:mod:`repro.core.snapshot`) needs everything the
        query engines use — ``zero_label``, ``combine`` / ``combine_all``,
        ``decode``, ``label_bit_size`` — but no vertex labels and no edge set,
        so nothing is constructed.  ``label_of`` raises ``KeyError`` for every
        vertex.
        """
        if threshold < 1:
            raise ValueError("decoding threshold must be >= 1, got %d" % threshold)
        scheme = cls.__new__(cls)
        scheme._set_parameters(field, threshold, adaptive, bulk)
        scheme.edge_ids = {}
        scheme._adopt_matrix([], [])
        return scheme

    def _set_parameters(self, field: GF2m, threshold: int, adaptive: bool,
                        bulk: BulkOps | None) -> None:
        self.field = field
        self.threshold = threshold
        self.adaptive = adaptive
        self.lane_count = 2 * threshold
        self.lane_bits = field.width
        self.bulk = bulk if bulk is not None else get_bulk_ops(field)
        self._encoder = SyndromeEncoder(field, threshold, bulk=self.bulk)
        self._decoder = SparseRecoveryDecoder(field, threshold, bulk=self.bulk)

    @classmethod
    def from_label_matrix(cls, field: GF2m, threshold: int, vertices: Iterable[Vertex],
                          edge_ids: Mapping[Edge, int], matrix: Sequence,
                          adaptive: bool = True,
                          bulk: BulkOps | None = None) -> "RSThresholdOutdetect":
        """Assemble a scheme from an externally built label matrix.

        The merge step of the sharded build plan (:mod:`repro.build.plan`)
        XORs per-shard partial matrices back together and hands the result
        here; nothing is recomputed or copied, so the scheme is bit-identical
        to one whose constructor built the same matrix in a single shot.
        """
        scheme = cls.decode_only(field, threshold, adaptive=adaptive, bulk=bulk)
        scheme.edge_ids = dict(edge_ids)
        scheme._adopt_matrix(vertices, matrix)
        return scheme

    def label_matrix(self, vertices: Sequence[Vertex], edge_items: Sequence) -> Matrix:
        """Partial label matrix of one edge slice, aligned with ``vertices``.

        ``edge_items`` is a sequence of ``((u, v), identifier)`` pairs —
        any subset of a level's edges.  Every edge's parity-check row (its
        consecutive powers) is computed and XOR-ed into the rows of both
        endpoints by one bulk call, which returns the backend's label matrix.
        Because labels are XOR sums over incident edges, the matrices of any
        partition of the edge set XOR back into the full-build matrix — the
        shard-friendly shape of the build plan.
        """
        vertex_index = {vertex: position for position, vertex in enumerate(vertices)}
        edge_items = list(edge_items)
        firsts: list[int] = []
        seconds: list[int] = []
        for (u, v), _ in edge_items:
            for endpoint in (u, v):
                if endpoint not in vertex_index:
                    raise KeyError("edge endpoint %r is not among the scheme's vertices"
                                   % (endpoint,))
            firsts.append(vertex_index[u])
            seconds.append(vertex_index[v])
        return self._encoder.encode_scattered(
            len(vertices), [identifier for _, identifier in edge_items],
            (firsts, seconds))

    def _build_labels(self, vertices: list) -> None:
        """Compute all vertex labels in one bulk call (single-shot build)."""
        self._adopt_matrix(vertices,
                           self.label_matrix(vertices, list(self.edge_ids.items())))

    # ------------------------------------------------------------ OutdetectScheme

    def decode(self, label: Label) -> list[int]:
        return raise_deferred(self.decode_many([label])[0])

    def decode_many(self, labels) -> list:
        entries = self._decoder.decode_many_deferred(
            [self.lanes(label) for label in labels], adaptive=self.adaptive)
        results: list = []
        for entry in entries:
            if isinstance(entry, DecodeFailure):
                wrapped = OutdetectDecodeError(str(entry))
                wrapped.__cause__ = entry
                results.append(wrapped)
            else:
                results.append(entry)
        return results

    # ------------------------------------------------------------------ misc

    def syndrome_of_edge_set(self, edges: Iterable[Edge]) -> Label:
        """Syndrome of an explicit edge set, as a label (testing and
        validation helper)."""
        identifiers = [self.edge_ids[canonical_edge(u, v)] for u, v in edges]
        return pack_lanes(self._encoder.syndrome_of(identifiers), self.lane_bits)
