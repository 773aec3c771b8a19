"""Randomized graph-sketch outdetect labeling (Ahn--Guha--McGregor style).

This is the randomized ingredient the Dory--Parter scheme builds on and the
baseline the paper derandomizes.  Every edge identifier is extended with a
deterministic fingerprint; for each sampling level ``j`` and repetition ``r``
the edge is placed into cell ``(r, j)`` iff a seeded hash of the identifier
has ``j`` trailing zero bits.  A vertex label is, per cell, the XOR of the
extended identifiers of its incident sampled edges.  XOR-ing over a vertex set
leaves only outgoing edges; a cell containing exactly one of them holds a
valid extended identifier (the fingerprint checks out), which happens with
constant probability per repetition at the sampling level matching the cut
size — hence ``O(log n)`` repetitions give success with high probability, and
``O(f log n)`` repetitions give the "full query support" variant of [DP21].
A label is one packed word with a lane of ``id_bits + 32`` bits per cell.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, Mapping

from repro.gf2.bulk import BulkOps, Matrix, get_bulk_ops
from repro.graphs.graph import Edge
from repro.outdetect.base import MatrixLabels, OutdetectDecodeError, OutdetectScheme

Vertex = Hashable
Label = int

_FINGERPRINT_BITS = 32


class SketchOutdetect(MatrixLabels, OutdetectScheme):
    """An L0-sampling sketch supporting single outgoing-edge detection.

    Parameters
    ----------
    vertices:
        All vertices of the (sub)graph.
    edge_ids:
        Mapping from canonical edges to distinct positive integers.
    num_levels:
        Number of geometric sampling levels (defaults to ``ceil(log2 m) + 2``).
    repetitions:
        Independent repetitions per level; ``O(log n)`` for whp-per-query
        correctness, ``O(f log n)`` for the full-query-support variant.
    seed:
        Seed of the (deterministic, hash-based) sampling and fingerprints —
        the scheme is randomized in the sense of the paper, with the random
        bits made explicit and reproducible.
    bulk:
        Bulk XOR backend (no field needed); auto-selected when omitted.  The
        numpy backend scatters every sampled cell contribution in one pass.
    """

    deterministic = False

    def __init__(self, vertices: Iterable[Vertex], edge_ids: Mapping[Edge, int],
                 num_levels: int | None = None, repetitions: int = 8, seed: int = 0,
                 bulk: BulkOps | None = None):
        self.edge_ids = dict(edge_ids)
        geometry = self.plan_geometry(self.edge_ids, num_levels=num_levels,
                                      repetitions=repetitions)
        self.num_levels = geometry["num_levels"]
        self.repetitions = geometry["repetitions"]
        self._set_parameters(seed, geometry["id_bits"], bulk)
        self._build_labels(list(vertices))

    @classmethod
    def plan_geometry(cls, edge_ids: Mapping[Edge, int],
                      num_levels: int | None = None,
                      repetitions: int = 8) -> dict:
        """The sketch dimensions implied by a full edge set.

        Factored out of the constructor so the sharded build plan can fix the
        geometry from *all* edges up front and hand every shard identical
        ``(num_levels, repetitions, id_bits)`` — shards hashing into different
        cell grids would not XOR-merge into the single-shot labels.
        """
        if num_levels is None:
            edge_count = max(len(edge_ids), 2)
            num_levels = edge_count.bit_length() + 1
        id_bits = max((max(edge_ids.values()).bit_length() if edge_ids else 1), 1)
        return {"num_levels": max(num_levels, 1),
                "repetitions": max(repetitions, 1),
                "id_bits": id_bits,
                # Width of one cell value (fingerprint-extended identifier) —
                # what XOR-only bulk backends must size for.
                "value_bits": id_bits + _FINGERPRINT_BITS}

    @classmethod
    def decode_only(cls, num_levels: int, repetitions: int, seed: int,
                    id_bits: int, bulk: BulkOps | None = None) -> "SketchOutdetect":
        """A decode-side sketch rebuilt from parameters alone.

        The seeded hashes make decoding fully determined by
        ``(num_levels, repetitions, seed)``; ``id_bits`` is carried for size
        accounting and backend sizing.  No labels are built — ``label_of``
        raises ``KeyError`` for every vertex (snapshot rehydration answers
        queries from stored labels, see :mod:`repro.core.snapshot`).
        """
        if num_levels < 1 or repetitions < 1 or id_bits < 1:
            raise ValueError("invalid sketch geometry: %d levels, %d repetitions, "
                             "%d id bits (all must be >= 1)"
                             % (num_levels, repetitions, id_bits))
        scheme = cls.__new__(cls)
        scheme.edge_ids = {}
        scheme.num_levels = num_levels
        scheme.repetitions = repetitions
        scheme._set_parameters(seed, id_bits, bulk)
        scheme._adopt_matrix([], [])
        return scheme

    def _set_parameters(self, seed: int, id_bits: int, bulk: BulkOps | None) -> None:
        self.seed = seed
        self.id_bits = id_bits
        self.lane_count = self.num_levels * self.repetitions
        self.lane_bits = id_bits + _FINGERPRINT_BITS
        self.bulk = bulk if bulk is not None else get_bulk_ops(
            None, max_bits=self.lane_bits)

    @classmethod
    def from_label_matrix(cls, vertices: Iterable[Vertex],
                          edge_ids: Mapping[Edge, int], matrix: Matrix, *,
                          num_levels: int, repetitions: int, seed: int,
                          id_bits: int,
                          bulk: BulkOps | None = None) -> "SketchOutdetect":
        """Assemble a sketch from an externally built label matrix.

        Counterpart of the sharded build plan's merge step: the geometry must
        be the one :meth:`plan_geometry` derived from the full edge set, and
        ``matrix`` the XOR of the shards' :meth:`label_matrix` outputs —
        bit-identical to a single-shot construction by the XOR argument.
        """
        scheme = cls.decode_only(num_levels, repetitions, seed, id_bits, bulk=bulk)
        scheme.edge_ids = dict(edge_ids)
        scheme._adopt_matrix(vertices, matrix)
        return scheme

    def label_matrix(self, vertices: list, edge_items: list) -> Matrix:
        """Partial label matrix of one edge slice, aligned with ``vertices``.

        ``edge_items`` is a sequence of ``((u, v), identifier)`` pairs — any
        subset of the sketch's edges.  Sampling depends only on the seeded
        hashes and the fixed geometry, never on the other edges, so the
        matrices of any partition of the edge set XOR back into the
        single-shot matrix (the shard-friendly shape of the build plan).
        """
        vertex_index = {vertex: position for position, vertex in enumerate(vertices)}
        row_indices: list[int] = []
        col_indices: list[int] = []
        values: list[int] = []
        for (u, v), identifier in edge_items:
            extended = self._extend(identifier)
            row_u = vertex_index[u]
            row_v = vertex_index[v]
            for cell in self._cells_of(identifier):
                row_indices.append(row_u)
                row_indices.append(row_v)
                col_indices.append(cell)
                col_indices.append(cell)
                values.append(extended)
                values.append(extended)
        return self.bulk.scatter_xor(len(vertices), self.lane_count,
                                     row_indices, col_indices, values)

    def _build_labels(self, vertices: list) -> None:
        """Accumulate all sampled cell contributions through the bulk backend."""
        self._adopt_matrix(vertices,
                           self.label_matrix(vertices, list(self.edge_ids.items())))

    # ----------------------------------------------------------------- hashing

    def _hash(self, identifier: int, repetition: int) -> int:
        digest = hashlib.blake2b(
            b"%d:%d:%d" % (self.seed, repetition, identifier), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def _fingerprint(self, identifier: int) -> int:
        digest = hashlib.blake2b(
            b"fp:%d:%d" % (self.seed, identifier), digest_size=4).digest()
        return int.from_bytes(digest, "big")

    def _extend(self, identifier: int) -> int:
        return (identifier << _FINGERPRINT_BITS) | self._fingerprint(identifier)

    def _cells_of(self, identifier: int) -> list[int]:
        cells = []
        for repetition in range(self.repetitions):
            hashed = self._hash(identifier, repetition)
            for level in range(self.num_levels):
                if level == 0 or hashed % (1 << level) == 0:
                    cells.append(repetition * self.num_levels + level)
        return cells

    # ------------------------------------------------------------ OutdetectScheme

    def decode(self, label: Label) -> list[int]:
        if not label:
            return []
        cells = self.lanes(label)
        found: list[int] = []
        # Prefer sparser levels (higher level index) where a single survivor is likely.
        for level in range(self.num_levels - 1, -1, -1):
            for repetition in range(self.repetitions):
                value = cells[repetition * self.num_levels + level]
                if value == 0:
                    continue
                identifier = value >> _FINGERPRINT_BITS
                fingerprint = value & ((1 << _FINGERPRINT_BITS) - 1)
                if identifier > 0 and self._fingerprint(identifier) == fingerprint:
                    if identifier not in found:
                        found.append(identifier)
            if found:
                return found
        raise OutdetectDecodeError(
            "sketch decoding failed: no cell holds a single valid edge identifier")
