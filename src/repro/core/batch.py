"""Batched query processing: one fault set, many ``(s, t)`` pairs.

The scheme is designed so that everything expensive about a query depends only
on the fault set ``F``: the fragment structure of ``T' - F`` (Proposition 3)
and the component merge forest the engines build by repeatedly decoding
outdetect labels.  :class:`BatchQuerySession` exploits that by materializing
the *complete* connected-component decomposition of the fragments once —
running the same smallest-boundary-first merge process as
:class:`~repro.core.fast_query.FastQueryEngine`, but to completion instead of
stopping at the first ``s``/``t`` resolution.  Afterwards every ``(s, t)``
query is two innermost-interval lookups plus one equality check, with no
decoding at all.

Sessions are cheap to cache: :func:`~repro.core.query.canonical_fault_key`
gives an order-insensitive key that applies the same same-tree-edge
deduplication as :class:`~repro.core.query.FragmentStructure`, so permutations
of one fault set (or fault lists with redundant parallel faults) share a
session.  :class:`~repro.core.ftc.FTCLabeling` keeps an LRU of sessions keyed
this way.

Like the engines, a session sees labels only — never the graph.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.core.fast_query import ComponentFragment, find_partner_component
from repro.core.labels import EdgeLabel, VertexLabel
from repro.core.query import (FragmentStructure, QueryFailure, ROOT_FRAGMENT,
                              canonical_fault_key)
from repro.labeling.edge_ids import EdgeIdCodec
from repro.outdetect.base import OutdetectDecodeError, OutdetectScheme


class BatchQuerySession:
    """Reusable decomposition of ``T' - F`` answering any number of queries.

    Parameters
    ----------
    outdetect:
        The outdetect scheme used to decode combined fragment labels (only its
        decoding machinery is used, never the graph).
    codec:
        Edge-identifier codec interpreting decoded identifiers.
    fault_labels:
        The :class:`~repro.core.labels.EdgeLabel` of every faulty edge.

    Raises
    ------
    QueryFailure:
        When a component label cannot be decoded.  This can only happen for
        randomized sketch labels or the heuristic PRACTICAL threshold rule —
        the deterministic PAPER schemes never raise — and it happens at
        *construction* time, because the decomposition decodes every component
        eagerly (callers can fall back to the per-query engines).
    """

    def __init__(self, outdetect: OutdetectScheme, codec: EdgeIdCodec,
                 fault_labels: Sequence[EdgeLabel]):
        self.outdetect = outdetect
        self.codec = codec
        self.fault_labels = list(fault_labels)
        #: Canonical (deduplicated, order-insensitive) key of this fault set.
        self.key = canonical_fault_key(self.fault_labels)
        self.structure = FragmentStructure(self.fault_labels)
        #: fragment id -> final connected-component identifier.
        self._component_of: dict[int, int] = self._decompose()
        self._queries_answered = 0

    @classmethod
    def from_decomposition(cls, outdetect: OutdetectScheme, codec: EdgeIdCodec,
                           fault_labels: Sequence[EdgeLabel],
                           component_of: dict) -> "BatchQuerySession":
        """Assemble a session from an externally computed decomposition.

        The merge forest is the only expensive part of construction, and it is
        a pure function of the fault labels and the decode-side scheme
        parameters — so a worker process can compute the ``fragment id ->
        component`` map (:func:`decompose_fault_set`) and the parent assembles
        a session around its own scheme instances, bit-identical to one the
        constructor would have built.
        """
        session = cls.__new__(cls)
        session.outdetect = outdetect
        session.codec = codec
        session.fault_labels = list(fault_labels)
        session.key = canonical_fault_key(session.fault_labels)
        session.structure = FragmentStructure(session.fault_labels)
        session._component_of = dict(component_of)
        session._queries_answered = 0
        return session

    # ------------------------------------------------------------ construction

    def _decompose(self) -> dict[int, int]:
        """Run the smallest-boundary-first merge process to completion.

        The merge order is exactly the scalar engines' smallest-boundary-first
        order, but decoding is *batched*: all initial fragment labels decode in
        one :meth:`~repro.outdetect.base.OutdetectScheme.decode_many` call,
        and whenever the heap reaches a merged component whose label has not
        been decoded yet, every not-yet-decoded alive label decodes in one
        further bulk call.  Merging at least halves the number of alive
        components between flushes, so one session is ``O(log fragments)``
        bulk rounds instead of one scalar decode pipeline per component.
        Failures stay deferred inside the decode cache and only surface when
        the failing component is actually popped — the same moment the scalar
        loop would have raised.
        """
        structure = self.structure
        components: dict[int, ComponentFragment] = {}
        owner: dict[int, int] = {}
        heap: list[tuple] = []
        for key, fragment_id in enumerate(structure.fragment_ids()):
            component = ComponentFragment(
                key=key,
                members={fragment_id},
                boundary=structure.boundary_of(fragment_id),
                label=structure.fragment_outdetect_label(fragment_id, self.outdetect),
            )
            components[key] = component
            owner[fragment_id] = key
            heapq.heappush(heap, (len(component.boundary), key))
        next_key = len(components)
        alive_count = len(components)
        final: dict[int, int] = {}
        decoded: dict[int, object] = self._decode_batch(components.values())

        while heap and alive_count > 1:
            _, key = heapq.heappop(heap)
            component = components.get(key)
            if component is None or not component.alive:
                continue
            if key not in decoded:
                decoded.update(self._decode_batch(
                    candidate for candidate in components.values()
                    if candidate.alive and candidate.key not in decoded))
            entry = decoded[key]
            if isinstance(entry, OutdetectDecodeError):
                raise QueryFailure(str(entry)) from entry
            edge_identifiers = entry
            partner_key = find_partner_component(self.codec, edge_identifiers,
                                                 structure, owner, component,
                                                 components)
            if partner_key is None:
                # No outgoing edge: a maximal connected component is finalized.
                for fragment_id in component.members:
                    final[fragment_id] = component.key
                component.alive = False
                del components[key]
                alive_count -= 1
                continue
            partner = components[partner_key]
            merged = ComponentFragment(
                key=next_key,
                members=component.members | partner.members,
                boundary=component.boundary ^ partner.boundary,
                label=self.outdetect.combine(component.label, partner.label),
            )
            next_key += 1
            component.alive = False
            partner.alive = False
            del components[key]
            del components[partner_key]
            components[merged.key] = merged
            alive_count -= 1
            for fragment_id in merged.members:
                owner[fragment_id] = merged.key
            heapq.heappush(heap, (len(merged.boundary), merged.key))

        # Whatever is still alive (exactly one component when the residual
        # graph is connected) is maximal by construction.
        for component in components.values():
            if component.alive:
                for fragment_id in component.members:
                    final[fragment_id] = component.key
        return final

    def _decode_batch(self, components) -> dict[int, object]:
        """Decode the labels of the given components in one bulk call.

        Returns a map from component key to the decoded edge-identifier list,
        or to the deferred :class:`OutdetectDecodeError` for labels the scheme
        rejects (surfaced by :meth:`_decompose` only if that component is
        popped, preserving the scalar loop's failure semantics).
        """
        components = list(components)
        entries = self.outdetect.decode_many(
            [component.label for component in components])
        return {component.key: entry
                for component, entry in zip(components, entries)}

    # ---------------------------------------------------------------- queries

    def connected(self, source: VertexLabel, target: VertexLabel) -> bool:
        """Connectivity of two labeled vertices under this session's faults."""
        self._queries_answered += 1
        if source.ancestry == target.ancestry:
            return True
        source_fragment = self.structure.fragment_of_vertex(source.ancestry)
        target_fragment = self.structure.fragment_of_vertex(target.ancestry)
        if source_fragment == target_fragment:
            return True
        return self._component_of[source_fragment] == self._component_of[target_fragment]

    def connected_many(self, pairs: Sequence[tuple]) -> list[bool]:
        """Answer many ``(source_label, target_label)`` pairs."""
        return [self.connected(source, target) for source, target in pairs]

    # ------------------------------------------------------------- statistics

    @property
    def queries_answered(self) -> int:
        """Number of pair queries answered by this session."""
        return self._queries_answered

    def num_components(self) -> int:
        """Number of connected components the fragments collapse into."""
        return len(set(self._component_of.values())) if self._component_of else 1

    def num_fragments(self) -> int:
        return self.structure.num_fragments()


def decompose_fault_set(task: dict) -> dict:
    """Compute one fault set's component decomposition from plain data.

    The process fan-out of
    :meth:`repro.core.ftc.LabelBackedQueries.build_sessions` submits this
    module-level function to a :class:`~repro.build.executors.ProcessExecutor`
    (it must be picklable, like :func:`repro.build.shards.build_shard`).  The
    task dict carries only plain data — the outdetect descriptor and field
    parameters of the snapshot machinery plus the (picklable) fault edge
    labels — so no vertex labels and no live scheme objects cross the process
    boundary.  Returns the ``fragment id -> component`` map, which the parent
    turns back into a session with :meth:`BatchQuerySession.from_decomposition`.
    """
    from repro.core.snapshot import build_decode_outdetect
    from repro.gf2.field import GF2m

    field = GF2m(task["field_width"], modulus=task["field_modulus"])
    codec = EdgeIdCodec.for_field(task["codec_modulus"], task["codec_mode"], field)
    outdetect = build_decode_outdetect(task["descriptor"], field, task["adaptive"])
    session = BatchQuerySession(outdetect, codec, task["fault_labels"])
    return session._component_of


__all__ = ["BatchQuerySession", "decompose_fault_set", "canonical_fault_key",
           "ROOT_FRAGMENT"]
