"""The top-level f-FTC labeling scheme (Theorems 1 and 2).

:class:`FTCLabeling` runs the whole wrap-up of Section 5:

1. root a spanning tree and build the auxiliary instance (G', T', sigma);
2. build the sparsification hierarchy (deterministic or randomized) or, for
   the Dory--Parter baselines, a single graph sketch;
3. build the layered S_{f,T'}-outdetect labels;
4. build ancestry labels and the tree-edge scheme (subtree sums);
5. expose per-vertex and per-edge labels of the *original* graph through the
   transformation of Proposition 1 (an edge's label is the label of sigma(e)).

Queries are answered by :class:`FTCDecoder`, which sees labels only.

The query-side surface (per-query decoding, the LRU-cached batch-session
pipeline, fault-budget enforcement) lives in :class:`LabelBackedQueries`, which
is shared with the snapshot-rehydrated oracle of :mod:`repro.core.snapshot` —
the same code path answers queries whether the labels were just constructed or
loaded back from bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable, Sequence

from repro.core.batch import BatchQuerySession
from repro.core.config import FTCConfig
from repro.core.fast_query import FastQueryEngine
from repro.core.labels import EdgeLabel, VertexLabel
from repro.core.query import BasicQueryEngine, QueryFailure, canonical_fault_key
from repro.core.transform import TransformedInstance
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.outdetect.base import OutdetectScheme

Vertex = Hashable


class FTCDecoder:
    """The universal decoding function D^con of Section 7.1.

    It answers connectivity queries from the labels of ``s``, ``t`` and the
    faulty edges alone.  Two engines are available: the basic one of Lemma 1
    and the refined heap-based one of Lemma 6 (the default).
    """

    def __init__(self, outdetect: OutdetectScheme, codec, use_fast_engine: bool = True):
        self.outdetect = outdetect
        self.codec = codec
        self._basic = BasicQueryEngine(outdetect, codec)
        self._fast = FastQueryEngine(outdetect, codec)
        self.use_fast_engine = use_fast_engine

    def connected(self, source_label: VertexLabel, target_label: VertexLabel,
                  fault_labels: Sequence[EdgeLabel]) -> bool:
        engine = self._fast if self.use_fast_engine else self._basic
        return engine.connected(source_label, target_label, fault_labels)

    def session(self, fault_labels: Sequence[EdgeLabel]) -> BatchQuerySession:
        """A batched query session for one fault set (labels only).

        The session materializes the full component decomposition once; every
        subsequent ``(s, t)`` pair is answered by component lookup.
        """
        return BatchQuerySession(self.outdetect, self.codec, fault_labels)

    def connected_many(self, pairs: Sequence[tuple],
                       fault_labels: Sequence[EdgeLabel]) -> list[bool]:
        """Answer many ``(source_label, target_label)`` pairs for one fault set."""
        return self.session(fault_labels).connected_many(pairs)


class LabelBackedQueries:
    """Query-side API shared by :class:`FTCLabeling` and a rehydrated snapshot
    oracle (:class:`~repro.core.snapshot.RehydratedOracle`).

    Subclasses provide ``vertex_label(v)`` / ``edge_label(u, v)`` lookups and
    the ``outdetect``, ``codec``, and ``max_faults`` attributes, and must call
    :meth:`_init_session_cache` during construction.  Everything here sees
    labels only — never a graph.

    The session cache is safe under concurrent access from multiple threads
    (the query server of :mod:`repro.server` shares one oracle between an
    event loop and a worker-thread executor): every read or write of the LRU
    happens under one lock, while the expensive
    :class:`~repro.core.batch.BatchQuerySession` construction happens outside
    it, so builders of distinct fault sets never serialize each other.
    """

    #: Number of batch sessions kept alive (LRU, keyed by the canonical fault set).
    SESSION_CACHE_SIZE = 32

    def _init_session_cache(self) -> None:
        """Set up the (locked) batch-session LRU; call once per instance."""
        self._session_cache: OrderedDict[tuple, BatchQuerySession] = OrderedDict()
        self._session_lock = threading.Lock()
        self._session_evictions = 0

    # ---------------------------------------------------------- label lookups

    def vertex_label(self, vertex: Vertex) -> VertexLabel:
        raise NotImplementedError

    def edge_label(self, u: Vertex, v: Vertex) -> EdgeLabel:
        raise NotImplementedError

    # ---------------------------------------------------------------- queries

    def decoder(self, use_fast_engine: bool = True) -> FTCDecoder:
        """The universal decoder for labels produced by this scheme."""
        return FTCDecoder(self.outdetect, self.codec, use_fast_engine)

    def connected(self, s: Vertex, t: Vertex, faults: Iterable[Edge] = (),
                  use_fast_engine: bool = True) -> bool:
        """Convenience query: look up the labels and run the decoder."""
        return self._connected_per_query(s, t, faults, use_fast_engine)

    def _connected_per_query(self, s: Vertex, t: Vertex, faults: Iterable[Edge],
                             use_fast_engine: bool = True) -> bool:
        """One query through the per-query engines (never the session cache).

        Kept separate from :meth:`connected` so subclasses may route single
        queries through the batch session while the ``connected_many``
        fallback still reaches the lazy engines without recursing.
        """
        fault_labels = self._fault_labels(faults)
        return self.decoder(use_fast_engine).connected(
            self.vertex_label(s), self.vertex_label(t), fault_labels)

    # ------------------------------------------------------------ batched path

    def _fault_labels_keyed(self, faults: Iterable[Edge]) -> tuple[list[EdgeLabel], tuple]:
        """Label every fault, compute the canonical key, enforce the budget.

        The canonical key doubles as the deduplicated fault set — the budget
        ``f`` bounds *distinct* failures (restating the same edge twice must
        not reject a query the scheme can answer) — and as the session-cache
        key, so it is computed exactly once per call.
        """
        fault_labels = [self.edge_label(u, v) for u, v in faults]
        key = canonical_fault_key(fault_labels)
        if len(key) > self.max_faults:
            raise ValueError("query has %d faults but the scheme was built for f=%d"
                             % (len(key), self.max_faults))
        return fault_labels, key

    def _fault_labels(self, faults: Iterable[Edge]) -> list[EdgeLabel]:
        """Label every fault and enforce the budget on the deduplicated set."""
        return self._fault_labels_keyed(faults)[0]

    def batch_session(self, faults: Iterable[Edge] = ()) -> BatchQuerySession:
        """The (cached) batched query session for one fault set.

        Sessions are kept in an LRU keyed by the canonical fault set — the
        order-insensitive, same-tree-edge-deduplicated key of
        :func:`~repro.core.query.canonical_fault_key` — so permutations and
        redundant restatements of a fault set share one decomposition.
        """
        fault_labels, key = self._fault_labels_keyed(faults)
        session = self._cached_session(key)
        if session is not None:
            return session
        # Build outside the lock: the decomposition decodes every component
        # and may be slow, and concurrent builds of distinct fault sets must
        # proceed in parallel.  Two threads racing on the same fault set both
        # build, but the insert keeps exactly one (callers wanting
        # build-once semantics use the single-flight
        # :class:`repro.server.SessionManager`).
        return self._insert_session(
            key, BatchQuerySession(self.outdetect, self.codec, fault_labels))

    def build_sessions(self, fault_sets: Sequence[Iterable[Edge]],
                       executor=None, jobs: int | None = None
                       ) -> list[BatchQuerySession]:
        """Build (or fetch) the batch sessions of many distinct fault sets.

        The construction-side executor seam (:mod:`repro.build.executors`)
        reused on the query side: ``executor`` / ``jobs`` resolve through
        :func:`~repro.build.executors.resolve_executor` exactly as on
        ``FTCLabeling`` construction, and the expensive part of every *novel*
        fault set — the component decomposition — fans out across the
        resolved strategy.  Process workers receive only plain data (the
        snapshot outdetect descriptor plus the fault edge labels, which are
        picklable) and return the decomposition map, so no vertex labels ever
        cross a process boundary.  Results land in the session LRU and are
        bit-identical to serially built sessions.

        Returns one session per input fault set, in input order; duplicate
        fault sets (after canonicalization) share one session.  Raises
        whatever ``batch_session`` would raise for the offending set
        (:class:`KeyError`, :class:`ValueError`,
        :class:`~repro.core.query.QueryFailure`).
        """
        from repro.build.executors import resolve_executor

        resolved = resolve_executor(executor, jobs)
        keyed = [self._fault_labels_keyed(faults) for faults in fault_sets]
        sessions: dict[tuple, BatchQuerySession] = {}
        missing: list[tuple] = []
        missing_labels: dict[tuple, list[EdgeLabel]] = {}
        for fault_labels, key in keyed:
            if key in sessions or key in missing_labels:
                continue
            cached = self._cached_session(key)
            if cached is not None:
                sessions[key] = cached
            else:
                missing.append(key)
                missing_labels[key] = fault_labels
        if missing:
            built = self._build_sessions_missing(
                resolved, [missing_labels[key] for key in missing])
            for key, session in zip(missing, built):
                sessions[key] = self._insert_session(key, session)
        return [sessions[key] for _, key in keyed]

    def _build_sessions_missing(self, executor, label_lists: list
                                ) -> list[BatchQuerySession]:
        """Construct the not-yet-cached sessions on the resolved executor."""
        tasks = None
        if executor.name == "process":
            tasks = self._session_worker_tasks(label_lists)
        if tasks is None:
            # Serial and thread strategies (and schemes without a snapshot
            # descriptor) construct in-process; threads need no pickling.
            return executor.map(
                lambda labels: BatchQuerySession(self.outdetect, self.codec, labels),
                label_lists)
        from repro.core.batch import decompose_fault_set

        decompositions = executor.map(decompose_fault_set, tasks)
        return [BatchQuerySession.from_decomposition(self.outdetect, self.codec,
                                                     labels, component_of)
                for labels, component_of in zip(label_lists, decompositions)]

    def _session_worker_tasks(self, label_lists: list) -> list | None:
        """Plain-data process-worker tasks, or ``None`` when the scheme has no
        snapshot descriptor (process construction then falls back in-process).
        """
        from repro.core.snapshot import describe_outdetect

        try:
            descriptor = describe_outdetect(self.outdetect)
        except TypeError:
            return None
        level = self.outdetect
        if hasattr(level, "level_schemes"):
            level = level.level_schemes[0]
        field = self.codec.field
        return [{
            "descriptor": descriptor,
            "field_width": field.width,
            "field_modulus": field.modulus,
            "adaptive": bool(getattr(level, "adaptive", True)),
            "codec_modulus": self.codec.modulus,
            "codec_mode": self.codec.mode,
            "fault_labels": labels,
        } for labels in label_lists]

    def _cached_session(self, key: tuple) -> BatchQuerySession | None:
        """Locked LRU lookup by canonical fault key (no construction)."""
        with self._session_lock:
            session = self._session_cache.get(key)
            if session is not None:
                self._session_cache.move_to_end(key)
            return session

    def _insert_session(self, key: tuple,
                        session: BatchQuerySession) -> BatchQuerySession:
        """Cache a freshly built session; returns the one callers must use.

        Another thread may have inserted ``key`` while this session was
        built outside the lock: its session wins, so every caller shares one.
        Otherwise ``session`` is inserted and the LRU evicts past capacity.
        """
        with self._session_lock:
            existing = self._session_cache.get(key)
            if existing is not None:
                self._session_cache.move_to_end(key)
                return existing
            self._session_cache[key] = session
            while len(self._session_cache) > self.SESSION_CACHE_SIZE:
                self._session_cache.popitem(last=False)
                self._session_evictions += 1
            return session

    def session_cache_info(self) -> dict:
        """Current occupancy of the batch-session LRU (for stats/metrics)."""
        with self._session_lock:
            return {
                "size": len(self._session_cache),
                "max_size": self.SESSION_CACHE_SIZE,
                "evictions": self._session_evictions,
            }

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release every cached batch session.  Idempotent.

        Labels stay usable — ``close()`` only drops the (potentially large)
        component decompositions, matching the ``close()`` required by the
        oracle protocol of :mod:`repro.api`.  Local transports hold no
        sockets, so this is the whole teardown.
        """
        with self._session_lock:
            self._session_cache.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def connected_many(self, pairs: Sequence[tuple],
                       faults: Iterable[Edge] = ()) -> list[bool]:
        """Answer many ``(s, t)`` queries against one shared fault set.

        Builds (or reuses) the :class:`~repro.core.batch.BatchQuerySession`
        for ``faults`` and answers every pair by component lookup.  The eager
        decomposition decodes every component, so it can fail (randomized
        sketch labels, heuristic PRACTICAL thresholds) where a lazy single
        query would not have needed the failing component; those calls fall
        back to the per-query engine pair by pair, which preserves the
        pre-batching semantics exactly (and still raises if a failure hits a
        component the query actually needs).
        """
        pair_list = list(pairs)
        fault_list = list(faults)
        try:
            session = self.batch_session(fault_list)
        except QueryFailure:
            return [self._connected_per_query(s, t, fault_list) for s, t in pair_list]
        # Large batches revisit the same endpoints many times; resolve each
        # vertex label once.
        label_cache: dict = {}

        def label_of(vertex):
            label = label_cache.get(vertex)
            if label is None:
                label = label_cache[vertex] = self.vertex_label(vertex)
            return label

        return [session.connected(label_of(s), label_of(t)) for s, t in pair_list]


class FTCLabeling(LabelBackedQueries):
    """Labels of one graph for one fault budget, plus the matching decoder.

    Construction is delegated entirely to the staged
    :class:`~repro.build.plan.BuildPlan` — this class is a thin shim that
    runs the plan and exposes the result through the query surface, so no
    caller constructs labelings ad hoc anymore.  ``executor`` / ``jobs``
    select the execution strategy (serial by default; see
    :mod:`repro.build.executors`), and the resulting
    :class:`~repro.build.plan.BuildReport` is kept as ``build_report``.
    Every executor produces a byte-identical labeling.
    """

    def __init__(self, graph: Graph, config: FTCConfig, root: Vertex | None = None,
                 executor=None, jobs: int | None = None):
        from repro.build.plan import BuildPlan

        result = BuildPlan(graph, config, root=root).run(executor, jobs)
        self._adopt_build_result(graph, config, result)

    @classmethod
    def from_build_result(cls, graph: Graph, config: FTCConfig,
                          result) -> "FTCLabeling":
        """Wrap an already-executed :class:`~repro.build.plan.BuildResult`.

        The seam for builds that do not run the default plan — the
        incremental path of :mod:`repro.delta` runs the plan itself (with a
        ``level_reuse`` hook) and adopts the result here.  The labeling is
        indistinguishable from one built by the constructor.
        """
        labeling = cls.__new__(cls)
        labeling._adopt_build_result(graph, config, result)
        return labeling

    def _adopt_build_result(self, graph: Graph, config: FTCConfig,
                            result) -> None:
        self.graph = graph
        self.config = config
        self.instance: TransformedInstance = result.instance
        self.outdetect: OutdetectScheme = result.outdetect
        self._tree_labeling = result.tree_labeling
        self._hierarchy = result.hierarchy
        self.build_report = result.report
        self.construction_seconds = result.report.total_seconds
        self._init_session_cache()

    # ---------------------------------------------------------------- labels

    def vertex_label(self, vertex: Vertex) -> VertexLabel:
        """Label of an original vertex."""
        if not self.graph.has_vertex(vertex):
            raise KeyError("vertex %r is not in the graph" % (vertex,))
        return self._tree_labeling.vertex_label(vertex)

    def edge_label(self, u: Vertex, v: Vertex) -> EdgeLabel:
        """Label of an original edge (the label of sigma(e), Proposition 1)."""
        edge = canonical_edge(u, v)
        if not self.graph.has_edge(*edge):
            raise KeyError("edge %r is not in the graph" % (edge,))
        image = self.instance.auxiliary.sigma(*edge)
        return self._tree_labeling.tree_edge_label(*image)

    def all_vertex_labels(self) -> dict:
        return {vertex: self.vertex_label(vertex) for vertex in self.graph.vertices()}

    def all_edge_labels(self) -> dict:
        return {edge: self.edge_label(*edge) for edge in self.graph.edges()}

    # -------------------------------------------------------- query-side knobs

    @property
    def codec(self):
        """The edge-identifier codec (decode-side parameter of the scheme)."""
        return self.instance.codec

    @property
    def max_faults(self) -> int:
        return self.config.max_faults

    # ------------------------------------------------------------ persistence

    def to_snapshot_bytes(self) -> bytes:
        """Serialize the whole labeling to the FTCS snapshot format.

        The snapshot carries everything the universal decoder needs — config,
        edge-id codec parameters, per-level outdetect thresholds, and every
        vertex and edge label — so :func:`repro.core.snapshot.load_snapshot`
        can rehydrate an oracle without the graph and without re-running the
        construction.
        """
        from repro.core.snapshot import FTCSnapshot
        return FTCSnapshot.from_labeling(self).to_bytes()

    def save(self, path) -> int:
        """Write the snapshot bytes to ``path``; returns the byte count."""
        from repro.core.snapshot import FTCSnapshot
        return FTCSnapshot.from_labeling(self).save(path)

    # -------------------------------------------------------------- statistics

    def label_size_stats(self) -> dict:
        """Label-size accounting (bits), the quantity Table 1 compares."""
        vertex_bits = [self.vertex_label(v).bit_size() for v in self.graph.vertices()]
        edge_bits = [self.edge_label(u, v).bit_size() for u, v in self.graph.edges()]
        stats = {
            "n": self.graph.num_vertices(),
            "m": self.graph.num_edges(),
            "f": self.config.max_faults,
            "variant": self.config.variant.value,
            "max_vertex_label_bits": max(vertex_bits) if vertex_bits else 0,
            "max_edge_label_bits": max(edge_bits) if edge_bits else 0,
            "mean_edge_label_bits": (sum(edge_bits) / len(edge_bits)) if edge_bits else 0.0,
            "total_label_bits": sum(vertex_bits) + sum(edge_bits),
            "construction_seconds": self.construction_seconds,
        }
        if self._hierarchy is not None:
            stats["hierarchy"] = self._hierarchy.describe()
        return stats

    @property
    def hierarchy(self):
        """The sparsification hierarchy (``None`` for sketch variants)."""
        return self._hierarchy
