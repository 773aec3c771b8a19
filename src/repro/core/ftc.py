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
from concurrent.futures import Future
from functools import partial
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from repro.core.batch import BatchQuerySession
from repro.core.config import FTCConfig
from repro.core.fast_query import FastQueryEngine
from repro.core.labels import EdgeLabel, VertexLabel
from repro.core.query import BasicQueryEngine, QueryFailure, canonical_fault_key
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.outdetect.base import OutdetectScheme

if TYPE_CHECKING:
    from repro.core.transform import TransformedInstance

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
    event loop and a worker-thread executor) and builds each fault set once
    (:meth:`_session`): every read or write of the LRU and of the in-flight
    builds happens under one lock, while the expensive
    :class:`~repro.core.batch.BatchQuerySession` construction happens outside
    it, so builders of distinct fault sets never serialize each other.
    """

    #: Number of batch sessions kept alive (LRU, keyed by the canonical fault set).
    SESSION_CACHE_SIZE = 32

    def _init_session_cache(self) -> None:
        """Set up the (locked) batch-session LRU; call once per instance."""
        self._session_cache: OrderedDict[tuple, BatchQuerySession] = OrderedDict()
        #: canonical fault key -> future of the build that claimed it.
        self._session_builds: dict[tuple, Future] = {}
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
        redundant restatements of a fault set share one decomposition, and
        threads asking for one novel fault set at once share one build.
        """
        fault_labels, key = self._fault_labels_keyed(faults)
        return self._session(key, partial(BatchQuerySession, self.outdetect,
                                          self.codec, fault_labels))

    def build_sessions(self, fault_sets: Sequence[Iterable[Edge]],
                       jobs: int | None = None) -> list[BatchQuerySession]:
        """Build (or fetch) the batch sessions of many distinct fault sets.

        Every set goes through the session table of :meth:`_session`, so a
        set cached or being built elsewhere is shared, never built twice.
        With ``jobs > 1`` the component decompositions of the absent sets —
        the expensive part — are computed in ``jobs`` processes first
        (:func:`~repro.core.batch.decompose_fault_set`; workers receive only
        plain data, the snapshot outdetect descriptor plus the picklable
        fault edge labels), and each result is adopted through its set's
        claim.  Otherwise the sets are built one after another.  Either way
        the sessions are bit-identical.

        Returns one session per input fault set, in input order; duplicate
        fault sets (after canonicalization) share one session.  Raises
        whatever ``batch_session`` would raise for the offending set
        (:class:`KeyError`, :class:`ValueError`,
        :class:`~repro.core.query.QueryFailure`), and :class:`ValueError`
        for ``jobs < 1``.
        """
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be at least 1, got %d" % jobs)
        keyed = [self._fault_labels_keyed(faults) for faults in fault_sets]
        labels_of: dict[tuple, list[EdgeLabel]] = {}
        for fault_labels, key in keyed:
            labels_of.setdefault(key, fault_labels)
        builds = {key: partial(BatchQuerySession, self.outdetect, self.codec,
                               labels) for key, labels in labels_of.items()}
        task = self._decompose_task() if jobs is not None and jobs > 1 else None
        if task is not None:
            from repro.build.executors import resolve_executor
            from repro.core.batch import decompose_fault_set

            absent = [key for key in labels_of
                      if self._session_entry(key)[0] is None]
            decompositions = resolve_executor(jobs=jobs).map(
                decompose_fault_set,
                [dict(task, fault_labels=labels_of[key]) for key in absent])
            for key, component_of in zip(absent, decompositions):
                builds[key] = partial(BatchQuerySession.from_decomposition,
                                      self.outdetect, self.codec,
                                      labels_of[key], component_of)
        sessions = {key: self._session(key, build)
                    for key, build in builds.items()}
        return [sessions[key] for _, key in keyed]

    def _decompose_task(self) -> dict | None:
        """The plain-data part of a process worker's task, or ``None`` when
        the scheme has no snapshot descriptor (its sets build in process)."""
        from repro.core.snapshot import describe_outdetect

        try:
            descriptor = describe_outdetect(self.outdetect)
        except TypeError:
            return None
        level = self.outdetect
        if hasattr(level, "level_schemes"):
            level = level.level_schemes[0]
        field = self.codec.field
        return {
            "descriptor": descriptor,
            "field_width": field.width,
            "field_modulus": field.modulus,
            "adaptive": bool(getattr(level, "adaptive", True)),
            "codec_modulus": self.codec.modulus,
            "codec_mode": self.codec.mode,
        }

    def _session(self, key: tuple,
                 build: Callable[[], BatchQuerySession]) -> BatchQuerySession:
        """The session of ``key``, built at most once however many threads ask.

        The caller that finds ``key`` absent claims it and runs ``build()``
        at once, outside the lock, so builds of distinct fault sets run in
        parallel and no waiter waits on a build queued behind it.  Callers
        that find it being built wait for that build.  A failed build raises
        here and in every waiter, and leaves the key absent.
        """
        future, claimed = self._session_entry(key, claim=True)
        if not claimed:
            return future.result() if isinstance(future, Future) else future
        try:
            session = build()
        except BaseException as error:
            with self._session_lock:
                del self._session_builds[key]
            future.set_exception(error)
            raise
        with self._session_lock:
            del self._session_builds[key]
            self._session_cache[key] = session
            while len(self._session_cache) > self.SESSION_CACHE_SIZE:
                self._session_cache.popitem(last=False)
                self._session_evictions += 1
        future.set_result(session)
        return session

    def _session_entry(self, key: tuple, claim: bool = False) -> tuple:
        """``(entry, claimed)`` for ``key``, read under ``_session_lock``.

        ``entry`` is the cached session (now most recently used), else the
        future of its build in flight, else ``None``.  With ``claim`` an
        absent key is claimed instead: ``entry`` is a new future and
        ``claimed`` is true (only :meth:`_session` claims).
        """
        with self._session_lock:
            session = self._session_cache.get(key)
            if session is not None:
                self._session_cache.move_to_end(key)
                return session, False
            future = self._session_builds.get(key)
            if future is not None or not claim:
                return future, False
            future = Future()
            # Running, so a waiter that gives up (a cancelled
            # asyncio.wrap_future) cannot cancel the build for the others.
            future.set_running_or_notify_cancel()
            self._session_builds[key] = future
            return future, True

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
