"""A centralized connectivity-oracle wrapper around the labeling scheme.

Any f-FTC labeling scheme doubles as a centralized connectivity oracle by
simply storing all labels (Section 1.4); this wrapper does exactly that and is
the "build" transport of the oracle protocol (:mod:`repro.api`): the same
``connected`` / ``connected_many`` / ``batch_session`` / ``stats`` / ``close``
surface is served by a snapshot-rehydrated oracle and by the TCP client, so
transports are swappable deployment details.  It also exposes the exact
recomputation answer for auditing.

Queries are served through the batched session pipeline of
:mod:`repro.core.batch`: ``connected_many`` answers any number of ``(s, t)``
pairs against one shared fault set, and the single-query ``connected`` is a
thin wrapper over the same (LRU-cached) session, so repeated queries against
the same fault set never rebuild the component decomposition.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.core.batch import BatchQuerySession
from repro.core.config import (FTCConfig, SchemeVariant, resolve_build_executor,
                               resolve_ftc_config)
from repro.core.ftc import FTCLabeling
from repro.core.labels import EdgeLabel, VertexLabel
from repro.core.query import QueryFailure
from repro.graphs.graph import Edge, Graph

Vertex = Hashable


class FTConnectivityOracle:
    """Answers ``connected(s, t, F)`` queries for one graph under a fault budget.

    The canonical construction shape is ``FTConnectivityOracle(graph,
    config=FTCConfig(...))`` (or the :func:`repro.api.Oracle.build` factory);
    the legacy loose parameters (``max_faults`` / ``variant``) still work and
    are normalized through :func:`~repro.core.config.resolve_ftc_config`,
    which warns when they are passed redundantly alongside ``config``.
    """

    #: Transport tag of the oracle protocol (:mod:`repro.api`).
    transport = "build"

    def __init__(self, graph: Graph, max_faults: int | None = None,
                 variant: SchemeVariant | str | None = None,
                 config: FTCConfig | None = None, use_fast_engine: bool = True,
                 executor=None, jobs: int | None = None):
        self.config = resolve_ftc_config(max_faults=max_faults, config=config,
                                         variant=variant)
        self.graph = graph
        self.labeling = FTCLabeling(graph, self.config,
                                    executor=resolve_build_executor(executor, jobs))
        self.use_fast_engine = use_fast_engine
        self._queries_answered = 0

    @classmethod
    def from_labeling(cls, graph: Graph, labeling: FTCLabeling,
                      use_fast_engine: bool = True) -> "FTConnectivityOracle":
        """Wrap an already-constructed labeling (no rebuild).

        The adoption path of :meth:`repro.api.Oracle.build_delta`: an
        incremental rebuild produces the :class:`~repro.core.ftc.FTCLabeling`
        directly, and this constructor gives it the same oracle surface the
        normal construction path gets.
        """
        oracle = cls.__new__(cls)
        oracle.config = labeling.config
        oracle.graph = graph
        oracle.labeling = labeling
        oracle.use_fast_engine = use_fast_engine
        oracle._queries_answered = 0
        return oracle

    def connected(self, s: Vertex, t: Vertex, faults: Iterable[Edge] = ()) -> bool:
        """Connectivity of s and t in G - F, answered from labels.

        Thin wrapper over :meth:`connected_many` (which already counts the
        query — no double counting) so consecutive queries against the same
        fault set reuse one cached batch session.
        """
        return self.connected_many([(s, t)], faults)[0]

    def connected_many(self, pairs: Sequence[tuple],
                       faults: Iterable[Edge] = ()) -> list[bool]:
        """Answer many ``(s, t)`` pairs against one shared fault set.

        ``use_fast_engine=False`` keeps the basic Lemma-1 engine reachable for
        comparison runs; the default path goes through the cached batch
        session.
        """
        if self.use_fast_engine:
            answers = self.labeling.connected_many(pairs, faults)
        else:
            fault_list = list(faults)
            answers = [self.labeling.connected(s, t, fault_list, use_fast_engine=False)
                       for s, t in pairs]
        self._queries_answered += len(answers)
        return answers

    def batch_session(self, faults: Iterable[Edge] = ()) -> BatchQuerySession:
        """The (LRU-cached) batched query session for one fault set.

        Exposed so callers holding an oracle — live, rehydrated from a
        snapshot (:mod:`repro.core.snapshot`), or remote — see the same
        ``connected`` / ``connected_many`` / ``batch_session`` surface.
        """
        return self.labeling.batch_session(faults)

    def build_sessions(self, fault_sets: Sequence[Iterable[Edge]],
                       executor=None, jobs: int | None = None) -> list:
        """Construct sessions for many distinct fault sets, possibly in
        parallel (see :meth:`~repro.core.ftc.LabelBackedQueries.build_sessions`)."""
        return self.labeling.build_sessions(fault_sets, executor=executor,
                                            jobs=jobs)

    def connected_exact(self, s: Vertex, t: Vertex, faults: Iterable[Edge] = ()) -> bool:
        """Ground-truth answer by BFS on G - F (for auditing and tests)."""
        return self.graph.connected(s, t, removed=list(faults))

    def audit(self, queries: Iterable[tuple]) -> dict:
        """Compare the labeling answers against ground truth for many queries.

        Each query is a tuple ``(s, t, faults)``.  Returns counts of agreements
        and disagreements.
        """
        agree = 0
        disagree = 0
        failures = 0
        for s, t, faults in queries:
            expected = self.connected_exact(s, t, faults)
            try:
                answer = self.connected(s, t, faults)
            except QueryFailure:
                # Benign decode failure (randomized sketches / heuristic
                # PRACTICAL thresholds).  Anything else — KeyError, TypeError —
                # is a genuine defect and must propagate, not be counted as a
                # scheme failure.
                failures += 1
                continue
            if answer == expected:
                agree += 1
            else:
                disagree += 1
        total = agree + disagree + failures
        return {
            "total": total,
            "agree": agree,
            "disagree": disagree,
            "failures": failures,
            "accuracy": agree / total if total else 1.0,
        }

    # ------------------------------------------------------------- topology

    @property
    def max_faults(self) -> int:
        return self.config.max_faults

    def vertices(self) -> list:
        return list(self.graph.vertices())

    def has_vertex(self, vertex: Vertex) -> bool:
        return self.graph.has_vertex(vertex)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return self.graph.has_edge(u, v)

    def num_vertices(self) -> int:
        return self.graph.num_vertices()

    def num_edges(self) -> int:
        return self.graph.num_edges()

    # ---------------------------------------------------------------- labels

    def vertex_label(self, vertex: Vertex) -> VertexLabel:
        return self.labeling.vertex_label(vertex)

    def edge_label(self, u: Vertex, v: Vertex) -> EdgeLabel:
        return self.labeling.edge_label(u, v)

    # ----------------------------------------------------------- persistence

    def to_snapshot_bytes(self) -> bytes:
        """Serialize the whole labeling to the FTCS snapshot format."""
        return self.labeling.to_snapshot_bytes()

    def save(self, path) -> int:
        """Write the snapshot bytes to ``path``; returns the byte count."""
        return self.labeling.save(path)

    @property
    def construction_seconds(self) -> float:
        return self.labeling.construction_seconds

    @property
    def build_report(self):
        """The :class:`~repro.build.plan.BuildReport` of the construction."""
        return self.labeling.build_report

    # ------------------------------------------------------------ statistics

    def label_size_stats(self) -> dict:
        return self.labeling.label_size_stats()

    def stats(self):
        """Normalized :class:`~repro.api.OracleStats` (the protocol's view)."""
        from repro.api import local_oracle_stats
        return local_oracle_stats(self, self.labeling.session_cache_info())

    @property
    def queries_answered(self) -> int:
        return self._queries_answered

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Drop cached batch sessions (labels stay usable).  Idempotent."""
        self.labeling.close()

    def __enter__(self) -> "FTConnectivityOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
