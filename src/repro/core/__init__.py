"""The f-fault-tolerant connectivity (f-FTC) labeling schemes of the paper.

This package assembles the substrates (ancestry labels, edge identifiers,
sparsification hierarchies, outdetect labelings) into the labeling schemes of
Theorems 1 and 2 and their randomized counterparts, together with the two
query-processing engines (Sections 3.1 and 7.6).

Public entry points
-------------------
``FTCLabeling``
    Builds all vertex/edge labels for a graph and a fault budget ``f``.
``FTCDecoder``
    The universal decoder: answers ``connected(s, t, F)`` from labels only.
``FTConnectivityOracle``
    Convenience wrapper that stores the labels of one graph and answers
    queries given vertex names and edge lists.
``FTCConfig`` / ``SchemeVariant``
    Which of the Table-1 schemes to build.
``BatchQuerySession``
    One fault set, many ``(s, t)`` queries: the component decomposition is
    built once and every pair is answered by lookup (see
    :mod:`repro.core.batch`).
``FTCSnapshot`` / ``load_snapshot`` / ``RehydratedOracle``
    Whole-labeling snapshots: serialize a complete labeling (config, codec
    and outdetect parameters, every label) and rehydrate a query-ready
    oracle without the graph and without reconstruction (see
    :mod:`repro.core.snapshot`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.batch import BatchQuerySession
    from repro.core.config import FTCConfig, SchemeVariant
    from repro.core.labels import EdgeLabel, VertexLabel
    from repro.core.ftc import FTCLabeling
    from repro.core.query import BasicQueryEngine, QueryFailure, canonical_fault_key
    from repro.core.fast_query import FastQueryEngine
    from repro.core.oracle import FTConnectivityOracle
    from repro.core.snapshot import FTCSnapshot, RehydratedOracle, load_snapshot

__all__ = [
    "FTCConfig",
    "SchemeVariant",
    "VertexLabel",
    "EdgeLabel",
    "FTCLabeling",
    "BasicQueryEngine",
    "FastQueryEngine",
    "BatchQuerySession",
    "QueryFailure",
    "canonical_fault_key",
    "FTConnectivityOracle",
    "FTCSnapshot",
    "RehydratedOracle",
    "load_snapshot",
]

__getattr__ = lazy_exports(__name__)
