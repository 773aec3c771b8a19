"""The staged construction plan behind every labeling build.

:class:`BuildPlan` decomposes what used to be a monolithic
``FTCLabeling.__init__`` into four explicit stages:

``spanning``
    Root a spanning tree and build the transformed instance (G', T', sigma,
    ancestry labels, edge identifiers) — Section 5, steps 1 and 4.
``hierarchy``
    Build the sparsification hierarchy (deterministic or randomized), or
    fix the sketch geometry for the Dory--Parter baselines.
``outdetect``
    Build every per-level outdetect label matrix.  This is the parallel
    stage: the per-level Reed--Solomon builds are independent by
    construction, and within a level (and within the single sketch) the
    edge set is further split into XOR-mergeable shards, so a
    :class:`~repro.build.executors.BuildExecutor` can fan the shard tasks
    out to threads or processes.  Results are merged back in deterministic
    order, so the labels are bit-identical to a serial build.
``assembly``
    Ancestry labels and the tree-edge scheme — the sequential wrap-up that
    consumes the outdetect labels.  Each level's matrix stays in its bulk
    backend's form (one uint64 array on numpy) from the outdetect stage
    on, and Proposition 4's subtree XOR sums of a level are one prefix-XOR
    scan over it in DFS preorder, read back as Python ints once per level.

:meth:`BuildPlan.run` returns a :class:`BuildResult` carrying the built
pieces plus a :class:`BuildReport` (per-stage wall time and peak memory,
shard counts, executor name) — the observability the ROADMAP's "shard label
construction" item asked for.  Peak memory comes from
:class:`repro.obs.memory.PeakMemoryMeter`: exact per-stage peaks when the
caller has ``tracemalloc`` tracing enabled, else the process RSS high-water
mark (monotone across stages — under the RSS probe a later stage's peak is
at least every earlier stage's).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Hashable, Optional

from repro.build.executors import BuildExecutor, resolve_executor
from repro.obs.memory import PeakMemoryMeter
from repro.build.shards import (build_shard, merge_shards, rs_shard_task,
                                sketch_shard_task)
from repro.core.config import FTCConfig, SchemeVariant
from repro.core.transform import TransformedInstance, build_transformed_instance
from repro.core.tree_scheme import TreeEdgeLabeling
from repro.gf2.bulk import get_bulk_ops
from repro.graphs.graph import Graph
from repro.hierarchy.base import EdgeHierarchy
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.deterministic import build_deterministic_hierarchy
from repro.hierarchy.randomized import build_randomized_hierarchy
from repro.outdetect.base import OutdetectScheme
from repro.outdetect.layered import LayeredOutdetect
from repro.outdetect.rs_threshold import RSThresholdOutdetect
from repro.outdetect.sketch import SketchOutdetect

Vertex = Hashable

#: The incremental-build seam (:mod:`repro.delta`): called per layered-RS
#: level with ``(level_index, threshold, edge_ids, vertices, field)``; a
#: non-``None`` return is adopted as that level's complete label matrix.
LevelReuseHook = Callable[[int, int, dict, list, object], Optional[Any]]

#: Stage names, in execution order (the keys of ``BuildReport.stage_seconds``).
STAGES = ("spanning", "hierarchy", "outdetect", "assembly")


@dataclass(frozen=True)
class BuildReport:
    """What one build did and how long each stage took.

    ``shard_count`` counts the outdetect shard tasks actually dispatched;
    ``level_count`` the outdetect levels they were merged back into (one for
    the sketch variants).  ``jobs`` is the executor's worker bound, not the
    shard count — a serial build of a deep hierarchy still has many shards.

    ``stage_peak_bytes`` maps each stage to its peak-memory reading (bytes),
    measured by the probe named in ``memory_probe`` (``"tracemalloc"``,
    ``"rss"``, or ``"unavailable"`` — empty dict in the last case).  The RSS
    probe reads the process high-water mark, so its per-stage values are
    monotone non-decreasing rather than independent peaks.
    """

    executor: str
    jobs: int
    shard_count: int
    level_count: int
    stage_seconds: dict = dataclass_field(default_factory=dict)
    total_seconds: float = 0.0
    stage_peak_bytes: dict = dataclass_field(default_factory=dict)
    memory_probe: str = "unavailable"
    #: Levels whose label matrix came from a ``level_reuse`` hook instead of
    #: shard construction (the incremental path of :mod:`repro.delta`).
    reused_level_count: int = 0

    def to_dict(self) -> dict:
        """A JSON-ready view (what the CLI prints under ``build_report``)."""
        return {
            "executor": self.executor,
            "jobs": self.jobs,
            "shard_count": self.shard_count,
            "level_count": self.level_count,
            "stage_seconds": dict(self.stage_seconds),
            "total_seconds": self.total_seconds,
            "stage_peak_bytes": dict(self.stage_peak_bytes),
            "memory_probe": self.memory_probe,
            "reused_level_count": self.reused_level_count,
        }


@dataclass
class BuildResult:
    """Everything :class:`~repro.core.ftc.FTCLabeling` needs, plus the report."""

    instance: TransformedInstance
    hierarchy: EdgeHierarchy | None
    outdetect: OutdetectScheme
    tree_labeling: TreeEdgeLabeling
    report: BuildReport


class BuildPlan:
    """Staged construction of one labeling for one ``(graph, config)``.

    The plan validates its inputs eagerly (same errors the old constructor
    raised), then :meth:`run` executes the stages under any
    :class:`~repro.build.executors.BuildExecutor`.  Plans are single-use
    descriptions — build twice by creating two plans.
    """

    def __init__(self, graph: Graph, config: FTCConfig, root: Vertex | None = None):
        if not isinstance(config, FTCConfig):
            raise TypeError("config must be an FTCConfig, got %r"
                            % type(config).__name__)
        if graph.num_vertices() < 1:
            raise ValueError("the input graph must have at least one vertex")
        if not graph.is_connected():
            raise ValueError("the input graph must be connected "
                             "(run one labeling per connected component)")
        self.graph = graph
        self.config = config
        self.root = root

    # ------------------------------------------------------------------ stages

    def run(self, executor: BuildExecutor | str | None = None,
            jobs: int | None = None,
            level_reuse: LevelReuseHook | None = None) -> BuildResult:
        """Execute all four stages and return the result + report.

        ``level_reuse`` is the incremental-build seam (:mod:`repro.delta`):
        called once per layered-RS level with ``(level_index, threshold,
        edge_ids, vertices, field)``, it may return a complete label matrix
        for that level — which is adopted verbatim, skipping the level's
        shard construction — or ``None`` to build the level from scratch.
        Sketch variants ignore the hook (their single level is global).  The
        hook must preserve the XOR-merge semantics: an adopted matrix must
        equal what the shard pipeline would have produced, which callers
        guarantee by patching a base matrix with the XOR contributions of the
        changed edges only.
        """
        executor = resolve_executor(executor, jobs)
        stage_seconds: dict[str, float] = {}
        stage_peak: dict[str, int] = {}
        meter = PeakMemoryMeter()
        start = time.perf_counter()

        stage_start = time.perf_counter()
        meter.start_phase()
        instance = build_transformed_instance(
            self.graph, root=self.root, edge_id_mode=self.config.edge_id_mode)
        _record_peak(stage_peak, "spanning", meter)
        stage_seconds["spanning"] = time.perf_counter() - stage_start

        stage_start = time.perf_counter()
        meter.start_phase()
        hierarchy = self._build_hierarchy(instance)
        _record_peak(stage_peak, "hierarchy", meter)
        stage_seconds["hierarchy"] = time.perf_counter() - stage_start

        stage_start = time.perf_counter()
        meter.start_phase()
        outdetect, shard_count, level_count, reused_levels = \
            self._build_outdetect(instance, hierarchy, executor, level_reuse)
        _record_peak(stage_peak, "outdetect", meter)
        stage_seconds["outdetect"] = time.perf_counter() - stage_start

        stage_start = time.perf_counter()
        meter.start_phase()
        tree_labeling = TreeEdgeLabeling(instance, outdetect)
        _record_peak(stage_peak, "assembly", meter)
        stage_seconds["assembly"] = time.perf_counter() - stage_start

        report = BuildReport(
            executor=executor.name,
            jobs=executor.jobs,
            shard_count=shard_count,
            level_count=level_count,
            stage_seconds=stage_seconds,
            total_seconds=time.perf_counter() - start,
            stage_peak_bytes=stage_peak,
            memory_probe=meter.probe,
            reused_level_count=reused_levels,
        )
        return BuildResult(instance=instance, hierarchy=hierarchy,
                           outdetect=outdetect, tree_labeling=tree_labeling,
                           report=report)

    def _build_hierarchy(self, instance: TransformedInstance) -> EdgeHierarchy | None:
        """Stage 2: the sparsification hierarchy (``None`` for sketch variants)."""
        config = self.config
        if not config.variant.uses_hierarchy:
            return None
        hierarchy_config = HierarchyConfig(
            max_faults=config.max_faults,
            rule=config.threshold_rule,
            net_algorithm=config.net_algorithm,
            random_seed=config.random_seed,
        )
        if config.variant is SchemeVariant.RANDOMIZED_FULL:
            return build_randomized_hierarchy(instance.non_tree_edges, hierarchy_config)
        return build_deterministic_hierarchy(
            instance.non_tree_edges, instance.tour, hierarchy_config)

    # --------------------------------------------------------------- sharding

    def _build_outdetect(self, instance: TransformedInstance,
                         hierarchy: EdgeHierarchy | None,
                         executor: BuildExecutor,
                         level_reuse: LevelReuseHook | None = None) -> tuple:
        """Stage 3: shard every level's edges, fan out, merge, assemble.

        Returns ``(scheme, shard_count, level_count, reused_level_count)``.
        Shards are created per level with at most ``executor.jobs`` slices
        each, tasks are dispatched in one ``executor.map`` across *all*
        levels (so a deep hierarchy with skewed level sizes still
        load-balances), and each level's partial matrices are XOR-merged back
        in place.  A level whose matrix the ``level_reuse`` hook supplies
        dispatches no shard tasks at all.
        """
        vertices = list(instance.auxiliary.tree_prime.vertices())
        vertex_index = {vertex: position for position, vertex in enumerate(vertices)}
        if hierarchy is None:
            return self._build_sketch(instance, vertices, vertex_index, executor)
        field = instance.codec.field
        levels: list[tuple[int, dict]]
        if not hierarchy.levels:
            # A tree has no non-tree edges; a single trivial level keeps the
            # layered machinery uniform.
            levels = [(1, {})]
        else:
            levels = [(threshold,
                       {edge: instance.edge_ids[edge] for edge in level_edges})
                      for level_edges, threshold in zip(hierarchy.levels,
                                                        hierarchy.thresholds)]
        reused: dict[int, Any] = {}
        if level_reuse is not None:
            for level_index, (threshold, edge_ids) in enumerate(levels):
                matrix = level_reuse(level_index, threshold, edge_ids,
                                     vertices, field)
                if matrix is not None:
                    reused[level_index] = matrix
        tasks: list[dict] = []
        slices: list[list[int]] = []  # task indices per level, in level order
        for level_index, (threshold, edge_ids) in enumerate(levels):
            level_tasks: list[int] = []
            if level_index not in reused:
                for chunk in _chunks(_position_edges(edge_ids, vertex_index),
                                     executor.jobs):
                    level_tasks.append(len(tasks))
                    tasks.append(rs_shard_task(field.width, field.modulus,
                                               threshold, chunk))
            slices.append(level_tasks)
        results = executor.map(build_shard, tasks)
        merge_bulk = get_bulk_ops(None, max_bits=field.width)
        level_schemes: list[RSThresholdOutdetect] = []
        for level_index, ((threshold, edge_ids), task_indices) in \
                enumerate(zip(levels, slices)):
            if level_index in reused:
                merged = reused[level_index]
            else:
                merged = merge_shards(len(vertices), 2 * threshold,
                                      [results[index] for index in task_indices],
                                      bulk=merge_bulk)
            level_schemes.append(RSThresholdOutdetect.from_label_matrix(
                field, threshold, vertices, edge_ids, merged,
                adaptive=self.config.adaptive_decoding))
        return (LayeredOutdetect(level_schemes), len(tasks), len(levels),
                len(reused))

    def _build_sketch(self, instance: TransformedInstance, vertices: list,
                      vertex_index: dict, executor: BuildExecutor) -> tuple:
        """Sketch variants: one level, edge set split into XOR-merged shards."""
        config = self.config
        edge_ids = instance.edge_ids
        repetitions = config.effective_sketch_repetitions()
        geometry = SketchOutdetect.plan_geometry(edge_ids, repetitions=repetitions)
        tasks = [sketch_shard_task(geometry["num_levels"], geometry["repetitions"],
                                   config.random_seed, geometry["id_bits"], chunk)
                 for chunk in _chunks(_position_edges(edge_ids, vertex_index),
                                      executor.jobs)]
        merge_bulk = get_bulk_ops(None, max_bits=geometry["value_bits"])
        merged = merge_shards(len(vertices),
                              geometry["num_levels"] * geometry["repetitions"],
                              executor.map(build_shard, tasks),
                              bulk=merge_bulk)
        scheme = SketchOutdetect.from_label_matrix(
            vertices, edge_ids, merged,
            num_levels=geometry["num_levels"],
            repetitions=geometry["repetitions"],
            seed=config.random_seed,
            id_bits=geometry["id_bits"])
        return scheme, len(tasks), 1, 0


def _record_peak(stage_peak: dict, stage: str, meter: PeakMemoryMeter) -> None:
    """File one stage's peak-memory reading, skipping unavailable probes."""
    peak = meter.end_phase()
    if peak is not None:
        stage_peak[stage] = peak


def _position_edges(edge_ids: dict, vertex_index: dict) -> list:
    """Resolve a level's edges to ``(u_position, v_position, identifier)``.

    Done once in the parent so shard tasks carry only small integers — no
    vertex objects or vertex lists cross a process boundary — and so an edge
    endpoint outside the scheme's vertex set raises ``KeyError`` here, before
    any fan-out.
    """
    return [(vertex_index[u], vertex_index[v], identifier)
            for (u, v), identifier in edge_ids.items()]


def _chunks(items: list, parts: int) -> list:
    """Split ``items`` into at most ``parts`` contiguous, near-equal slices.

    Always yields at least one (possibly empty) slice so every level produces
    a matrix; never yields an empty slice when a non-empty one exists.
    """
    count = len(items)
    parts = max(1, min(parts, count) if count else 1)
    base, extra = divmod(count, parts)
    out: list = []
    position = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        out.append(items[position:position + size])
        position += size
    return out


__all__ = ["STAGES", "BuildPlan", "BuildReport", "BuildResult",
           "LevelReuseHook"]
