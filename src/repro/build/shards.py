"""The picklable shard worker of the build plan.

One module-level function, plain-data tasks, plain-data results — exactly
what a :class:`~repro.build.executors.ProcessExecutor` needs to ship work
across process boundaries.  A task describes one *shard* of one outdetect
level: the scheme's parameters plus a slice of the level's edges, with
endpoints pre-resolved to integer positions in the level's vertex order so
no vertex objects (or the vertex list itself) ever cross the boundary.

The result is **sparse**: ``(positions, rows)`` where ``positions`` are the
vertex positions the shard's edges touch and ``rows`` their partial labels,
a label matrix of the worker's bulk backend (a uint64 array or int rows,
both picklable).  Untouched vertices contribute nothing — their labels are
XOR identities — so shipping them would only inflate pickling and merging;
for a deep level with few edges a shard's result is tiny regardless of the
graph size.  Because vertex labels are XOR sums over incident edges,
:func:`merge_shards` can fold any partition of the edges back into the exact
matrix a single-shot build would have produced — bit-identical by
construction, regardless of executor or shard count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gf2.bulk import BulkOps, Matrix, get_bulk_ops
from repro.gf2.field import GF2m

if TYPE_CHECKING:
    from repro.outdetect.rs_threshold import RSThresholdOutdetect
    from repro.outdetect.sketch import SketchOutdetect


def rs_shard_task(width: int, modulus: int, threshold: int, edges: list) -> dict:
    """Task description for one Reed--Solomon level shard.

    ``edges`` is a list of ``(u_position, v_position, identifier)`` triples —
    a slice of the level's edges with endpoints resolved against the level's
    vertex order.  The field travels as ``(width, modulus)`` so the task
    pickles small and the worker rebuilds arithmetic locally.
    """
    return {"kind": "rs", "width": width, "modulus": modulus,
            "threshold": threshold, "edges": edges}


def sketch_shard_task(num_levels: int, repetitions: int, seed: int,
                      id_bits: int, edges: list) -> dict:
    """Task description for one sketch shard (a slice of all edges).

    The geometry is fixed up front from the *full* edge set (see
    :meth:`~repro.outdetect.sketch.SketchOutdetect.plan_geometry`) so every
    shard hashes into identical cells.
    """
    return {"kind": "sketch", "num_levels": num_levels,
            "repetitions": repetitions, "seed": seed, "id_bits": id_bits,
            "edges": edges}


def build_shard(task: dict) -> tuple:
    """Build one shard's sparse partial labels (runs in any worker).

    Returns ``(positions, rows)``: the sorted vertex positions the shard's
    edges touch and one partial label row per position.  Import of the
    outdetect schemes is deferred so a freshly spawned worker only pays for
    what its task needs.
    """
    positions = sorted({position for u, v, _ in task["edges"] for position in (u, v)})
    edge_items = [((u, v), identifier) for u, v, identifier in task["edges"]]
    kind = task["kind"]
    scheme: "RSThresholdOutdetect | SketchOutdetect"
    if kind == "rs":
        from repro.outdetect.rs_threshold import RSThresholdOutdetect

        field = GF2m(task["width"], task["modulus"])
        scheme = RSThresholdOutdetect.decode_only(field, task["threshold"])
    elif kind == "sketch":
        from repro.outdetect.sketch import SketchOutdetect

        scheme = SketchOutdetect.decode_only(
            task["num_levels"], task["repetitions"], task["seed"], task["id_bits"])
    else:
        raise ValueError("unknown shard kind %r" % (kind,))
    # label_matrix is generic over hashable vertices, so the compact integer
    # positions act as the shard's vertex set directly.
    return positions, scheme.label_matrix(positions, edge_items)


def merge_shards(num_vertices: int, row_len: int, shard_results: list,
                 bulk: BulkOps | None = None) -> Matrix:
    """XOR sparse shard results into one full ``num_vertices x row_len`` matrix.

    XOR is associative and commutative, so the merged matrix is independent
    of how edges were partitioned into shards — the bit-identity guarantee.
    Positions never seen stay the all-zero label (isolated vertices).

    The merge is one :meth:`~repro.gf2.bulk.BulkOps.merge_rows` call of
    ``bulk`` (auto-selected when omitted), which returns its label matrix:
    shards built as uint64 arrays merge into one array, and Python rows into
    Python rows.
    """
    if bulk is None:
        bulk = get_bulk_ops(None)
    return bulk.merge_rows(num_vertices, row_len, shard_results)


__all__ = ["build_shard", "merge_shards", "rs_shard_task", "sketch_shard_task"]
