"""Whole-labeling snapshots: round-trip fidelity and fail-closed decoding.

The contract under test (ISSUE 2 / ROADMAP "persist whole labelings"):

* ``load_snapshot(labeling.to_snapshot_bytes())`` answers every ``(s, t, F)``
  query identically to the live scheme on the integration-family workloads,
  without a graph and without reconstruction;
* every corrupt byte string — truncated, oversized, wrong magic/version/kind,
  trailing garbage — raises ``LabelDecodeError`` without hangs or giant
  allocations.
"""

import hashlib
import os
import random
import stat
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core import (FTCConfig, FTCLabeling, FTCSnapshot, FTConnectivityOracle,
                        RehydratedOracle, SchemeVariant, load_snapshot)
from repro.core.labels import EdgeLabel
from repro.core.serialize import LabelDecodeError
from repro.core.snapshot import (OutdetectDescriptor, SNAPSHOT_MAGIC,
                                 SNAPSHOT_VERSION_V2, build_decode_outdetect,
                                 read_svarint, read_vertex_key,
                                 upgrade_snapshot_file, write_svarint,
                                 write_vertex_key)
from repro.gf2.bulk import lane_bytes
from repro.outdetect.rs_threshold import RSThresholdOutdetect
from repro.outdetect.sketch import SketchOutdetect
from repro.workloads import FaultModel, GraphFamily, make_graph, make_query_workload

from label_payloads import v1_edge_blob, v1_levels

FAMILIES = [GraphFamily.ERDOS_RENYI, GraphFamily.GRID, GraphFamily.TREE_PLUS_CHORDS]


def _answers(answerer, queries):
    """Answers (or failure markers) for a list of (s, t, F) queries."""
    results = []
    for s, t, faults in queries:
        try:
            results.append(answerer.connected(s, t, faults))
        except Exception as error:  # compared verbatim against the live scheme
            results.append(("raised", type(error).__name__))
    return results


# -------------------------------------------------------------- round trips


@pytest.mark.parametrize("family", FAMILIES)
def test_rehydrated_oracle_matches_live_on_integration_families(family):
    graph = make_graph(family, n=30, seed=41, density=1.8)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    oracle = load_snapshot(labeling.to_snapshot_bytes())
    assert isinstance(oracle, RehydratedOracle)
    assert not hasattr(oracle, "graph")
    assert not hasattr(oracle, "hierarchy")
    workload = make_query_workload(graph, num_queries=30, max_faults=2,
                                   model=FaultModel.TREE_BIASED, seed=42)
    assert _answers(oracle, workload.queries) == _answers(labeling, workload.queries)
    # Ground truth agreement rides along (deterministic variant is exact).
    assert _answers(oracle, workload.queries) == workload.ground_truth


@pytest.mark.parametrize("variant", [SchemeVariant.DETERMINISTIC_POLY,
                                     SchemeVariant.RANDOMIZED_FULL,
                                     SchemeVariant.SKETCH_WHP,
                                     SchemeVariant.SKETCH_FULL])
def test_rehydrated_oracle_matches_live_for_every_variant(variant):
    """Identical answers *and* identical failures under random fault sets."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=26, seed=7, density=2.0)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2, variant=variant,
                                            random_seed=3))
    oracle = load_snapshot(labeling.to_snapshot_bytes())
    workload = make_query_workload(graph, num_queries=25, max_faults=2,
                                   model=FaultModel.ADVERSARIAL, seed=8)
    assert _answers(oracle, workload.queries) == _answers(labeling, workload.queries)


def test_rehydrated_batched_api_matches_live():
    graph = make_graph(GraphFamily.GRID, n=36, seed=45)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=3))
    oracle = load_snapshot(labeling.to_snapshot_bytes())
    rng = random.Random(46)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    for trial in range(5):
        faults = rng.sample(edges, 3)
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(30)]
        assert oracle.connected_many(pairs, faults) == \
            labeling.connected_many(pairs, faults)
        live = labeling.batch_session(faults)
        rehydrated = oracle.batch_session(faults)
        assert rehydrated.num_fragments() == live.num_fragments()
        assert rehydrated.num_components() == live.num_components()
    assert oracle.queries_answered == 5 * 30


def test_rehydrated_matches_full_oracle_api():
    """RehydratedOracle mirrors FTConnectivityOracle's query surface."""
    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=24, seed=6, density=1.6)
    live = FTConnectivityOracle(graph, max_faults=2)
    rehydrated = load_snapshot(live.labeling.to_snapshot_bytes())
    for name in ("connected", "connected_many", "batch_session"):
        assert callable(getattr(rehydrated, name))
        assert callable(getattr(live, name))
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    faults = edges[:2]
    for s, t in [(vertices[0], vertices[-1]), (vertices[2], vertices[5])]:
        assert rehydrated.connected(s, t, faults) == live.connected(s, t, faults)
    assert rehydrated.num_vertices() == graph.num_vertices()
    assert rehydrated.num_edges() == graph.num_edges()
    assert rehydrated.max_faults == 2


def test_snapshot_dataclass_round_trip():
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=20, seed=11)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    snapshot = FTCSnapshot.from_labeling(labeling)
    restored = FTCSnapshot.from_bytes(snapshot.to_bytes())
    assert restored == snapshot
    # A lazily parsed snapshot re-serializes to the identical bytes.
    lazy = FTCSnapshot.from_bytes(snapshot.to_bytes(), decode_labels=False)
    assert lazy.to_bytes() == snapshot.to_bytes()


#: sha256 of the v1 and v2 snapshot bytes of ER n=48, seed 7, f=3, per
#: variant, with label payload version 2 (one packed word per outdetect
#: level).  They hold on every GF backend and with numpy absent.
GOLDEN_SNAPSHOT_SHA256 = {
    SchemeVariant.DETERMINISTIC_NEARLINEAR: (
        "8f95eb35c74754e6651404907813215fd2dfa64d1b06833bcbec4a56f5434833",
        "906730c70cecf9f5cac409ca6aef947a0b405f72c771d30e79daf1fcd5c5d1bb"),
    SchemeVariant.DETERMINISTIC_POLY: (
        "dcf457147b6571659fdbdf6675fc3332b9359b01cf78ee0d7401330e12fcea2e",
        "bd14a7bf33cba801f0c764eafb09c9f02036bc3755a36b137cfb7a4d0b8084dc"),
    SchemeVariant.RANDOMIZED_FULL: (
        "f3f7b0ddc17eca561b8b8f45595bd32e3db725a62bf0225f7bfc11ee84a6dbb5",
        "9845305958b3698eb70df7b77bcbdf2e8f7bdb499f306cdcc5349e7cdba41be1"),
    SchemeVariant.SKETCH_WHP: (
        "7d3ba7908c03f71cf6ca6a2ebab33876fa4829b1a8017f32b9ccab6cac974e73",
        "db5c27fe8771518182c6fd9e4b4dab22941079c335d92f0b245df788eb011b33"),
    SchemeVariant.SKETCH_FULL: (
        "bc53ecd85347399a4a8d585ac2b39f10c8a239a4755d18fb60b66ec81f53ef3c",
        "9275e7ee7eac4621fc14b75495ca611f6a47289b5758d1ff28c65cac3fa19f5e"),
}


@pytest.mark.parametrize("variant", list(SchemeVariant))
def test_snapshot_bytes_match_golden_digests(variant):
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=48, seed=7)
    snapshot = FTCSnapshot.from_labeling(
        FTCLabeling(graph, FTCConfig(max_faults=3, variant=variant)))
    digests = (hashlib.sha256(snapshot.to_bytes()).hexdigest(),
               hashlib.sha256(snapshot.to_bytes_v2()).hexdigest())
    assert digests == GOLDEN_SNAPSHOT_SHA256[variant]


def test_snapshot_bytes_are_canonical():
    """Equal labelings serialize identically regardless of insertion order."""
    from repro.graphs.graph import Graph

    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a")]
    forward = FTCLabeling(Graph(edges), FTCConfig(max_faults=2))
    backward = FTCLabeling(Graph(list(reversed(edges))), FTCConfig(max_faults=2))
    assert forward.to_snapshot_bytes() == backward.to_snapshot_bytes()
    assert forward.to_snapshot_bytes() == forward.to_snapshot_bytes()


def test_snapshot_file_round_trip(tmp_path):
    graph = make_graph(GraphFamily.GRID, n=16, seed=2)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    path = tmp_path / "labeling.ftcs"
    byte_count = labeling.save(path)
    assert path.stat().st_size == byte_count
    oracle = load_snapshot(path)
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    assert oracle.connected(vertices[0], vertices[-1], edges[:2]) == \
        labeling.connected(vertices[0], vertices[-1], edges[:2])


def test_rehydrated_budget_and_membership_errors():
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=18, seed=13)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=1))
    oracle = load_snapshot(labeling.to_snapshot_bytes())
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    with pytest.raises(ValueError):
        oracle.connected(vertices[0], vertices[1], edges[:2])  # budget f=1
    with pytest.raises(KeyError):
        oracle.connected("nope", vertices[1])
    with pytest.raises(KeyError):
        oracle.edge_label("nope", "also-nope")
    # Restating the same fault twice stays within the deduplicated budget.
    assert oracle.connected(vertices[0], vertices[1], [edges[0], edges[0]]) == \
        labeling.connected(vertices[0], vertices[1], [edges[0], edges[0]])


#: Snapshots written before label payload version 2, so every label blob in
#: them is a version-1 payload (LEB128 element trees): file under
#: ``tests/data``, its sha256, and the variant and size of the ER graph
#: (seed 5, f = 2) it labels.
PAYLOAD_V1_SNAPSHOTS = [
    ("payload-v1-er24-f2.ftcs",
     "df385a82c9a31328a5797347144004d1d3f74c25bba2258fab6b78f523165336",
     SchemeVariant.DETERMINISTIC_NEARLINEAR, 24),
    ("payload-v1-sketch-er16-f2.ftcs",
     "2a8fe3864c992e5b60e2395a2e9e2b7c95f14cf6f54dc703e1bb0ffb52d9de8f",
     SchemeVariant.SKETCH_WHP, 16),
]


@pytest.mark.parametrize("name,digest,variant,n", PAYLOAD_V1_SNAPSHOTS,
                         ids=[entry[0] for entry in PAYLOAD_V1_SNAPSHOTS])
def test_version_1_payload_snapshot_answers_like_a_fresh_build(name, digest, variant,
                                                               n, tmp_path):
    """A snapshot of version-1 payloads loads through every path, packs each
    label on its first read into the label a fresh build makes, and answers
    a seeded panel exactly as the fresh build does."""
    path = Path(__file__).parent / "data" / name
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=n, seed=5)
    fresh = FTCLabeling(graph, FTCConfig(max_faults=2, variant=variant))
    workload = make_query_workload(graph, num_queries=40, max_faults=2,
                                   model=FaultModel.TREE_BIASED, seed=17)
    expected = _answers(fresh, workload.queries)
    upgraded = tmp_path / "upgraded.ftcs"
    upgrade_snapshot_file(path, upgraded)  # the mmap layout, blobs verbatim
    for oracle in (load_snapshot(path), load_snapshot(data), load_snapshot(upgraded),
                   FTCSnapshot.from_bytes(data).rehydrate()):
        assert _answers(oracle, workload.queries) == expected
        for edge in sorted(graph.edges()):
            assert oracle.edge_label(*edge) == fresh.edge_label(*edge)
        oracle.close()


def test_a_level_that_does_not_fit_its_lanes_fails_on_first_read():
    """An edge label whose level holds 2k - 1 elements (version 1) or a word
    past its 2k lanes (version 2) is corrupt data: reading it raises
    LabelDecodeError, before any decoder sees it."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=30, seed=41)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    outdetect = labeling.outdetect
    top = outdetect.level_schemes[0]
    edges = sorted(graph.edges())
    label = labeling.edge_label(*edges[0])
    short = (v1_levels(outdetect, label)[0][:-1],) + v1_levels(outdetect, label)[1:]
    past_lanes = 1 << (8 * lane_bytes(top.lane_bits) * top.lane_count)
    wide = (label.outdetect_subtree_sum[0] | past_lanes,) + label.outdetect_subtree_sum[1:]
    for blob in (v1_edge_blob(label, short),
                 EdgeLabel(label.ancestry_upper, label.ancestry_lower, wide,
                           label.outdetect_bits).to_bytes()):
        lazy = FTCSnapshot.from_bytes(labeling.to_snapshot_bytes(), decode_labels=False)
        lazy.edge_labels[edges[0]] = blob
        oracle = load_snapshot(lazy.to_bytes())
        with pytest.raises(LabelDecodeError, match="does not fit"):
            oracle.edge_label(*edges[0])
        with pytest.raises(LabelDecodeError, match="does not fit"):
            oracle.connected(0, 1, [edges[0]])
        with pytest.raises(LabelDecodeError, match="does not fit"):
            FTCSnapshot.from_bytes(lazy.to_bytes()).rehydrate()


# ------------------------------------------------------------ vertex keys


def test_vertex_key_round_trip():
    keys = [0, -7, 123456789, "a", "vertex-42", "", ("x", 3), (1, (2, "y")), ()]
    for key in keys:
        out = bytearray()
        write_vertex_key(key, out)
        decoded, offset = read_vertex_key(bytes(out), 0)
        assert decoded == key and offset == len(out)


def test_vertex_key_rejects_unsupported_types():
    for bad in (3.14, None, True, frozenset()):
        with pytest.raises(TypeError):
            write_vertex_key(bad, bytearray())
    with pytest.raises(LabelDecodeError):
        read_vertex_key(b"\x7f", 0)  # unknown tag


def test_svarint_round_trip():
    for value in (0, 1, -1, 63, -64, 1 << 80, -(1 << 80)):
        out = bytearray()
        write_svarint(value, out)
        decoded, offset = read_svarint(bytes(out), 0)
        assert decoded == value and offset == len(out)


# -------------------------------------------------------- decode-only schemes


def test_decode_only_rs_matches_full_scheme():
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=20, seed=5)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    full_levels = labeling.outdetect.level_schemes
    for level in full_levels:
        rebuilt = RSThresholdOutdetect.decode_only(level.field, level.threshold,
                                                   adaptive=level.adaptive)
        assert rebuilt.zero_label() == level.zero_label()
        syndrome = level.syndrome_of_edge_set(list(level.edge_ids)[:1]) \
            if level.edge_ids else level.zero_label()
        assert rebuilt.decode(syndrome) == level.decode(syndrome)
        with pytest.raises(KeyError):
            rebuilt.label_of(0)


def test_decode_only_sketch_matches_full_scheme():
    edge_ids = {(0, 1): 5, (1, 2): 9, (0, 2): 12}
    full = SketchOutdetect([0, 1, 2], edge_ids, repetitions=4, seed=3)
    rebuilt = SketchOutdetect.decode_only(full.num_levels, full.repetitions,
                                          full.seed, full.id_bits)
    assert rebuilt.zero_label() == full.zero_label()
    label = full.label_of_set([0])
    assert rebuilt.decode(label) == full.decode(label)
    assert rebuilt.label_bit_size(label) == full.label_bit_size(label)


def test_decode_only_constructors_reject_invalid_parameters():
    from repro.gf2.field import GF2m

    with pytest.raises(ValueError):
        RSThresholdOutdetect.decode_only(GF2m(8), 0)
    with pytest.raises(ValueError):
        SketchOutdetect.decode_only(0, 4, 0, 8)
    with pytest.raises(ValueError):
        SketchOutdetect.decode_only(4, 0, 0, 8)
    with pytest.raises(ValueError):
        SketchOutdetect.decode_only(4, 4, 0, 0)


def test_build_decode_outdetect_rejects_bad_descriptors():
    from repro.gf2.field import GF2m
    field = GF2m(8)
    with pytest.raises(LabelDecodeError):
        build_decode_outdetect(OutdetectDescriptor(kind="layered-rs"), field, True)
    with pytest.raises(LabelDecodeError):
        build_decode_outdetect(OutdetectDescriptor(kind="martian"), field, True)


# ------------------------------------------------------------- fail closed


@pytest.fixture(scope="module")
def snapshot_bytes():
    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=18, seed=9, density=1.5)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    return labeling.to_snapshot_bytes()


def test_snapshot_header_validation(snapshot_bytes):
    data = snapshot_bytes
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(b"XXXX" + data[4:])            # bad magic
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(bytes([*data[:4], 99]) + data[5:])  # bad version
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(data + b"\x00")                 # trailing bytes
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(b"FT")                          # too short
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(b"")


def test_snapshot_truncation_fails_closed(snapshot_bytes):
    """Every proper prefix raises LabelDecodeError (eager and lazy paths)."""
    data = snapshot_bytes
    cuts = sorted({len(data) * i // 97 for i in range(97)} | {len(data) - 1})
    for cut in cuts:
        if cut >= len(data):
            continue
        with pytest.raises(LabelDecodeError):
            FTCSnapshot.from_bytes(data[:cut])
        with pytest.raises(LabelDecodeError):
            FTCSnapshot.from_bytes(data[:cut], decode_labels=False)


def test_snapshot_fuzzed_mutations_fail_closed(snapshot_bytes):
    """Random corruption parses fully or raises LabelDecodeError — nothing else.

    (The oracle is intentionally not queried here: a mutation inside a label
    payload can produce a *valid but different* label, which is corruption the
    format cannot detect without checksums; the fail-closed guarantee covers
    the decoding layer.)
    """
    rng = random.Random(99)
    data = snapshot_bytes
    for _ in range(200):
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 8)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            FTCSnapshot.from_bytes(bytes(mutated))
        except LabelDecodeError:
            pass


def test_snapshot_oversized_counts_fail_fast():
    """Huge declared counts and lengths must fail before any big allocation."""
    from repro.core.serialize import write_varint

    graph = make_graph(GraphFamily.GRID, n=9, seed=1)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=1))
    snapshot = FTCSnapshot.from_labeling(labeling)
    # An otherwise-valid snapshot whose label sections are empty ends with the
    # two zero count varints, which makes the counts easy to splice.
    empty = FTCSnapshot(config=snapshot.config, codec_modulus=snapshot.codec_modulus,
                        field_width=snapshot.field_width,
                        field_modulus=snapshot.field_modulus,
                        outdetect=snapshot.outdetect,
                        vertex_labels={}, edge_labels={})
    data = empty.to_bytes()
    assert data.endswith(b"\x00\x00")
    assert FTCSnapshot.from_bytes(data).vertex_labels == {}

    oversized_vertices = bytearray(data[:-2])
    write_varint(1 << 50, oversized_vertices)          # absurd vertex count
    write_varint(0, oversized_vertices)
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(bytes(oversized_vertices))

    oversized_edges = bytearray(data[:-1])
    write_varint(1 << 50, oversized_edges)             # absurd edge count
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(bytes(oversized_edges))

    bad_key = bytearray([0x02])                        # tuple key ...
    write_varint(1 << 50, bad_key)                     # ... of absurd arity
    with pytest.raises(LabelDecodeError):
        read_vertex_key(bytes(bad_key) + b"\x00\x01", 0)


def test_rehydration_rejects_implausible_parameters(snapshot_bytes):
    """Corrupt decode-side parameters must fail closed at rehydration time —
    quickly, with LabelDecodeError, and without giant constructions."""
    import dataclasses

    base = FTCSnapshot.from_bytes(snapshot_bytes)

    def rehydrate_with(**overrides):
        return dataclasses.replace(base, **overrides).rehydrate()

    with pytest.raises(LabelDecodeError):
        rehydrate_with(field_width=0)
    with pytest.raises(LabelDecodeError):
        rehydrate_with(field_width=1 << 40)              # no giant field search
    with pytest.raises(LabelDecodeError):
        rehydrate_with(codec_modulus=0)
    with pytest.raises(LabelDecodeError):
        rehydrate_with(codec_modulus=1 << 300)           # domain exceeds the field
    with pytest.raises(LabelDecodeError):
        rehydrate_with(field_modulus=3)                  # degree != width
    with pytest.raises(LabelDecodeError):
        # Right degree, but reducible (x^w divides by x): arithmetic over a
        # non-field ring would decode silently wrong edge sets.
        rehydrate_with(field_modulus=1 << base.field_width)
    start = time.perf_counter()
    with pytest.raises(LabelDecodeError):
        # Huge hostile modulus with a plausible width: the degree check must
        # reject it before any expensive irreducibility computation.
        rehydrate_with(field_modulus=(1 << 100_000) | 1)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(LabelDecodeError):
        rehydrate_with(outdetect=OutdetectDescriptor(
            kind="layered-rs", thresholds=(1 << 40,)))   # no giant zero labels
    with pytest.raises(LabelDecodeError):
        rehydrate_with(outdetect=OutdetectDescriptor(
            kind="sketch", num_levels=1 << 40, repetitions=1 << 20, id_bits=8))


def test_lazy_corrupt_label_blob_fails_on_first_use(snapshot_bytes):
    """Structure-valid but payload-corrupt labels fail closed at query time."""
    oracle = load_snapshot(snapshot_bytes)
    vertex = sorted(oracle.vertices())[0]
    raw = oracle._vertex_labels[vertex]
    assert isinstance(raw, bytes)  # still lazy
    oracle._vertex_labels[vertex] = raw[:-1] + b"\x80"  # truncate a varint
    with pytest.raises(LabelDecodeError):
        oracle.vertex_label(vertex)


def test_audit_scheme_propagates_programming_errors():
    """audit_scheme tolerates only QueryFailure, mirroring oracle.audit."""
    from repro.core.query import QueryFailure
    from repro.workloads.queries import QueryWorkload, audit_scheme

    workload = QueryWorkload(queries=[("a", "b", [])], ground_truth=[True])

    def boom(s, t, faults):
        raise KeyError("genuine bug")

    with pytest.raises(KeyError):
        audit_scheme(boom, workload)

    def benign(s, t, faults):
        raise QueryFailure("whp miss")

    assert audit_scheme(benign, workload)["failed"] == 1


# ------------------------------------------------- version 2 (mmap layout)


def test_v2_round_trip_and_answer_identity(snapshot_bytes):
    """v2 re-encodes the same labeling: equal decoded snapshots, equal
    answers, and a canonical encoding of its own."""
    from repro.core.snapshot import SNAPSHOT_PAGE_SIZE, SNAPSHOT_VERSION_V2

    v1_snapshot = FTCSnapshot.from_bytes(snapshot_bytes)
    v2_bytes = v1_snapshot.to_bytes_v2()
    assert v2_bytes[4] == SNAPSHOT_VERSION_V2
    v2_snapshot = FTCSnapshot.from_bytes(v2_bytes)
    assert v2_snapshot == v1_snapshot  # format_version excluded from equality
    assert v2_snapshot.format_version == SNAPSHOT_VERSION_V2
    # The label region is page-aligned, and re-encoding is canonical.
    region_offset = int.from_bytes(v2_bytes[5:13], "little")
    assert region_offset % SNAPSHOT_PAGE_SIZE == 0
    lazy = FTCSnapshot.from_bytes(v2_bytes, decode_labels=False)
    assert lazy.to_bytes_v2() == v2_bytes
    # And v2 state re-encodes to the identical v1 bytes too.
    assert v2_snapshot.to_bytes() == snapshot_bytes


def test_v2_oracle_answers_match_v1(tmp_path, snapshot_bytes):
    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=18, seed=9, density=1.5)
    v1_path = tmp_path / "l1.ftcs"
    v1_path.write_bytes(snapshot_bytes)
    v2_path = tmp_path / "l2.ftcs"
    from repro.core.snapshot import upgrade_snapshot_file

    report = upgrade_snapshot_file(v1_path, v2_path)
    assert report["from_version"] == 1
    assert report["to_version"] == 2
    assert v2_path.stat().st_size == report["bytes"]
    v1_oracle = load_snapshot(v1_path)
    v2_oracle = load_snapshot(v2_path)
    workload = make_query_workload(graph, num_queries=40, max_faults=2,
                                   model=FaultModel.TREE_BIASED, seed=17)
    assert _answers(v2_oracle, workload.queries) == \
        _answers(v1_oracle, workload.queries)
    v1_oracle.close()
    v2_oracle.close()


def test_v2_file_loads_through_mmap(tmp_path, snapshot_bytes):
    """Loading a v2 file keeps label blobs as views over the mapping, not
    copies, and still decodes lazily per label."""
    v2_path = tmp_path / "l2.ftcs"
    v2_path.write_bytes(FTCSnapshot.from_bytes(
        snapshot_bytes, decode_labels=False).to_bytes_v2())
    oracle = load_snapshot(v2_path)
    assert oracle._mmap is not None
    vertex = sorted(oracle.vertices())[0]
    assert isinstance(oracle._vertex_labels[vertex], memoryview)
    label = oracle.vertex_label(vertex)  # decodes on first use
    assert oracle._vertex_labels[vertex] is label
    oracle.close()


def test_v2_close_releases_buffers_and_fails_post_close_queries(
        tmp_path, snapshot_bytes):
    from repro.errors import OracleClosedError

    v2_path = tmp_path / "l2.ftcs"
    v2_path.write_bytes(FTCSnapshot.from_bytes(
        snapshot_bytes, decode_labels=False).to_bytes_v2())
    oracle = load_snapshot(v2_path)
    vertices = sorted(oracle.vertices())
    assert oracle.connected(vertices[0], vertices[1]) in (True, False)
    oracle.close()
    oracle.close()  # idempotent
    with pytest.raises(OracleClosedError):
        oracle.connected(vertices[0], vertices[1])
    with pytest.raises(OracleClosedError):
        oracle.connected_many([(vertices[0], vertices[1])], [])
    with pytest.raises(OracleClosedError):
        oracle.batch_session([])
    with pytest.raises(OracleClosedError):
        oracle.vertex_label(vertices[0])


def test_v2_validation_fails_closed(snapshot_bytes):
    """Corrupt v2 region headers raise LabelDecodeError, never misparse."""
    data = bytearray(FTCSnapshot.from_bytes(
        snapshot_bytes, decode_labels=False).to_bytes_v2())
    region_offset = int.from_bytes(data[5:13], "little")

    def with_header(offset=None, length=None):
        mutated = bytearray(data)
        if offset is not None:
            mutated[5:13] = offset.to_bytes(8, "little")
        if length is not None:
            mutated[13:21] = length.to_bytes(8, "little")
        return bytes(mutated)

    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(with_header(offset=region_offset + 1))  # unaligned
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(with_header(offset=len(data) * 2))  # beyond end
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(with_header(length=len(data)))  # wrong length
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(bytes(data) + b"\x00")  # trailing bytes
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(bytes(data[:region_offset - 1]))  # truncated
    # Nonzero padding between the index and the region is rejected.
    padded = bytearray(data)
    padded[region_offset - 1] = 1
    with pytest.raises(LabelDecodeError):
        FTCSnapshot.from_bytes(bytes(padded))


def test_v2_truncation_fails_closed(snapshot_bytes):
    data = FTCSnapshot.from_bytes(snapshot_bytes,
                                  decode_labels=False).to_bytes_v2()
    cuts = sorted({len(data) * i // 53 for i in range(53)} | {len(data) - 1})
    for cut in cuts:
        if cut >= len(data):
            continue
        with pytest.raises(LabelDecodeError):
            FTCSnapshot.from_bytes(data[:cut], decode_labels=False)


def test_save_dispatches_on_version(tmp_path, snapshot_bytes):
    from repro.core.snapshot import SNAPSHOT_VERSION_V2

    snapshot = FTCSnapshot.from_bytes(snapshot_bytes)
    v1_path = tmp_path / "v1.ftcs"
    v2_path = tmp_path / "v2.ftcs"
    snapshot.save(v1_path)
    snapshot.save(v2_path, version=SNAPSHOT_VERSION_V2)
    assert v1_path.read_bytes()[4] == 1
    assert v2_path.read_bytes()[4] == SNAPSHOT_VERSION_V2
    with pytest.raises(ValueError):
        snapshot.save(tmp_path / "v9.ftcs", version=9)


# ------------------------------------------------------------ atomic writes


def test_save_replaces_the_file_without_rewriting_it(tmp_path, monkeypatch,
                                                     snapshot_bytes):
    """A save lands as a new inode renamed over the old one, with the mode
    ``Path.write_bytes`` gives; a failed save leaves the old file and no
    temp file behind."""
    snapshot = FTCSnapshot.from_bytes(snapshot_bytes, decode_labels=False)
    reference = tmp_path / "reference"
    reference.write_bytes(b"")
    path = tmp_path / "labeling.ftcs"
    path.write_bytes(b"old")
    old_inode = path.stat().st_ino
    assert snapshot.save(path) == len(snapshot_bytes)
    assert path.read_bytes() == snapshot_bytes
    assert path.stat().st_ino != old_inode
    assert stat.S_IMODE(path.stat().st_mode) == \
        stat.S_IMODE(reference.stat().st_mode)

    def fail(source, destination):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        snapshot.save(path, version=SNAPSHOT_VERSION_V2)
    with pytest.raises(OSError, match="rename refused"):
        upgrade_snapshot_file(path, path)
    assert path.read_bytes() == snapshot_bytes
    assert sorted(entry.name for entry in tmp_path.iterdir()) == \
        ["labeling.ftcs", "reference"]


@pytest.mark.parametrize("writer", ["save", "upgrade", "apply"])
def test_rewriting_a_mapped_v2_snapshot_leaves_its_reader_answering(tmp_path, writer):
    """An oracle serving an mmap'd v2 file keeps answering after a smaller
    snapshot is written to the same path.  Truncating the mapped inode in
    place killed the process with SIGBUS on its next label read."""
    script = textwrap.dedent("""
        import sys
        from repro.core import FTCConfig, FTCLabeling, FTCSnapshot, load_snapshot
        from repro.core.snapshot import SNAPSHOT_VERSION_V2, upgrade_snapshot_file
        from repro.delta import apply_delta_file, diff_snapshots
        from repro.workloads import GraphFamily, make_graph

        path, writer = sys.argv[1], sys.argv[2]
        graph = make_graph(GraphFamily.ERDOS_RENYI, n=40, seed=3)
        labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
        FTCSnapshot.from_labeling(labeling).save(path, version=SNAPSHOT_VERSION_V2)
        served = load_snapshot(path)
        smaller = FTCLabeling(make_graph(GraphFamily.GRID, n=4, seed=1),
                              FTCConfig(max_faults=1))
        if writer == "save":
            smaller.save(path)
        elif writer == "upgrade":
            smaller.save(path + ".v1")
            upgrade_snapshot_file(path + ".v1", path)
        else:
            with open(path, "rb") as served_file, open(path + ".d", "wb") as delta:
                delta.write(diff_snapshots(
                    served_file.read(),
                    FTCSnapshot.from_labeling(smaller).to_bytes_v2()))
            apply_delta_file(path, path + ".d", path)
        faults = sorted(graph.edges())[-2:]
        vertices = sorted(graph.vertices())
        pairs = [(u, v) for u in vertices[:3] for v in vertices]
        print(served.connected_many(pairs, faults)
              == labeling.connected_many(pairs, faults))
    """)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "served.ftcs"), writer],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, (result.returncode, result.stderr)
    assert result.stdout.strip() == "True"
