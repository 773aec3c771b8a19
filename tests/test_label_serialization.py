"""Round-trip property tests for the label byte codecs."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import serialize
from repro.core.labels import EdgeLabel, VertexLabel
from repro.core import FTCConfig, FTCLabeling, FTCSnapshot, SchemeVariant
from repro.labeling.ancestry import AncestryLabel
from repro.workloads import GraphFamily, make_graph

from label_payloads import v1_edge_blob, v1_levels

# ---------------------------------------------------------------- primitives


@given(st.integers(min_value=0, max_value=1 << 512))
def test_varint_round_trip(value):
    out = bytearray()
    serialize.write_varint(value, out)
    decoded, offset = serialize.read_varint(bytes(out), 0)
    assert decoded == value
    assert offset == len(out)


def test_varint_rejects_negative():
    with pytest.raises(ValueError):
        serialize.write_varint(-1, bytearray())


label_trees = st.recursive(
    st.integers(min_value=0, max_value=1 << 200),
    lambda children: st.lists(children, max_size=5).map(tuple),
    max_leaves=25,
)


@given(label_trees)
@settings(max_examples=200)
def test_label_tree_round_trip(tree):
    out = bytearray()
    serialize.write_label_tree(tree, out)
    decoded, offset = serialize.read_label_tree(bytes(out), 0)
    assert decoded == tree
    assert offset == len(out)


def test_label_tree_rejects_foreign_types():
    with pytest.raises(TypeError):
        serialize.write_label_tree([1, 2], bytearray())


# -------------------------------------------------------------- label objects


@given(st.integers(min_value=0, max_value=1 << 40),
       st.integers(min_value=0, max_value=1 << 40))
def test_vertex_label_round_trip(pre, post):
    label = VertexLabel(ancestry=AncestryLabel(pre=pre, post=post))
    data = label.to_bytes()
    assert data.startswith(serialize.MAGIC)
    assert VertexLabel.from_bytes(data) == label


@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000),
       label_trees,
       st.integers(min_value=0, max_value=1 << 20))
@settings(max_examples=100)
def test_edge_label_round_trip(lower_pre, span, subtree_sum, bits):
    lower = AncestryLabel(pre=lower_pre + 1, post=lower_pre + 1 + span)
    upper = AncestryLabel(pre=lower_pre, post=lower_pre + 2 + span)
    label = EdgeLabel(ancestry_upper=upper, ancestry_lower=lower,
                      outdetect_subtree_sum=subtree_sum, outdetect_bits=bits)
    assert EdgeLabel.from_bytes(label.to_bytes()) == label


@pytest.mark.parametrize("variant", [SchemeVariant.DETERMINISTIC_NEARLINEAR,
                                     SchemeVariant.RANDOMIZED_FULL,
                                     SchemeVariant.SKETCH_WHP])
def test_scheme_labels_round_trip(variant):
    """Every label any scheme variant produces survives the byte round-trip."""
    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=24, seed=6, density=1.6)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2, variant=variant))
    for vertex in graph.vertices():
        label = labeling.vertex_label(vertex)
        assert VertexLabel.from_bytes(label.to_bytes()) == label
    for edge in graph.edges():
        label = labeling.edge_label(*edge)
        restored = EdgeLabel.from_bytes(label.to_bytes())
        assert restored == label
        assert restored.bit_size() == label.bit_size()


def test_deserialized_labels_answer_queries():
    """Labels that went through bytes are as good as the originals."""
    graph = make_graph(GraphFamily.GRID, n=16, seed=2)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2))
    decoder = labeling.decoder()
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    faults = edges[:2]
    fault_labels = [EdgeLabel.from_bytes(labeling.edge_label(u, v).to_bytes())
                    for u, v in faults]
    for s, t in [(vertices[0], vertices[-1]), (vertices[1], vertices[-2])]:
        source = VertexLabel.from_bytes(labeling.vertex_label(s).to_bytes())
        target = VertexLabel.from_bytes(labeling.vertex_label(t).to_bytes())
        assert decoder.connected(source, target, fault_labels) == \
            graph.connected(s, t, removed=faults)


# ------------------------------------------------------- payload versions


@pytest.fixture(params=["numpy", "numpy-blocked"])
def numpy_state(request, monkeypatch):
    """Run a test as is, then again with ``import numpy`` failing."""
    if request.param == "numpy-blocked":
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param


def _edge_label(tree, bits=0):
    return EdgeLabel(ancestry_upper=AncestryLabel(pre=0, post=9),
                     ancestry_lower=AncestryLabel(pre=1, post=8),
                     outdetect_subtree_sum=tree, outdetect_bits=bits)


def test_version_2_writes_each_int_node_as_its_shortest_little_endian_bytes():
    out = bytearray()
    serialize.write_label_tree((0, 1, (1 << 24) + 5, ()), out)
    assert bytes(out) == bytes([0x01, 4,
                                0x02, 0,
                                0x02, 1, 0x01,
                                0x02, 4, 0x05, 0x00, 0x00, 0x01,
                                0x01, 0])
    data = _edge_label((7, 1 << 100), bits=300).to_bytes()
    assert data[len(serialize.MAGIC)] == serialize.FORMAT_VERSION == 2


@pytest.mark.parametrize("variant", [SchemeVariant.DETERMINISTIC_NEARLINEAR,
                                     SchemeVariant.RANDOMIZED_FULL,
                                     SchemeVariant.SKETCH_WHP])
def test_version_1_payloads_read_back_as_elements_and_pack_to_the_label(variant):
    """A version-1 payload (LEB128 element trees) reads back as stored, and
    the scheme's ``read_label`` packs it into the label the build made."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2, variant=variant))
    outdetect = labeling.outdetect
    for label in labeling.all_edge_labels().values():
        tree = v1_levels(outdetect, label)
        stored = EdgeLabel.from_bytes(v1_edge_blob(label, tree))
        assert stored.outdetect_subtree_sum == tree
        assert stored.outdetect_bits == label.outdetect_bits
        assert outdetect.read_label(stored.outdetect_subtree_sum) == \
            label.outdetect_subtree_sum
        assert outdetect.read_label(label.outdetect_subtree_sum) == \
            label.outdetect_subtree_sum


def test_each_version_reads_only_its_own_int_nodes():
    label = _edge_label((3, 4), bits=44)
    v2 = label.to_bytes()
    with pytest.raises(serialize.LabelDecodeError, match="version-1 .* tag 0x02"):
        EdgeLabel.from_bytes(v2[:4] + b"\x01" + v2[5:])
    v1 = v1_edge_blob(label, (3, 4))
    with pytest.raises(serialize.LabelDecodeError, match="version-2 .* tag 0x00"):
        EdgeLabel.from_bytes(v1[:4] + b"\x02" + v1[5:])


def test_read_label_rejects_what_does_not_fit_the_scheme():
    """A level of the wrong length, a word wider than its lanes, a lane
    holding more than a field element, and a wrong depth are ValueErrors."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5)
    outdetect = FTCLabeling(graph, FTCConfig(max_faults=2)).outdetect
    scheme = outdetect.level_schemes[0]
    elements = [1] * scheme.lane_count
    assert scheme.read_label(tuple(elements)) == scheme.read_label(
        scheme.read_label(tuple(elements)))
    for bad in (tuple(elements[:-1]), tuple(elements + [1]),
                tuple(elements[:-1] + [1 << scheme.lane_bits]),
                tuple(elements[:-1] + [-1]), tuple(elements[:-1] + [(1,)]),
                1 << (scheme.lane_count * 8 * -(-scheme.lane_bits // 8)),
                1 << scheme.lane_bits, -1, None):
        with pytest.raises(ValueError):
            scheme.read_label(bad)
    zero = outdetect.zero_label()
    assert outdetect.read_label(zero) == zero
    for bad in (zero[:-1], zero + (0,), 0, list(zero)):
        with pytest.raises(ValueError):
            outdetect.read_label(bad)


@pytest.fixture(scope="module")
def er24_snapshot():
    """Built once per module, so before ``numpy_state`` blocks numpy: a
    build sharded across processes gets its shard matrices back as numpy
    arrays."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5)
    return FTCLabeling(graph, FTCConfig(max_faults=2)).to_snapshot_bytes()


def test_snapshot_writer_mixes_label_objects_with_lazy_blobs(er24_snapshot, numpy_state):
    """Decoded labels, lazy ``bytes`` blobs and mmap-style ``memoryview``
    blobs in one snapshot re-serialize to the original bytes, with or
    without numpy."""
    data = er24_snapshot
    decoded = FTCSnapshot.from_bytes(data)
    mixed = FTCSnapshot.from_bytes(data, decode_labels=False)
    for index, (edge, blob) in enumerate(mixed.edge_labels.items()):
        if index % 3 == 0:
            mixed.edge_labels[edge] = decoded.edge_labels[edge]
        elif index % 3 == 1:
            mixed.edge_labels[edge] = memoryview(blob)
    kinds = {type(label) for label in mixed.edge_labels.values()}
    assert kinds == {EdgeLabel, bytes, memoryview}
    assert mixed.to_bytes() == data
    assert mixed.to_bytes_v2() == decoded.to_bytes_v2()


# ---------------------------------------------------------------- error paths


def test_varint_continuation_run_fails_closed():
    """A run of continuation bytes must raise, not build a giant integer."""
    # Truncated: every byte continues, the buffer just ends.
    with pytest.raises(serialize.LabelDecodeError):
        serialize.read_varint(b"\xff" * 64, 0)
    # Unterminated beyond the cap inside a larger buffer: the decoder must
    # stop at MAX_VARINT_BYTES instead of accumulating bits to the end.
    runaway = b"\xff" * (serialize.MAX_VARINT_BYTES + 64) + b"\x01"
    with pytest.raises(serialize.LabelDecodeError):
        serialize.read_varint(runaway, 0)


def test_varint_at_the_cap_still_decodes():
    value = (1 << (7 * serialize.MAX_VARINT_BYTES)) - 1  # exactly cap bytes
    out = bytearray()
    serialize.write_varint(value, out)
    assert len(out) == serialize.MAX_VARINT_BYTES
    decoded, offset = serialize.read_varint(bytes(out), 0)
    assert decoded == value and offset == len(out)


def test_label_tree_oversized_tuple_length_rejected():
    """A declared child count beyond the remaining buffer fails fast."""
    out = bytearray([0x01])                      # tuple tag
    serialize.write_varint(1 << 40, out)         # absurd declared length
    out += b"\x00\x01"                           # one real child
    with pytest.raises(serialize.LabelDecodeError):
        serialize.read_label_tree(bytes(out), 0)


def test_label_tree_deep_nesting_rejected_without_recursion_error():
    # 0x01 0x01 == "tuple of one child" repeated: nesting depth = repeat count.
    data = b"\x01\x01" * 300 + b"\x00\x00"
    with pytest.raises(serialize.LabelDecodeError):
        serialize.read_label_tree(data, 0)


def test_edge_label_fuzzed_mutations_fail_closed():
    """Random corruptions either decode to a label or raise LabelDecodeError —
    never hang, recurse, or allocate unboundedly."""
    import random

    label = EdgeLabel(ancestry_upper=AncestryLabel(pre=1, post=10),
                      ancestry_lower=AncestryLabel(pre=2, post=9),
                      outdetect_subtree_sum=((5, 1 << 90, 7), (0, 3)),
                      outdetect_bits=321)
    data = bytearray(label.to_bytes())
    rng = random.Random(1234)
    for _ in range(400):
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            position = rng.randrange(len(mutated))
            mutated[position] = rng.randrange(256)
        try:
            EdgeLabel.from_bytes(bytes(mutated))
        except serialize.LabelDecodeError:
            # Covers invariant violations too (upper must be an ancestor of
            # lower): structurally valid but absurd bytes are decode errors.
            pass


def test_truncated_label_prefixes_fail_closed():
    label = EdgeLabel(ancestry_upper=AncestryLabel(pre=0, post=20),
                      ancestry_lower=AncestryLabel(pre=3, post=12),
                      outdetect_subtree_sum=(1, 2, 3),
                      outdetect_bits=64)
    data = label.to_bytes()
    for cut in range(len(data)):
        with pytest.raises(serialize.LabelDecodeError):
            EdgeLabel.from_bytes(data[:cut])


def test_header_validation():
    label = VertexLabel(ancestry=AncestryLabel(pre=3, post=9))
    data = label.to_bytes()
    with pytest.raises(serialize.LabelDecodeError):
        VertexLabel.from_bytes(b"XXXX" + data[4:])          # bad magic
    bad_version = bytes([*data[:4], 99, *data[5:]])
    with pytest.raises(serialize.LabelDecodeError):
        VertexLabel.from_bytes(bad_version)                  # unknown version
    with pytest.raises(serialize.LabelDecodeError):
        EdgeLabel.from_bytes(data)                           # wrong kind
    with pytest.raises(serialize.LabelDecodeError):
        VertexLabel.from_bytes(data + b"\x00")               # trailing bytes
    with pytest.raises(serialize.LabelDecodeError):
        VertexLabel.from_bytes(data[:-1] + b"\x80")          # truncated varint
    with pytest.raises(serialize.LabelDecodeError):
        VertexLabel.from_bytes(b"FT")                        # too short
