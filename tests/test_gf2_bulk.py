"""Tests for the pluggable bulk GF(2^w) backends.

The two backends (pure-Python table-driven, numpy bit-sliced) must produce
bit-identical results on every operation: the batched query pipeline relies on
labels being byte-for-byte reproducible regardless of which backend built
them.
"""

import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

from repro.api import Oracle
from repro.gf2 import bulk as bulk_module
from repro.gf2.bulk import (LANES_PER_ROW, NUMPY_MAX_WIDTH, SMALL_ROWS,
                            BackendUnavailable, NumpyBulkOps, PyBulkOps,
                            available_backends, get_bulk_ops, numpy_available,
                            pack_lanes, unpack_lanes)
from repro.gf2.field import GF2m
from repro.outdetect.rs_threshold import RSThresholdOutdetect
from repro.outdetect.sketch import SketchOutdetect
from repro.workloads import GraphFamily, make_graph

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

WIDTHS = [4, 8, 13, 20, 22, 27, 32]


def _backends(field):
    backends = [PyBulkOps(field)]
    if numpy_available() and (field is None or field.width <= NUMPY_MAX_WIDTH):
        # cutoff 0 forces the vectorized kernels even on tiny inputs
        backends.append(NumpyBulkOps(field, small_cutoff=0))
    return backends


@pytest.mark.parametrize("width", WIDTHS)
def test_mul_many_matches_scalar_field_ops(width):
    field = GF2m(width)
    rng = random.Random(width)
    elements = [rng.randrange(0, field.order) for _ in range(40)]
    others = [rng.randrange(0, field.order) for _ in range(40)]
    scalar = rng.randrange(1, field.order)
    expected_scaled = [field.mul(x, scalar) for x in elements]
    expected_pairwise = [field.mul(a, b) for a, b in zip(elements, others)]
    for backend in _backends(field):
        assert backend.mul_many(elements, scalar) == expected_scaled, backend.name
        assert backend.mul_many(elements, others) == expected_pairwise, backend.name
        assert backend.mul_many([], scalar) == []


#: Widths of the power-chain kernel: four windows of ceil(w/4) bits up to
#: w = 32, all full at 16, 24 and 32 and with a short top window at 13 (one
#: bit), 22 and 25; ceil(w/8) windows above that (33, 64), where numpy does
#: not reach.
CHAIN_WIDTHS = [13, 16, 22, 24, 25, 32, 33, 64]

#: Chain lengths: the shortest ones, 2k at the benchmark graph's three levels
#: (904, 166, 16) and at the 48-vertex test graph's level 0 (146).
CHAIN_COUNTS = [1, 2, 16, 146, 166, 904]


def _repeated_mul(field, base, count):
    """``[base, base^2, ..., base^count]`` by repeated ``GF2m.mul``."""
    powers = []
    current = 1
    for _ in range(count):
        current = field.mul(current, base)
        powers.append(current)
    return powers


@pytest.mark.parametrize("width", sorted(set(WIDTHS) | set(CHAIN_WIDTHS)))
def test_pow_range_is_consecutive_powers(width):
    field = GF2m(width)
    rng = random.Random(width + 1)
    bases = [0, 1, field.order - 1] + [rng.randrange(1, field.order) for _ in range(3)]
    for base in bases:
        expected = _repeated_mul(field, base, max(CHAIN_COUNTS))
        assert expected[:10] == [field.pow(base, exponent) for exponent in range(1, 11)]
        for backend in _backends(field):
            for count in CHAIN_COUNTS:
                assert backend.pow_range(base, count) == expected[:count], \
                    (backend.name, base, count)
            assert backend.pow_range(base, 0) == []


def _power_rows(backend, bases, count):
    """``[x, ..., x^count]`` for every base, through the label build's
    ``scatter_pow_rows`` (one matrix row per base), read back as packed
    words and unpacked."""
    width = backend.field.width
    matrix = backend.scatter_pow_rows(len(bases), count, bases,
                                      [list(range(len(bases)))])
    return [unpack_lanes(backend.matrix_row(matrix, index, width), count, width)
            for index in range(len(bases))]


@needs_numpy
@pytest.mark.parametrize("width", [w for w in CHAIN_WIDTHS if w <= NUMPY_MAX_WIDTH])
def test_pow_range_many_on_both_sides_of_the_row_crossover(width):
    """Power rows agree on both sides of the build's ``SMALL_ROWS`` cutoff,
    and with the doubling kernel forced; decode's ``pow_range_many`` is the
    Python chain at every size."""
    field = GF2m(width)
    rng = random.Random(width + 3)
    bases = [0, 1, field.order - 1] + [rng.randrange(1, field.order)
                                       for _ in range(3 * SMALL_ROWS - 3)]
    backend, forced = NumpyBulkOps(field), NumpyBulkOps(field, small_cutoff=0)
    for count in CHAIN_COUNTS:
        expected = [_repeated_mul(field, base, count) for base in bases]
        for rows in (SMALL_ROWS - 1, SMALL_ROWS, len(bases)):
            assert backend.pow_range_many(bases[:rows], count) == expected[:rows], \
                (rows, count)
            for build in (backend, forced):
                assert _power_rows(build, bases[:rows], count) == expected[:rows], \
                    (build.small_cutoff, rows, count)


#: (bases, powers) shapes: decode verification re-encodes 1-20 supports
#: against all 2k components (904 at the benchmark's level 0), the label
#: build encodes every edge; odd and non-power-of-two counts exercise the
#: last, partial doubling block of the numpy kernel.
POW_RANGE_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 904), (3, 166), (5, 1000),
                    (25, 8), (751, 16)]


@pytest.mark.parametrize("width", WIDTHS)
def test_pow_range_many_matches_single(width):
    field = GF2m(width)
    rng = random.Random(width + 2)
    for num_bases, count in POW_RANGE_SHAPES:
        bases = [rng.randrange(1, field.order) for _ in range(num_bases)]
        expected = [[field.pow(base, exponent) for exponent in range(1, count + 1)]
                    for base in bases]
        for backend in _backends(field):
            rows = backend.pow_range_many(bases, count)
            assert rows == expected, (backend.name, num_bases, count)
            # The build's kernel: numpy's doubling passes, forced here.
            assert _power_rows(backend, bases, count) == expected, \
                (backend.name, num_bases, count)
    for backend in _backends(field):
        assert backend.pow_range_many(bases, 0) == [[] for _ in bases]
        assert backend.pow_range_many([], 5) == []
        with pytest.raises(ValueError):
            backend.pow_range_many(bases, -1)


#: (rows, powers) of the decode calls below: a verification's few support
#: elements times 2k, up to 1,024 rows.
DECODE_SHAPES = [(1, 904), (SMALL_ROWS, 904), (3 * SMALL_ROWS, 166), (1024, 16)]


@needs_numpy
def test_calls_reach_the_array_kernels_from_small_cutoff_rows(monkeypatch):
    """Decode calls never ask for numpy, at any size; the label build's
    calls reach the array kernels from ``small_cutoff`` rows, whatever the
    chain length."""
    reached = []

    def no_numpy():
        # Record the request and refuse it: the call then runs in Python.
        reached.append(True)
        return None

    monkeypatch.setattr(bulk_module, "_numpy", no_numpy)
    field = GF2m(22)
    rng = random.Random(4)
    backend = NumpyBulkOps(field)
    for rows, powers in DECODE_SHAPES:
        bases = [rng.randrange(1, field.order) for _ in range(rows)]
        matrix = backend.pow_range_many(bases, powers)
        assert matrix == PyBulkOps(field).pow_range_many(bases, powers)
        backend.scatter_xor_rows(2, powers, [index % 2 for index in range(rows)], matrix)
        lanes = bases * LANES_PER_ROW
        backend.mul_many(lanes, lanes)
        backend.mul_many(lanes, bases[0])
        assert reached == [], (rows, powers)

    def build_requests(backend, rows):
        reached.clear()
        bases = [rng.randrange(1, field.order) for _ in range(rows)]
        backend.scatter_pow_rows(2, 16, bases, [[index % 2 for index in range(rows)]])
        lanes = bases * LANES_PER_ROW
        backend.scatter_xor(2, 2, [0] * len(lanes), [1] * len(lanes), lanes)
        return len(reached)

    assert build_requests(NumpyBulkOps(field), SMALL_ROWS - 1) == 0
    assert build_requests(NumpyBulkOps(field), SMALL_ROWS) == 2
    assert build_requests(NumpyBulkOps(field, small_cutoff=0), 1) == 2


def test_scatter_agrees_across_backends():
    rng = random.Random(7)
    rows = [[rng.randrange(0, 1 << 60) for _ in range(5)] for _ in range(30)]
    indices = [rng.randrange(0, 6) for _ in range(30)]
    row_idx = [rng.randrange(0, 6) for _ in range(50)]
    col_idx = [rng.randrange(0, 5) for _ in range(50)]
    values = [rng.randrange(0, 1 << 60) for _ in range(50)]
    results = []
    for backend in _backends(None):
        matrix = backend.scatter_xor_rows(6, 5, indices, rows)
        # The numpy kernel's cells are a uint64 label matrix.
        cells = [[int(value) for value in row]
                 for row in backend.scatter_xor(6, 5, row_idx, col_idx, values)]
        results.append((matrix, cells))
    assert all(result == results[0] for result in results[1:])
    # Plain-Python reference for the row scatter.
    expected = [[0] * 5 for _ in range(6)]
    for index, row in zip(indices, rows):
        expected[index] = [a ^ b for a, b in zip(expected[index], row)]
    assert results[0][0] == expected


@pytest.mark.parametrize("bits", [1, 8, 22, 24, 33, 64, 100])
def test_packed_words_hold_one_value_per_little_endian_lane(bits):
    """Lane i of a packed word is the i-th run of ceil(bits/8) bytes of the
    int's little-endian bytes; unpacking inverts packing, a word too wide
    for its lanes raises, and the empty word is 0."""
    size = -(-bits // 8)
    rng = random.Random(bits)
    values = [0] + [rng.getrandbits(bits) for _ in range(30)] + [(1 << bits) - 1]
    word = pack_lanes(values, bits)
    data = word.to_bytes(len(values) * size, "little")
    assert [int.from_bytes(data[i * size:(i + 1) * size], "little")
            for i in range(len(values))] == values
    assert unpack_lanes(word, len(values), bits) == values
    assert unpack_lanes(word, len(values) + 3, bits) == values + [0, 0, 0]
    with pytest.raises(OverflowError):
        unpack_lanes(word, len(values) - 1, bits)
    with pytest.raises(OverflowError):
        pack_lanes([1 << (8 * size)], bits)
    with pytest.raises(OverflowError):
        pack_lanes([-1], bits)
    assert pack_lanes([], bits) == 0 and unpack_lanes(0, 0, bits) == []


def test_xor_only_backend_has_no_field_ops():
    backend = PyBulkOps(None)
    with pytest.raises(ValueError):
        backend.mul_many([1], 2)
    with pytest.raises(ValueError):
        backend.pow_range(1, 3)


def test_auto_selection_falls_back_for_wide_fields(monkeypatch):
    monkeypatch.delenv("REPRO_GF2_BACKEND", raising=False)
    wide = GF2m(40)
    assert get_bulk_ops(wide).name == "python"
    assert available_backends(wide) == ["python"]


@needs_numpy
def test_auto_selection_prefers_numpy_when_usable(monkeypatch):
    monkeypatch.delenv("REPRO_GF2_BACKEND", raising=False)
    field = GF2m(16)
    assert get_bulk_ops(field).name == "numpy"
    assert "numpy" in available_backends(field)
    # XOR-only selection honours the value-width bound.
    assert get_bulk_ops(None, max_bits=64).name == "numpy"
    assert get_bulk_ops(None, max_bits=70).name == "python"


@needs_numpy
def test_forced_numpy_raises_when_unusable():
    with pytest.raises(BackendUnavailable):
        get_bulk_ops(GF2m(40), backend="numpy")


def test_env_var_forces_python_backend(monkeypatch):
    monkeypatch.setenv("REPRO_GF2_BACKEND", "python")
    assert get_bulk_ops(GF2m(16)).name == "python"
    monkeypatch.setenv("REPRO_GF2_BACKEND", "bogus")
    with pytest.raises(ValueError):
        get_bulk_ops(GF2m(16))


@needs_numpy
def test_rs_scheme_labels_bit_identical_across_backends():
    field = GF2m(14)
    rng = random.Random(3)
    vertices = list(range(12))
    edge_ids = {}
    used = set()
    for _ in range(25):
        u, v = rng.sample(vertices, 2)
        edge = (min(u, v), max(u, v))
        if edge in used:
            continue
        used.add(edge)
        edge_ids[edge] = rng.randrange(1, field.order)
    py_scheme = RSThresholdOutdetect(field, 3, vertices, edge_ids,
                                     bulk=PyBulkOps(field))
    np_scheme = RSThresholdOutdetect(field, 3, vertices, edge_ids,
                                     bulk=NumpyBulkOps(field, small_cutoff=0))
    for vertex in vertices:
        assert py_scheme.label_of(vertex) == np_scheme.label_of(vertex)
        # The numpy scheme keeps its labels in a uint64 array; what it hands
        # out must still be Python ints, which GF2m arithmetic expects.
        for scheme in (py_scheme, np_scheme):
            assert type(scheme.label_of(vertex)) is int
            assert all(type(value) is int
                       for value in scheme.lanes(scheme.label_of(vertex)))
    sample = [py_scheme.label_of(vertex) for vertex in vertices[:6]]
    assert py_scheme.combine_all(sample) == np_scheme.combine_all(sample)


@needs_numpy
def test_sketch_labels_bit_identical_across_backends():
    rng = random.Random(5)
    vertices = list(range(10))
    edge_ids = {}
    for _ in range(20):
        u, v = rng.sample(vertices, 2)
        edge = (min(u, v), max(u, v))
        edge_ids.setdefault(edge, rng.randrange(1, 1 << 16))
    py_scheme = SketchOutdetect(vertices, edge_ids, repetitions=4, seed=9,
                                bulk=PyBulkOps(None))
    np_scheme = SketchOutdetect(vertices, edge_ids, repetitions=4, seed=9,
                                bulk=NumpyBulkOps(None, small_cutoff=0))
    for vertex in vertices:
        assert py_scheme.label_of(vertex) == np_scheme.label_of(vertex)
    sample = [py_scheme.label_of(vertex) for vertex in vertices]
    assert py_scheme.combine_all(sample) == np_scheme.combine_all(sample)


#: Row lengths of the subtree-scan parity test: one lane, and 2k at the
#: deepest (k = 8) and widest (k = 452) levels of the serving benchmark graph.
SCAN_ROW_LENGTHS = [1, 16, 904]


def _preorder(children):
    """DFS preorder of the tree rooted at 0, and for each position the
    position of the last vertex of its subtree."""
    order: list = []
    ends: dict = {}
    stack = [(0, False)]
    while stack:
        vertex, done = stack.pop()
        if done:
            ends[vertex] = len(order) - 1
            continue
        order.append(vertex)
        stack.append((vertex, True))
        stack.extend((child, False) for child in reversed(children[vertex]))
    return order, [ends[vertex] for vertex in order]


def _scan_trees():
    """One vertex, a path, a star and seeded random trees, as child lists."""
    trees = [{0: []},
             {vertex: [vertex + 1] if vertex < 29 else [] for vertex in range(30)},
             {vertex: list(range(1, 30)) if vertex == 0 else [] for vertex in range(30)}]
    rng = random.Random(11)
    for size in (2, 17, 64):
        children: dict = {vertex: [] for vertex in range(size)}
        for vertex in range(1, size):
            children[rng.randrange(vertex)].append(vertex)
        trees.append(children)
    return trees


def _label_matrices(rows):
    """``rows`` in every form a backend takes: Python rows (also through the
    numpy backend, which hands them to its Python kernel) and a uint64 array."""
    yield PyBulkOps(None), rows
    if not numpy_available():
        return
    yield NumpyBulkOps(None), rows
    try:
        import numpy
    except ImportError:
        return
    yield NumpyBulkOps(None), numpy.asarray(rows, dtype=numpy.uint64)


def check_subtree_xor_parity():
    """Check ``subtree_xor`` of every backend against the XOR of each
    subtree's rows, packed in 22-bit (three-byte) and 64-bit lanes, and
    ``matrix_row`` against each row; returns the names of the backends
    checked."""
    rng = random.Random(12)
    checked = set()
    for children in _scan_trees():
        order, last = _preorder(children)
        for length in SCAN_ROW_LENGTHS:
            for bits in (22, 64):
                extremes = [0, (1 << 22) - 1, (1 << bits) - 1]
                rows = [[rng.choice(extremes + [rng.getrandbits(bits)])
                         for _ in range(length)] for _ in order]
                expected = []
                for position in range(len(order)):
                    total = [0] * length
                    for vertex in order[position:last[position] + 1]:
                        total = [a ^ b for a, b in zip(total, rows[vertex])]
                    expected.append(pack_lanes(total, bits))
                for backend, matrix in _label_matrices(rows):
                    sums = backend.subtree_xor(matrix, order, last, bits)
                    assert sums == expected, (backend.name, len(order), length)
                    assert all(type(total) is int for total in sums)
                    assert [backend.matrix_row(matrix, row, bits)
                            for row in range(len(rows))] == \
                        [pack_lanes(row, bits) for row in rows]
                    checked.add(backend.name)
    return checked


@pytest.mark.parametrize("numpy_blocked", [False, True])
def test_subtree_xor_scan_matches_its_python_twin(numpy_blocked):
    """The prefix-XOR scan behind Proposition 4's subtree sums equals the
    Python fold and a brute-force XOR; with numpy blocked, the Python
    kernel runs alone and numpy stays unloaded."""
    if not numpy_blocked:
        expected = {"python", "numpy"} if numpy_available() else {"python"}
        assert check_subtree_xor_parity() == expected
        return
    script = textwrap.dedent("""
        import runpy
        import sys

        sys.modules["numpy"] = None
        checked = runpy.run_path(sys.argv[1])["check_subtree_xor_parity"]()
        assert checked == {"python"}, checked
        assert sys.modules["numpy"] is None
    """)
    result = subprocess.run([sys.executable, "-c", script, __file__],
                            capture_output=True, text=True, env=_child_env(),
                            timeout=120)
    assert result.returncode == 0, (result.returncode, result.stderr)


def test_scheme_construction_respects_env_backend(monkeypatch):
    """The auto path must fall back cleanly when numpy is unavailable; forcing
    the python backend through the environment is an equivalent check that the
    whole construction pipeline works without numpy kernels."""
    field = GF2m(13)
    vertices = [0, 1, 2, 3]
    edge_ids = {(0, 1): 5, (1, 2): 9, (2, 3): 17, (0, 3): 33}
    baseline = RSThresholdOutdetect(field, 2, vertices, edge_ids)
    monkeypatch.setenv("REPRO_GF2_BACKEND", "python")
    forced = RSThresholdOutdetect(field, 2, vertices, edge_ids)
    assert forced.bulk.name == "python"
    for vertex in vertices:
        assert baseline.label_of(vertex) == forced.label_of(vertex)


# --------------------------------------------------- numpy loads on first use

def _child_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_serving_loads_numpy_only_through_an_array_kernel(tmp_path):
    """Set-up of a serving process (``import repro.cli``, ``Oracle.load``)
    leaves numpy unloaded, and answering reaches no array kernel, so numpy
    stays unloaded: decoding runs on the Python kernels under every
    backend."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=48, seed=7)
    oracle = Oracle.build(graph, max_faults=3)  # GF(2^16), k = 73
    path = tmp_path / "served.ftcs"
    oracle.save(str(path))
    rng = random.Random(7)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())
    queries = [(rng.sample(edges, 3), [rng.sample(vertices, 2) for _ in range(12)])
               for _ in range(6)]
    script = textwrap.dedent("""
        import json
        import sys

        import repro.cli
        from repro.api import Oracle
        from repro.gf2 import bulk

        job = json.load(sys.stdin)
        oracle = Oracle.load(job["path"])
        report = {"numpy_after_setup": "numpy" in sys.modules, "sets": []}
        reached = []
        load_numpy = bulk._numpy

        def counting_load():
            reached.append(True)
            return load_numpy()

        bulk._numpy = counting_load
        for faults, pairs in job["queries"]:
            answers = oracle.connected_many([tuple(pair) for pair in pairs],
                                            [tuple(fault) for fault in faults])
            report["sets"].append({"answers": answers,
                                   "numpy": "numpy" in sys.modules,
                                   "array_kernel": bool(reached)})
        print(json.dumps(report))
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            input=json.dumps({"path": str(path), "queries": queries}),
                            capture_output=True, text=True, env=_child_env(), timeout=300)
    assert result.returncode == 0, (result.returncode, result.stderr)
    report = json.loads(result.stdout)
    assert not report["numpy_after_setup"]
    assert len(report["sets"]) == len(queries)
    for (faults, pairs), served in zip(queries, report["sets"]):
        expected = oracle.connected_many([tuple(pair) for pair in pairs],
                                         [tuple(fault) for fault in faults])
        assert served["answers"] == expected
        assert not served["array_kernel"] and not served["numpy"], served


def test_numpy_is_imported_by_the_first_call_past_the_crossover():
    """Decode calls of up to 1,024 rows leave numpy unloaded; a level of the
    label build loads it from ``SMALL_ROWS`` edges."""
    pytest.importorskip("numpy")
    script = textwrap.dedent("""
        import sys

        from repro.gf2 import GF2m, NumpyBulkOps, PyBulkOps
        from repro.gf2.bulk import SMALL_ROWS, unpack_lanes

        assert "numpy" not in sys.modules, "importing repro.gf2 loaded numpy"
        field = GF2m(16)
        backend = NumpyBulkOps(field)
        python = PyBulkOps(field)
        bases = list(range(1, 1025))
        rows = backend.pow_range_many(bases, 16)
        assert rows == python.pow_range_many(bases, 16)
        backend.scatter_xor_rows(4, 16, [base % 4 for base in bases], rows)
        backend.mul_many(bases, bases)
        assert "numpy" not in sys.modules, "a decode call loaded numpy"

        def level(edges):
            matrix = backend.scatter_pow_rows(edges, 146, bases[:edges],
                                              [list(range(edges))])
            return [unpack_lanes(backend.matrix_row(matrix, row, 16), 146, 16)
                    for row in range(edges)]

        expected = python.pow_range_many(bases[:SMALL_ROWS], 146)
        assert level(SMALL_ROWS - 1) == expected[:-1]
        assert "numpy" not in sys.modules, "a level below the cutoff loaded numpy"
        assert level(SMALL_ROWS) == expected
        assert "numpy" in sys.modules, "a level at the cutoff ran without numpy"
    """)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=_child_env(), timeout=120)
    assert result.returncode == 0, (result.returncode, result.stderr)
