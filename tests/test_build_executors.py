"""Conformance suite for the build executors (:mod:`repro.build`).

One build contract, three execution strategies: the same ``(graph, config)``
scenarios are constructed with the serial, thread, and process executors, and
the resulting labelings must be **byte-identical** — asserted on whole
``to_snapshot_bytes()`` snapshots, which cover every vertex label, edge
label, and outdetect parameter.  Also covered: executor resolution (specs,
``jobs`` semantics, the ``REPRO_BUILD_EXECUTOR`` environment override),
the staged :class:`~repro.build.plan.BuildReport`, the
:func:`~repro.build.build_labeling` facade, every rewired entry point
(``Oracle.build(jobs=...)``, ``open_oracle("build:...?jobs=...")``, the CLI
``--jobs`` flag), and shard partitioning itself.
"""

import json
import os

import pytest

from repro.api import Oracle, open_oracle, parse_build_query
from repro.build import (EXECUTOR_ENV_VAR, STAGES, BuildExecutor, BuildPlan,
                        BuildReport, ProcessExecutor, SerialExecutor,
                        ThreadExecutor, available_executors, build_labeling,
                        resolve_executor)
from repro.build.plan import _chunks
from repro.build.shards import build_shard, merge_shards, rs_shard_task
from repro.core.config import FTCConfig, SchemeVariant, resolve_build_executor
from repro.core.ftc import FTCLabeling
from repro.workloads import GraphFamily, make_graph

EXECUTORS = ("serial", "thread:2", "process:2")


def scenario_configs():
    """The shared scenario set: every scheme family, both outdetect kinds."""
    return [
        FTCConfig(max_faults=2),
        FTCConfig(max_faults=3, variant=SchemeVariant.DETERMINISTIC_POLY),
        FTCConfig(max_faults=2, variant=SchemeVariant.RANDOMIZED_FULL,
                  random_seed=7),
        FTCConfig(max_faults=2, variant=SchemeVariant.SKETCH_WHP, random_seed=3),
    ]


@pytest.fixture(scope="module")
def graphs():
    return {
        "er": make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5),
        "tree": make_graph(GraphFamily.TREE_PLUS_CHORDS, n=16, seed=2, density=0.0),
    }


# ------------------------------------------------------------- conformance

def test_executors_satisfy_the_protocol():
    for executor in (SerialExecutor(), ThreadExecutor(2), ProcessExecutor(2)):
        assert isinstance(executor, BuildExecutor)
        assert executor.name in available_executors()
        assert executor.jobs >= 1


def test_byte_identical_snapshots_across_executors(graphs):
    """The acceptance criterion: same scenario set, three executors, equal
    snapshot bytes everywhere."""
    for graph_name, graph in graphs.items():
        for config in scenario_configs():
            snapshots = {
                spec: FTCLabeling(graph, config,
                                  executor=resolve_executor(spec)).to_snapshot_bytes()
                for spec in EXECUTORS
            }
            reference = snapshots["serial"]
            for spec, data in snapshots.items():
                assert data == reference, (graph_name, config.variant, spec)


def test_parallel_answers_match_ground_truth(graphs):
    graph = graphs["er"]
    labeling = FTCLabeling(graph, FTCConfig(max_faults=2), executor="process:2")
    edges = sorted(graph.edges())
    faults = edges[:2]
    vertices = sorted(graph.vertices())
    pairs = [(vertices[i], vertices[-1 - i]) for i in range(5)]
    expected = [graph.connected(s, t, removed=faults) for s, t in pairs]
    assert labeling.connected_many(pairs, faults) == expected


# ------------------------------------------------------------ build report

def test_build_report_shape(graphs):
    labeling = FTCLabeling(graphs["er"], FTCConfig(max_faults=2),
                           executor=ThreadExecutor(2))
    report = labeling.build_report
    assert isinstance(report, BuildReport)
    assert report.executor == "thread"
    assert report.jobs == 2
    assert tuple(report.stage_seconds) == STAGES
    assert all(seconds >= 0.0 for seconds in report.stage_seconds.values())
    assert report.total_seconds >= sum(report.stage_seconds.values()) * 0.5
    assert report.level_count >= 1
    assert report.shard_count >= report.level_count
    payload = report.to_dict()
    assert payload["executor"] == "thread"
    json.dumps(payload)  # must be JSON-ready for the CLI
    assert labeling.construction_seconds == report.total_seconds
    # Per-stage peak memory rides along (RSS probe on POSIX, else empty).
    assert report.memory_probe in ("tracemalloc", "rss", "unavailable")
    assert payload["memory_probe"] == report.memory_probe
    if report.memory_probe != "unavailable":
        assert tuple(report.stage_peak_bytes) == STAGES
        assert all(peak > 0 for peak in report.stage_peak_bytes.values())


def test_build_report_tracemalloc_peaks_and_bit_identity():
    """With tracemalloc on, the report's per-stage peaks are true per-phase
    readings — and instrumentation must not perturb the labels (bit-identity
    of the snapshot bytes with the probe on vs off)."""
    import tracemalloc

    graph = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5)
    config = FTCConfig(max_faults=2)
    plain = FTCLabeling(graph, config, executor="serial")
    assert plain.build_report.memory_probe in ("rss", "unavailable")
    tracemalloc.start()
    try:
        traced = FTCLabeling(graph, config, executor="serial")
    finally:
        tracemalloc.stop()
    report = traced.build_report
    assert report.memory_probe == "tracemalloc"
    assert tuple(report.stage_peak_bytes) == STAGES
    assert all(peak >= 0 for peak in report.stage_peak_bytes.values())
    assert traced.to_snapshot_bytes() == plain.to_snapshot_bytes()


def test_report_shard_count_scales_with_jobs(graphs):
    serial = FTCLabeling(graphs["er"], FTCConfig(max_faults=2),
                         executor="serial")
    parallel = FTCLabeling(graphs["er"], FTCConfig(max_faults=2),
                           executor=ThreadExecutor(4))
    assert serial.build_report.executor == "serial"
    assert serial.build_report.shard_count == serial.build_report.level_count
    assert parallel.build_report.shard_count > parallel.build_report.level_count


# ------------------------------------------------------------- resolution

def test_resolve_executor_specs():
    assert resolve_executor("serial").name == "serial"
    assert resolve_executor("thread").name == "thread"
    assert resolve_executor("process:3").jobs == 3
    assert resolve_executor("THREAD:2").name == "thread"
    # String specs resolve to shared instances (one pool per spec).
    assert resolve_executor("process:3") is resolve_executor("process:3")


def test_resolve_executor_jobs_semantics():
    assert resolve_executor(jobs=1).name == "serial"
    parallel = resolve_executor(jobs=2)
    assert parallel.name == "process"
    assert parallel.jobs == 2
    # A spec without a count takes the separate jobs= as its worker bound.
    assert resolve_executor("thread", jobs=5).jobs == 5


def test_resolve_executor_rejects_bad_input():
    with pytest.raises(ValueError):
        resolve_executor("fibers")
    with pytest.raises(ValueError):
        resolve_executor("process:0")
    with pytest.raises(ValueError):
        resolve_executor("serial:4")
    with pytest.raises(ValueError):
        resolve_executor(jobs=0)
    with pytest.raises(ValueError):
        resolve_executor("process:2", jobs=3)
    with pytest.raises(ValueError):
        resolve_executor(SerialExecutor(), jobs=2)
    with pytest.raises(TypeError):
        resolve_executor(object())


def test_resolve_executor_instance_passthrough():
    executor = ThreadExecutor(2)
    assert resolve_executor(executor) is executor
    assert resolve_executor(executor, jobs=2) is executor


def test_env_override_selects_the_default(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "thread:2")
    assert resolve_executor().name == "thread"
    # Explicit arguments beat the environment.
    assert resolve_executor("serial").name == "serial"
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "fibers")
    with pytest.raises(ValueError):
        resolve_executor()
    monkeypatch.delenv(EXECUTOR_ENV_VAR)
    assert resolve_executor().name == "serial"


def test_resolve_build_executor_joins_config_resolution(monkeypatch):
    """The core.config entry point delegates to the build package."""
    monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
    assert resolve_build_executor().name == "serial"
    assert resolve_build_executor(jobs=2).name == "process"
    assert resolve_build_executor("thread:2").name == "thread"


def test_closed_pooled_executor_refuses_work():
    executor = ThreadExecutor(2)
    assert executor.map(len, [[1], [1, 2]]) == [1, 2]
    executor.close()
    executor.close()  # idempotent
    with pytest.raises(RuntimeError):
        executor.map(len, [[1], [1, 2]])
    with pytest.raises(RuntimeError):
        executor.map(len, [[1]])  # the single-task shortcut checks too


def test_broken_process_pool_recovers_on_the_next_map():
    """A killed worker breaks the pool; the executor replaces it, not dies."""
    from concurrent.futures import BrokenExecutor

    executor = ProcessExecutor(1)
    try:
        with pytest.raises(BrokenExecutor):
            executor.map(os._exit, [1, 1])  # both tasks kill their worker
        assert executor.map(len, [[1], [1, 2]]) == [1, 2]  # fresh pool
    finally:
        executor.close()


def test_closing_a_shared_executor_does_not_poison_the_cache():
    first = resolve_executor("thread:3")
    first.close()
    fresh = resolve_executor("thread:3")
    assert fresh is not first
    assert fresh.map(len, [[1], [1, 2]]) == [1, 2]


def test_serial_spec_with_parallel_jobs_is_rejected():
    with pytest.raises(ValueError, match="serial"):
        resolve_executor("serial", jobs=4)
    assert resolve_executor("serial", jobs=1).name == "serial"


# ---------------------------------------------------------------- facades

def test_build_labeling_facade(graphs):
    labeling = build_labeling(graphs["er"], max_faults=2, jobs=2)
    assert isinstance(labeling, FTCLabeling)
    assert labeling.build_report.executor == "process"
    reference = build_labeling(graphs["er"], max_faults=2)
    assert labeling.to_snapshot_bytes() == reference.to_snapshot_bytes()
    with pytest.raises(TypeError):
        build_labeling(graphs["er"])  # neither config nor max_faults


def test_oracle_build_with_jobs(graphs):
    graph = graphs["er"]
    with Oracle.build(graph, max_faults=2, jobs=2) as oracle:
        assert oracle.build_report.executor == "process"
        serial = Oracle.build(graph, max_faults=2)
        assert oracle.to_snapshot_bytes() == serial.to_snapshot_bytes()


def test_open_oracle_uri_jobs(tmp_path, graphs):
    graph = graphs["er"]
    edges = tmp_path / "edges.txt"
    edges.write_text("".join("%s %s\n" % edge for edge in sorted(graph.edges())))
    with open_oracle("build:%s?jobs=2" % edges, max_faults=2) as oracle:
        assert oracle.build_report.executor == "process"
        assert oracle.build_report.jobs == 2
    with open_oracle("build:%s?executor=thread:2" % edges, max_faults=2) as oracle:
        assert oracle.build_report.executor == "thread"


def test_open_oracle_rejects_jobs_on_constructed_transports():
    """Construction options on snapshot/tcp URIs fail loudly, never no-op."""
    with pytest.raises(ValueError, match="already-constructed"):
        open_oracle("snapshot:whatever.ftcs", jobs=4)
    with pytest.raises(ValueError, match="already-constructed"):
        open_oracle("tcp://127.0.0.1:1", executor="process:2")


def test_parse_build_query():
    assert parse_build_query("edges.txt") == ("edges.txt", {})
    assert parse_build_query("edges.txt?jobs=4") == ("edges.txt", {"jobs": 4})
    assert parse_build_query("?executor=thread:2&jobs=2") == \
        ("", {"executor": "thread:2", "jobs": 2})
    with pytest.raises(ValueError):
        parse_build_query("edges.txt?jobs=zero")
    with pytest.raises(ValueError):
        parse_build_query("edges.txt?workers=4")


def test_cli_jobs_flag(tmp_path, graphs, capsys):
    from repro.cli import main

    graph = graphs["er"]
    edges = tmp_path / "edges.txt"
    edges.write_text("".join("%s %s\n" % edge for edge in sorted(graph.edges())))
    fault = "%s-%s" % sorted(graph.edges())[0]
    code = main(["batch-query", "--edges", str(edges), "--max-faults", "2",
                 "--jobs", "2", "--fault", fault, "--random-pairs", "5",
                 "--check", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["result"]["ground_truth_mismatches"] == 0


def test_cli_bad_jobs_and_executor_are_clean_errors(tmp_path, capsys):
    """Flag mistakes print one error line and exit 2 — never a traceback."""
    from repro.cli import main

    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\nc a\n")
    assert main(["query", "--edges", str(edges), "--max-faults", "1",
                 "--source", "a", "--target", "c", "--jobs", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err
    assert main(["batch-query", "--oracle", "build:%s?executor=bogus" % edges,
                 "--max-faults", "1", "--pair", "a-c"]) == 2
    assert "unknown build executor" in capsys.readouterr().err
    assert main(["save-labeling", "--edges", str(edges), "--max-faults", "1",
                 "--jobs", "-3", "--output", str(tmp_path / "x.ftcs")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_uri_jobs_conflict_is_an_error(tmp_path, capsys):
    from repro.cli import main

    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\n")
    for argv in (["batch-query", "--oracle", "build:%s?jobs=4" % edges,
                  "--jobs", "2", "--max-faults", "1", "--pair", "a-c"],
                 ["stats", "--oracle", "build:%s?jobs=4" % edges,
                  "--jobs", "2", "--max-faults", "1"]):
        assert main(argv) == 2
        assert "conflicts with --jobs" in capsys.readouterr().err


def test_cli_jobs_on_a_constructed_transport_notes_inapplicability(
        tmp_path, graphs, capsys):
    """--jobs on snapshot/tcp paths must say it is doing nothing."""
    from repro.cli import main

    graph = graphs["er"]
    edges = tmp_path / "edges.txt"
    edges.write_text("".join("%s %s\n" % edge for edge in sorted(graph.edges())))
    snapshot = tmp_path / "x.ftcs"
    assert main(["save-labeling", "--edges", str(edges), "--max-faults", "2",
                 "--output", str(snapshot)]) == 0
    capsys.readouterr()
    fault = "%s-%s" % sorted(graph.edges())[0]
    assert main(["batch-query", "--snapshot", str(snapshot), "--jobs", "4",
                 "--fault", fault, "--random-pairs", "2", "--json"]) == 0
    captured = capsys.readouterr()
    assert "--jobs 4 does not apply" in captured.err
    assert main(["stats", "--oracle", "snapshot:%s" % snapshot,
                 "--jobs", "4"]) == 0
    assert "--jobs 4 does not apply" in capsys.readouterr().err


def test_cli_save_labeling_reports_the_build(tmp_path, graphs, capsys):
    from repro.cli import main

    graph = graphs["er"]
    edges = tmp_path / "edges.txt"
    edges.write_text("".join("%s %s\n" % edge for edge in sorted(graph.edges())))
    out_serial = tmp_path / "serial.ftcs"
    out_jobs = tmp_path / "jobs.ftcs"
    assert main(["save-labeling", "--edges", str(edges), "--max-faults", "2",
                 "--output", str(out_serial)]) == 0
    default_report = json.loads(capsys.readouterr().out)
    # Without --jobs the CLI follows the environment default (serial when
    # REPRO_BUILD_EXECUTOR is unset — e.g. the process-executor CI job).
    expected = resolve_executor().name if os.environ.get(EXECUTOR_ENV_VAR) \
        else "serial"
    assert default_report["build_report"]["executor"] == expected
    assert main(["save-labeling", "--edges", str(edges), "--max-faults", "2",
                 "--jobs", "2", "--output", str(out_jobs)]) == 0
    jobs_report = json.loads(capsys.readouterr().out)
    assert jobs_report["build_report"]["executor"] == "process"
    # The CLI-level bit-identity guarantee: same artifact bytes either way.
    assert out_serial.read_bytes() == out_jobs.read_bytes()


# ------------------------------------------------------------------ shards

def test_chunks_partition_exactly():
    items = list(range(10))
    for parts in (1, 2, 3, 7, 10, 25):
        chunks = _chunks(items, parts)
        assert [x for chunk in chunks for x in chunk] == items
        assert len(chunks) == min(parts, len(items))
        assert not any(len(chunk) == 0 for chunk in chunks)
    assert _chunks([], 4) == [[]]


def test_merge_shards_is_sparse_xor():
    first = ([0, 2], [[1, 2], [4, 0]])
    second = ([2], [[4, 5]])
    assert merge_shards(4, 2, [first, second]) == \
        [[1, 2], [0, 0], [0, 5], [0, 0]]
    assert merge_shards(2, 3, []) == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError):
        merge_shards(4, 2, [([0], [[1, 2, 3]])])


def test_merge_shards_bulk_backend_is_bit_identical():
    from repro.gf2.bulk import NumpyBulkOps, get_bulk_ops, numpy_available

    shards = [([0, 2], [[1, 2], [4, 0]]), ([2, 3], [[4, 5], [7, 7]]),
              ([0], [[8, 8]])]
    expected = [[9, 10], [0, 0], [0, 5], [7, 7]]
    plain = merge_shards(4, 2, shards)
    bulked = merge_shards(4, 2, shards, bulk=get_bulk_ops(None, max_bits=8))
    assert plain == bulked == expected
    if not numpy_available():
        return
    try:
        import numpy
    except ImportError:
        return
    # Shards built on numpy return uint64 arrays, which merge into one
    # array, also beside shards of Python rows.
    arrays = [(positions, numpy.asarray(rows, dtype=numpy.uint64))
              for positions, rows in shards]
    numpy_bulk = NumpyBulkOps(None, max_bits=8)
    assert merge_shards(4, 2, arrays, bulk=numpy_bulk).tolist() == expected
    assert merge_shards(4, 2, arrays[:1] + shards[1:],
                        bulk=numpy_bulk).tolist() == expected
    with pytest.raises(ValueError):
        merge_shards(4, 2, [([0], numpy.asarray([[1, 2, 3]], dtype=numpy.uint64))],
                     bulk=numpy_bulk)


def test_shard_partitions_merge_to_the_single_shot_matrix():
    """Any partition of a level's edges XORs back to the unsharded labels."""
    from repro.gf2.field import GF2m

    field = GF2m(8)
    edges = [(0, 1, 3), (1, 2, 5), (2, 3, 7), (0, 3, 11), (1, 3, 13)]
    whole = build_shard(rs_shard_task(field.width, field.modulus, 2, edges))
    reference = merge_shards(4, 4, [whole])
    for split in (1, 2, 3, 5):
        chunks = _chunks(edges, split)
        results = [build_shard(rs_shard_task(field.width, field.modulus, 2, chunk))
                   for chunk in chunks]
        assert merge_shards(4, 4, results) == reference


def test_plan_validates_inputs(graphs):
    from repro.graphs.graph import Graph

    with pytest.raises(TypeError):
        BuildPlan(graphs["er"], config=None)
    disconnected = Graph([("a", "b"), ("c", "d")])
    with pytest.raises(ValueError):
        BuildPlan(disconnected, FTCConfig(max_faults=1))
