"""Tests for the command-line interface."""

import json
import random

import pytest

from repro.cli import load_edge_list, main, parse_fault


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "network.txt"
    path.write_text(
        "# a small ring with a chord\n"
        "a b\n"
        "b c\n"
        "c d\n"
        "d a\n"
        "b d\n"
        "\n")
    return path


def test_load_edge_list(edge_file):
    graph = load_edge_list(edge_file)
    assert graph.num_vertices() == 4
    assert graph.num_edges() == 5


def test_load_edge_list_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\n")
    with pytest.raises(ValueError):
        load_edge_list(path)


def test_parse_fault():
    assert parse_fault("a-b") == ("a", "b")
    assert parse_fault("a, b") == ("a", "b")
    with pytest.raises(ValueError):
        parse_fault("ab")


def test_cli_stats(edge_file, capsys):
    exit_code = main(["stats", "--edges", str(edge_file), "--max-faults", "2"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["max_edge_label_bits"] > 0


def test_cli_query_connected(edge_file, capsys):
    exit_code = main(["query", "--edges", str(edge_file), "--max-faults", "2",
                      "--source", "a", "--target", "c",
                      "--fault", "b-c", "--fault", "c-d"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1 or payload["connected"] == payload["ground_truth"]
    assert payload["connected"] is False  # c is cut off from a


def test_cli_query_unknown_fault(edge_file, capsys):
    exit_code = main(["query", "--edges", str(edge_file), "--max-faults", "1",
                      "--source", "a", "--target", "c", "--fault", "a-z"])
    assert exit_code == 2


def test_cli_audit(edge_file, capsys):
    exit_code = main(["audit", "--edges", str(edge_file), "--max-faults", "2",
                      "--queries", "25"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 25
    assert payload["wrong"] == 0


def test_cli_batch_query(edge_file, capsys, tmp_path):
    pairs_file = tmp_path / "pairs.txt"
    pairs_file.write_text("# pairs\na c\nb d\n")
    exit_code = main(["batch-query", "--edges", str(edge_file), "--max-faults", "2",
                      "--fault", "b-c", "--fault", "c-d",
                      "--pair", "a-c", "--pairs-file", str(pairs_file),
                      "--random-pairs", "2", "--check"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_pairs"] == 5
    assert payload["ground_truth_mismatches"] == 0
    assert payload["batched"] is True
    assert payload["num_fragments"] >= 1
    assert payload["results"][0] == {"source": "a", "target": "c", "connected": False}


def test_cli_batch_query_faults_file(edge_file, capsys, tmp_path):
    """--faults-file answers the pair list under every fault set via
    executor-backed session construction (--jobs)."""
    faults_file = tmp_path / "faults.txt"
    faults_file.write_text("# one fault set per line\nb-c c-d\na-b\n-\n")
    exit_code = main(["batch-query", "--edges", str(edge_file), "--max-faults", "2",
                      "--faults-file", str(faults_file), "--jobs", "2",
                      "--pair", "a-c", "--pair", "b-d", "--check"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_fault_sets"] == 3
    assert payload["session_jobs"] == 2
    assert payload["ground_truth_mismatches"] == 0
    assert [entry["faults"] for entry in payload["batches"]] == \
        [["b-c", "c-d"], ["a-b"], []]
    assert payload["batches"][0]["results"][0] == \
        {"source": "a", "target": "c", "connected": False}
    assert all(result["connected"] for result in payload["batches"][2]["results"])


def test_cli_batch_query_faults_file_builds_each_session_once(tmp_path, capsys,
                                                             monkeypatch):
    """Past the oracle's 32-session LRU every fault set is still built once:
    its pairs are answered by the session ``build_sessions`` returned."""
    from repro.api import Oracle
    from repro.core.batch import BatchQuerySession
    from repro.workloads import GraphFamily, make_graph

    graph = make_graph(GraphFamily.ERDOS_RENYI, n=40, seed=3)
    edge_path = tmp_path / "er40.txt"
    edge_path.write_text("".join("%s %s\n" % edge for edge in sorted(graph.edges())))
    snapshot = tmp_path / "er40.ftcs"
    Oracle.build(load_edge_list(edge_path), max_faults=2).save(str(snapshot))
    rng = random.Random(40)
    edges = sorted(graph.edges())
    fault_sets = set()
    while len(fault_sets) < 40:
        fault_sets.add(tuple(sorted(rng.sample(edges, 2))))
    faults_file = tmp_path / "faults.txt"
    faults_file.write_text("".join("%s-%s %s-%s\n" % (first + second)
                                   for first, second in sorted(fault_sets)))
    built = []
    init = BatchQuerySession.__init__
    monkeypatch.setattr(BatchQuerySession, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert main(["batch-query", "--snapshot", str(snapshot), "--edges", str(edge_path),
                 "--faults-file", str(faults_file), "--random-pairs", "10",
                 "--check"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_fault_sets"] == 40
    assert payload["ground_truth_mismatches"] == 0
    assert len(built) == 40


def test_cli_batch_query_faults_file_conflicts_and_bad_lines(edge_file, capsys,
                                                             tmp_path):
    faults_file = tmp_path / "faults.txt"
    faults_file.write_text("a-b\n")
    assert main(["batch-query", "--edges", str(edge_file), "--max-faults", "1",
                 "--faults-file", str(faults_file), "--fault", "a-b",
                 "--pair", "a-c"]) == 2
    faults_file.write_text("nonsense\n")
    assert main(["batch-query", "--edges", str(edge_file), "--max-faults", "1",
                 "--faults-file", str(faults_file), "--pair", "a-c"]) == 2
    faults_file.write_text("# only comments\n")
    assert main(["batch-query", "--edges", str(edge_file), "--max-faults", "1",
                 "--faults-file", str(faults_file), "--pair", "a-c"]) == 2


def test_cli_batch_query_requires_pairs(edge_file, capsys):
    exit_code = main(["batch-query", "--edges", str(edge_file), "--max-faults", "1"])
    assert exit_code == 2


def test_cli_batch_query_unknown_vertex(edge_file, capsys):
    exit_code = main(["batch-query", "--edges", str(edge_file), "--max-faults", "1",
                      "--pair", "a-z"])
    assert exit_code == 2


def test_cli_export_labels(edge_file, capsys, tmp_path):
    from repro.core.labels import EdgeLabel, VertexLabel

    output = tmp_path / "labels.json"
    exit_code = main(["export-labels", "--edges", str(edge_file), "--max-faults", "2",
                      "--output", str(output)])
    assert exit_code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["vertex_labels"] == 4
    assert summary["edge_labels"] == 5
    payload = json.loads(output.read_text())
    for blob in payload["vertex_labels"].values():
        VertexLabel.from_bytes(bytes.fromhex(blob))
    for entry in payload["edge_labels"]:
        assert {"u", "v", "label"} <= set(entry)
        EdgeLabel.from_bytes(bytes.fromhex(entry["label"]))


def test_cli_audit_sketch_variant(edge_file, capsys):
    exit_code = main(["audit", "--edges", str(edge_file), "--max-faults", "1",
                      "--variant", "sketch-full", "--queries", "10"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 10
    assert exit_code in (0, 1)


# ---------------------------------------------------------------- snapshots


@pytest.fixture
def snapshot_file(edge_file, tmp_path, capsys):
    path = tmp_path / "network.ftcs"
    assert main(["save-labeling", "--edges", str(edge_file), "--max-faults", "2",
                 "--output", str(path)]) == 0
    capsys.readouterr()  # drop the save summary
    return path


def test_cli_save_and_load_labeling(edge_file, tmp_path, capsys):
    path = tmp_path / "network.ftcs"
    exit_code = main(["save-labeling", "--edges", str(edge_file), "--max-faults", "2",
                      "--output", str(path)])
    assert exit_code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["vertex_labels"] == 4
    assert summary["edge_labels"] == 5
    assert path.stat().st_size == summary["bytes"]

    exit_code = main(["load-labeling", "--snapshot", str(path)])
    assert exit_code == 0
    loaded = json.loads(capsys.readouterr().out)
    assert loaded["format"] == "ftc-snapshot"
    assert loaded["max_faults"] == 2
    assert loaded["vertex_labels"] == 4
    assert loaded["outdetect_kind"] == "layered-rs"


def test_cli_batch_query_from_snapshot(snapshot_file, capsys):
    exit_code = main(["batch-query", "--snapshot", str(snapshot_file),
                      "--fault", "b-c", "--fault", "c-d",
                      "--pair", "a-c", "--pair", "b-d"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["labels"] == "snapshot"
    assert payload["batched"] is True
    assert payload["results"][0] == {"source": "a", "target": "c", "connected": False}
    assert payload["results"][1] == {"source": "b", "target": "d", "connected": True}


def test_cli_batch_query_snapshot_with_check(snapshot_file, edge_file, capsys):
    exit_code = main(["batch-query", "--snapshot", str(snapshot_file),
                      "--edges", str(edge_file), "--fault", "b-c",
                      "--random-pairs", "4", "--check"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ground_truth_mismatches"] == 0


def test_cli_batch_query_snapshot_check_requires_edges(snapshot_file, capsys):
    exit_code = main(["batch-query", "--snapshot", str(snapshot_file),
                      "--pair", "a-c", "--check"])
    assert exit_code == 2


def test_cli_batch_query_requires_edges_or_snapshot(capsys):
    exit_code = main(["batch-query", "--pair", "a-c"])
    assert exit_code == 2


def test_cli_batch_query_snapshot_unknown_fault(snapshot_file, capsys):
    exit_code = main(["batch-query", "--snapshot", str(snapshot_file),
                      "--fault", "a-z", "--pair", "a-c"])
    assert exit_code == 2


def test_cli_batch_query_snapshot_graph_mismatch(snapshot_file, tmp_path, capsys):
    """A graph that outgrew the snapshot is reported, not a KeyError crash."""
    bigger = tmp_path / "bigger.txt"
    bigger.write_text("a b\nb c\nc d\nd a\nb d\nd e\n")  # vertex e, edge d-e are new
    exit_code = main(["batch-query", "--snapshot", str(snapshot_file),
                      "--edges", str(bigger), "--fault", "d-e",
                      "--pair", "a-c", "--check"])
    assert exit_code == 2
    exit_code = main(["batch-query", "--snapshot", str(snapshot_file),
                      "--edges", str(bigger), "--pair", "a-e", "--check"])
    assert exit_code == 2


def test_cli_corrupt_snapshot_reports_cleanly(tmp_path, capsys):
    bad = tmp_path / "corrupt.ftcs"
    bad.write_bytes(b"FTCS\x01garbage")
    assert main(["load-labeling", "--snapshot", str(bad)]) == 2
    assert main(["batch-query", "--snapshot", str(bad), "--pair", "a-c"]) == 2
    assert main(["load-labeling", "--snapshot", str(tmp_path / "missing.ftcs")]) == 2


def test_cli_corrupt_label_payload_reports_cleanly(snapshot_file, tmp_path, capsys):
    """A snapshot whose container parses but whose label blob is corrupt must
    exit 2 with a message, not crash at first lazy decode."""
    from repro.core.snapshot import FTCSnapshot

    lazy = FTCSnapshot.from_bytes(snapshot_file.read_bytes(), decode_labels=False)
    vertex = next(iter(lazy.vertex_labels))
    blob = lazy.vertex_labels[vertex]
    lazy.vertex_labels[vertex] = blob[:-1] + b"\x80"  # same length, truncated varint
    poisoned = tmp_path / "poisoned.ftcs"
    poisoned.write_bytes(lazy.to_bytes())
    exit_code = main(["batch-query", "--snapshot", str(poisoned),
                      "--pair", "%s-%s" % (vertex, "c" if vertex != "c" else "d")])
    assert exit_code == 2
    assert "corrupt" in capsys.readouterr().err


def test_cli_batch_query_over_budget_faults_report_cleanly(snapshot_file, capsys):
    exit_code = main(["batch-query", "--snapshot", str(snapshot_file),
                      "--fault", "a-b", "--fault", "b-c", "--fault", "c-d",
                      "--pair", "a-c"])
    assert exit_code == 2
    assert "faults" in capsys.readouterr().err


def test_cli_audit_snapshot_notes_overridden_budget(snapshot_file, edge_file, capsys):
    exit_code = main(["audit", "--edges", str(edge_file), "--max-faults", "1",
                      "--snapshot", str(snapshot_file), "--queries", "10"])
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "does not apply in snapshot mode" in captured.err
    assert json.loads(captured.out)["total"] == 10


def test_cli_audit_snapshot_graph_mismatch(snapshot_file, tmp_path, capsys):
    bigger = tmp_path / "bigger.txt"
    bigger.write_text("a b\nb c\nc d\nd a\nb d\nd e\n")
    exit_code = main(["audit", "--edges", str(bigger),
                      "--snapshot", str(snapshot_file), "--queries", "10"])
    assert exit_code == 2
    assert "stale" in capsys.readouterr().err


def test_cli_audit_from_snapshot(snapshot_file, edge_file, capsys):
    exit_code = main(["audit", "--edges", str(edge_file),
                      "--snapshot", str(snapshot_file), "--queries", "25"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 25
    assert payload["wrong"] == 0
    assert payload["labels"] == "snapshot"


# ------------------------------------------------------- --json output mode


def test_cli_stats_json_envelope(edge_file, capsys):
    assert main(["stats", "--edges", str(edge_file), "--max-faults", "2",
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 1  # one compact line
    envelope = json.loads(out)
    assert envelope["ok"] is True
    assert envelope["result"]["n"] == 4


def test_cli_query_json_envelope(edge_file, capsys):
    assert main(["query", "--edges", str(edge_file), "--max-faults", "2",
                 "--source", "a", "--target", "c", "--fault", "b-c",
                 "--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["ok"] is True
    assert envelope["result"]["connected"] is True


def test_cli_batch_query_json_matches_plain_output(edge_file, capsys):
    arguments = ["batch-query", "--edges", str(edge_file), "--max-faults", "2",
                 "--fault", "b-c", "--pair", "a-c", "--pair", "b-d"]
    assert main(arguments) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(arguments + ["--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["ok"] is True
    assert envelope["result"] == plain


# ------------------------------------------------------ serve / client-query


@pytest.fixture
def running_server(snapshot_file):
    from repro.core.snapshot import load_snapshot
    from repro.server import BackgroundServer

    with BackgroundServer(load_snapshot(snapshot_file), max_sessions=4) as server:
        yield server


def test_cli_client_query_matches_batch_query(running_server, snapshot_file, capsys):
    """Acceptance: the wire path and the in-process path print one format."""
    query = ["--fault", "b-c", "--fault", "c-d", "--pair", "a-c", "--pair", "b-d"]
    assert main(["client-query", "--host", running_server.host,
                 "--port", str(running_server.port), "--json"] + query) == 0
    remote = json.loads(capsys.readouterr().out)
    assert main(["batch-query", "--snapshot", str(snapshot_file), "--json"] + query) == 0
    local = json.loads(capsys.readouterr().out)
    assert remote["ok"] is True and local["ok"] is True
    assert remote["result"]["results"] == local["result"]["results"]
    assert remote["result"]["results"][0] == {"source": "a", "target": "c",
                                              "connected": False}


def test_cli_client_query_pairs_file_ping_and_stats(running_server, tmp_path, capsys):
    pairs_file = tmp_path / "pairs.txt"
    pairs_file.write_text("# pairs\na c\nb d\n")
    address = ["--host", running_server.host, "--port", str(running_server.port)]
    assert main(["client-query"] + address + ["--pairs-file", str(pairs_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_pairs"] == 2
    assert main(["client-query"] + address + ["--op", "ping"]) == 0
    assert json.loads(capsys.readouterr().out)["pong"] is True
    assert main(["client-query"] + address + ["--op", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["result"]["server"]["requests_total"] >= 2


def test_cli_client_query_server_error_is_reported(running_server, capsys):
    address = ["--host", running_server.host, "--port", str(running_server.port)]
    assert main(["client-query"] + address + ["--fault", "a-z", "--pair", "a-c",
                                              "--json"]) == 2
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["ok"] is False
    assert envelope["error"]["code"] == "unknown-edge"
    assert main(["client-query"] + address + ["--pair", "a-c", "--fault", "a-z"]) == 2
    assert "server refused" in capsys.readouterr().err


def test_cli_client_query_requires_pairs(running_server, capsys):
    assert main(["client-query", "--host", running_server.host,
                 "--port", str(running_server.port)]) == 2


def test_cli_client_query_bad_fault_syntax_reports_cleanly(running_server, capsys):
    """A malformed --fault exits 2 with a message, not a traceback."""
    assert main(["client-query", "--host", running_server.host,
                 "--port", str(running_server.port),
                 "--fault", "nodash", "--pair", "a-c"]) == 2
    assert "not of the form" in capsys.readouterr().err


def test_cli_batch_query_oracle_uri_selects_transport(running_server, snapshot_file,
                                                      capsys):
    """One --oracle flag switches batch-query between snapshot and tcp
    transports; the reports agree."""
    query = ["--fault", "b-c", "--pair", "a-c", "--pair", "b-d", "--json"]
    uri = "tcp://%s:%d" % (running_server.host, running_server.port)
    assert main(["batch-query", "--oracle", uri] + query) == 0
    remote = json.loads(capsys.readouterr().out)
    assert main(["batch-query", "--oracle", "snapshot:%s" % snapshot_file] + query) == 0
    local = json.loads(capsys.readouterr().out)
    assert remote["ok"] is True and local["ok"] is True
    assert remote["result"]["results"] == local["result"]["results"]
    assert remote["result"]["labels"] == "server"
    assert local["result"]["labels"] == "snapshot"
    # Both transports report the same decomposition structure.
    assert remote["result"]["num_components"] == local["result"]["num_components"]
    assert remote["result"]["num_fragments"] == local["result"]["num_fragments"]


def test_cli_batch_query_oracle_uri_build_and_errors(edge_file, capsys):
    assert main(["batch-query", "--oracle", "build:%s" % edge_file,
                 "--max-faults", "2", "--fault", "b-c", "--pair", "a-c",
                 "--check"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["labels"] == "constructed"
    assert report["ground_truth_mismatches"] == 0
    assert main(["batch-query", "--oracle", "ftp://nope", "--pair", "a-c"]) == 2
    assert "unsupported oracle URI" in capsys.readouterr().err


def test_cli_oracle_uri_conflicting_flags_rejected(edge_file, snapshot_file, capsys):
    """--oracle must not silently override an explicit conflicting flag."""
    assert main(["batch-query", "--oracle", "snapshot:other.ftcs",
                 "--snapshot", str(snapshot_file), "--pair", "a-c"]) == 2
    assert "conflicts with --snapshot" in capsys.readouterr().err
    assert main(["batch-query", "--oracle", "build:other.txt",
                 "--edges", str(edge_file), "--pair", "a-c"]) == 2
    assert "conflicts with --edges" in capsys.readouterr().err


def test_cli_batch_query_remote_server_error(running_server, capsys):
    uri = "tcp://%s:%d" % (running_server.host, running_server.port)
    assert main(["batch-query", "--oracle", uri, "--fault", "a-z",
                 "--pair", "a-c", "--json"]) == 2
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["ok"] is False
    assert envelope["error"]["code"] == "unknown-edge"


def test_cli_stats_oracle_uri_and_prometheus(running_server, snapshot_file, capsys):
    """stats --oracle prints the normalized OracleStats for any transport."""
    assert main(["stats", "--oracle", "snapshot:%s" % snapshot_file, "--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["result"]["transport"] == "snapshot"
    assert envelope["result"]["max_faults"] == 2
    uri = "tcp://%s:%d" % (running_server.host, running_server.port)
    assert main(["stats", "--oracle", uri, "--prometheus"]) == 0
    text = capsys.readouterr().out
    assert "repro_oracle_max_faults 2" in text
    assert 'repro_oracle_info{transport="tcp"' in text


def test_cli_client_query_prometheus(running_server, capsys):
    """client-query --prometheus exposes the server stats as text metrics."""
    address = ["--host", running_server.host, "--port", str(running_server.port)]
    assert main(["client-query"] + address + ["--pair", "a-c"]) == 0
    capsys.readouterr()
    assert main(["client-query"] + address + ["--prometheus"]) == 0
    text = capsys.readouterr().out
    assert "# TYPE repro_server_requests_total gauge" in text
    assert "repro_server_requests_total" in text
    assert 'repro_server_requests{op="connected_many"}' in text
    assert 'repro_oracle_info{transport="tcp"' in text


def test_cli_client_query_connection_refused(capsys):
    # An ephemeral port nobody is listening on.
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    assert main(["client-query", "--port", str(port), "--pair", "a-c"]) == 2
    assert "cannot connect" in capsys.readouterr().err
