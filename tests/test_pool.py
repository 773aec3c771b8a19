"""The ``repro.pool`` serving tier: pre-warm file and ``--workers`` fleet.

Covers the hot-key pre-warm sidecar (atomic and collision-free save,
fail-soft load, ranked extraction from the session manager) and the
SO_REUSEPORT front-end, from its building blocks to a served fleet.
"""

import json
import os
import socket
import sys
import threading

import pytest

from repro.api import Oracle
from repro.pool import hot_keys_path, load_hot_fault_sets, save_hot_fault_sets
from repro.pool.frontend import _reserve_port, _worker_metrics_port
from repro.server.session_manager import SessionManager
from repro.workloads import GraphFamily, make_graph

MAX_FAULTS = 2


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=12, seed=3, density=1.4)
    oracle = Oracle.build(graph, max_faults=MAX_FAULTS)
    path = tmp_path_factory.mktemp("pool") / "world.ftcs"
    path.write_bytes(oracle.to_snapshot_bytes())
    oracle.close()
    return path


@pytest.fixture(scope="module")
def reference(snapshot_path):
    oracle = Oracle.load(snapshot_path)
    try:
        yield oracle
    finally:
        oracle.close()


# ------------------------------------------------------------ pre-warm file


def test_hot_keys_path_sits_beside_the_snapshot():
    assert hot_keys_path("/data/net.ftcs") == "/data/net.ftcs.hotkeys.json"


def test_hot_fault_sets_round_trip(tmp_path):
    path = tmp_path / "net.ftcs.hotkeys.json"
    fault_sets = [[("a", "b"), ("c", "d")], [(1, 2)], []]
    assert save_hot_fault_sets(path, fault_sets) == 3
    loaded = load_hot_fault_sets(path)
    assert loaded == [[("a", "b"), ("c", "d")], [(1, 2)], []]


def test_save_hot_fault_sets_is_atomic(tmp_path):
    path = tmp_path / "net.ftcs.hotkeys.json"
    save_hot_fault_sets(path, [[("a", "b")]])
    assert not list(tmp_path.glob("*.tmp"))
    assert load_hot_fault_sets(path) == [[("a", "b")]]


def test_concurrent_saves_of_one_sidecar_do_not_collide(tmp_path):
    """Every fleet worker saves the sidecar on the same SIGTERM.  No save
    may fail on a sibling's temp file, and the survivor is one whole write."""
    path = tmp_path / "net.ftcs.hotkeys.json"
    writers, saves = 4, 150
    errors: list = []

    def save_many(writer):
        try:
            for index in range(saves):
                save_hot_fault_sets(path, [[(writer, index)], [(index, writer)]])
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    threads = [threading.Thread(target=save_many, args=(writer,))
               for writer in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    last = saves - 1
    assert load_hot_fault_sets(path) in [[[(writer, last)], [(last, writer)]]
                                         for writer in range(writers)]
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("payload", [
    "not json at all",
    '"a json string"',
    '{"version": 999, "fault_sets": []}',
    '{"version": 1, "fault_sets": "nope"}',
    '{"version": 1, "fault_sets": [["not-an-edge"]]}',
    '{"version": 1, "fault_sets": [[["a", "b", "c"]]]}',
])
def test_load_hot_fault_sets_is_fail_soft(tmp_path, payload):
    path = tmp_path / "bad.hotkeys.json"
    path.write_text(payload)
    assert load_hot_fault_sets(path) == []


def test_load_hot_fault_sets_missing_file_is_empty(tmp_path):
    assert load_hot_fault_sets(tmp_path / "nope.json") == []


def test_session_manager_exposes_ranked_hot_fault_sets(reference):
    manager = SessionManager(reference)
    try:
        hot = [("a", "b")]
        cold = [("c", "d")]
        for _ in range(3):
            manager._record_hot_key(("hot",), hot)
        manager._record_hot_key(("cold",), cold)
        ranked = manager.hot_fault_sets()
        assert ranked[0] == hot
        assert ranked == [hot, cold]
        assert manager.hot_fault_sets(top=1) == [hot]
    finally:
        manager.close()


def test_hot_fault_sets_survive_a_json_round_trip(tmp_path, reference):
    """What the server persists on shutdown is exactly what a restarted
    server can replay through ``prewarm_sessions``."""
    manager = SessionManager(reference)
    try:
        graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=12, seed=3,
                           density=1.4)
        faults = sorted(graph.edges())[:MAX_FAULTS]
        _, key = reference._fault_labels_keyed(faults)
        manager._record_hot_key(key, faults)
        path = tmp_path / "world.ftcs.hotkeys.json"
        save_hot_fault_sets(path, manager.hot_fault_sets())
        replay = load_hot_fault_sets(path)
        assert replay == [[tuple(edge) for edge in faults]]
        import asyncio

        warmed = asyncio.run(manager.prewarm_sessions(replay))
        assert warmed == 1
    finally:
        manager.close()


# ---------------------------------------------------------------- front-end


def test_reserve_port_resolves_an_ephemeral_port():
    if not hasattr(socket, "SO_REUSEPORT"):
        pytest.skip("platform without SO_REUSEPORT")
    reservation = _reserve_port("127.0.0.1", 0)
    try:
        host, port = reservation.getsockname()[:2]
        assert port > 0
        # A second SO_REUSEPORT bind of the same port must succeed — that is
        # the whole mechanism the worker fleet relies on.
        sibling = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sibling.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sibling.bind((host, port))
        sibling.close()
    finally:
        reservation.close()


def test_worker_metrics_port_mapping():
    assert _worker_metrics_port(None, 0) is None
    assert _worker_metrics_port(None, 3) is None
    assert _worker_metrics_port(0, 0) == 0
    assert _worker_metrics_port(0, 5) == 0
    assert _worker_metrics_port(9100, 0) == 9100
    assert _worker_metrics_port(9100, 2) == 9102


def test_run_pooled_server_rejects_bad_arguments(snapshot_path):
    from repro.pool import run_pooled_server

    with pytest.raises(ValueError):
        run_pooled_server(str(snapshot_path), workers=0)
    with pytest.raises(FileNotFoundError):
        run_pooled_server(str(snapshot_path) + ".missing", workers=1)


@pytest.mark.skipif(not hasattr(socket, "SO_REUSEPORT"),
                    reason="platform without SO_REUSEPORT")
def test_fleet_serves_and_shuts_down_cleanly(snapshot_path, tmp_path):
    """End-to-end: a 2-worker fleet answers like the snapshot transport and
    dies cleanly on SIGTERM, leaving the hot-key sidecar behind."""
    import signal
    import subprocess
    import time

    graph = make_graph(GraphFamily.TREE_PLUS_CHORDS, n=12, seed=3, density=1.4)
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--snapshot", str(snapshot_path), "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        # Tracing spans from the workers share stdout with the announce
        # line, so scan for the "serving" event rather than trusting the
        # first line.
        event = None
        for line in process.stdout:
            try:
                candidate = json.loads(line)
            except ValueError:
                continue
            if candidate.get("event") == "serving":
                event = candidate
                break
        assert event is not None, "fleet exited before announcing readiness"
        assert event["workers"] == 2
        remote = Oracle.connect(event["host"], event["port"])
        reference = Oracle.load(snapshot_path)
        try:
            faults = edges[:MAX_FAULTS]
            pairs = [(vertices[0], vertices[-1]), (vertices[2], vertices[5])]
            assert remote.connected_many(pairs, faults) == \
                reference.connected_many(pairs, faults)
        finally:
            remote.close()
            reference.close()
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        sidecar = hot_keys_path(snapshot_path)
        deadline = time.monotonic() + 5
        while not os.path.exists(sidecar) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert load_hot_fault_sets(sidecar) == [[tuple(e) for e in faults]]
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
