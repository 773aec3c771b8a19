"""Tests for zero-downtime hot swap of the serving oracle.

The swap contract, in order of importance:

1. **Bit-identity** — answers before a swap equal the old snapshot's oracle,
   answers after equal the new snapshot's; never a blend.
2. **Zero dropped connections** — one client connection spans the whole
   reload; the server never resets it.
3. **Authenticated, pinned** — the ``reload`` wire op needs the configured
   token, and its optional ``path`` cannot point the server at a different
   file.  SIGHUP (local authority) needs no token.
4. **Fail closed** — a corrupt or missing snapshot file leaves the old
   oracle serving and answers ``reload-failed``.
5. **Lease discipline** — an in-flight request keeps the retired oracle
   alive until it drains; the swap closes it exactly once afterwards.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Oracle
from repro.core.batch import BatchQuerySession
from repro.server import AsyncQueryClient, QueryServer, ServerError
from repro.workloads import GraphFamily, make_graph

MAX_FAULTS = 2


def _build_worlds():
    """Two snapshots over different graphs + queries valid on both."""
    graph_a = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5)
    graph_b = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=6)
    bytes_a = Oracle.build(graph_a, max_faults=MAX_FAULTS).to_snapshot_bytes()
    bytes_b = Oracle.build(graph_b, max_faults=MAX_FAULTS).to_snapshot_bytes()
    shared = sorted(set(tuple(sorted(e)) for e in graph_a.edges()) &
                    set(tuple(sorted(e)) for e in graph_b.edges()))
    faults = [shared[0]]
    pairs = [(0, 11), (3, 19), (7, 15), (2, 22)]
    return bytes_a, bytes_b, faults, pairs


@pytest.fixture(scope="module")
def worlds():
    return _build_worlds()


@pytest.fixture
def served(tmp_path, worlds):
    bytes_a, _, _, _ = worlds
    path = tmp_path / "serving.ftcs"
    path.write_bytes(bytes_a)
    return path


def _run(coroutine):
    return asyncio.run(coroutine)


async def _start(path, **kwargs):
    server = QueryServer(Oracle.load(str(path)), port=0,
                         snapshot_path=str(path), **kwargs)
    await server.start()
    return server


# ----------------------------------------------------------------- wire op

def test_reload_swaps_and_answers_are_bit_identical(served, worlds):
    bytes_a, bytes_b, faults, pairs = worlds

    async def scenario():
        server = await _start(served, reload_token="hunter2")
        try:
            client = await AsyncQueryClient.connect(server.host, server.port)
            try:
                before = await client.connected_many(pairs, faults)
                stats = await client.stats()
                assert stats["server"]["snapshot_epoch"] == 0
                served.write_bytes(bytes_b)
                report = await client.reload("hunter2", path=str(served))
                assert report["reloaded"] is True
                assert report["epoch"] == 1
                assert report["source"] == "wire"
                # Same connection, next request: the new snapshot answers.
                after = await client.connected_many(pairs, faults)
                stats = await client.stats()
                assert stats["server"]["snapshot_epoch"] == 1
            finally:
                await client.close()
        finally:
            await server.close()
        return before, after

    before, after = _run(scenario())
    assert before == Oracle.load(bytes_a).connected_many(pairs, faults)
    assert after == Oracle.load(bytes_b).connected_many(pairs, faults)


def test_reload_requires_the_configured_token(served):
    async def scenario():
        server = await _start(served, reload_token="hunter2")
        try:
            client = await AsyncQueryClient.connect(server.host, server.port)
            try:
                with pytest.raises(ServerError) as excinfo:
                    await client.reload("wrong")
                assert excinfo.value.code == "reload-forbidden"
                with pytest.raises(ServerError) as excinfo:
                    await client.reload("hunter2", path="/somewhere/else.ftcs")
                assert excinfo.value.code == "reload-forbidden"
                # The connection survives both rejections.
                assert (await client.ping())["protocol"] >= 1
            finally:
                await client.close()
        finally:
            await server.close()

    _run(scenario())


def test_reload_op_disabled_without_a_token(served):
    async def scenario():
        server = await _start(served)  # snapshot_path set, but no token
        try:
            client = await AsyncQueryClient.connect(server.host, server.port)
            try:
                with pytest.raises(ServerError) as excinfo:
                    await client.reload("anything")
                assert excinfo.value.code == "reload-forbidden"
            finally:
                await client.close()
        finally:
            await server.close()

    _run(scenario())


def test_failed_reload_keeps_the_old_oracle_serving(served, worlds):
    bytes_a, _, faults, pairs = worlds

    async def scenario():
        server = await _start(served, reload_token="hunter2")
        try:
            client = await AsyncQueryClient.connect(server.host, server.port)
            try:
                served.write_bytes(b"not a snapshot at all")
                with pytest.raises(ServerError) as excinfo:
                    await client.reload("hunter2")
                assert excinfo.value.code == "reload-failed"
                answers = await client.connected_many(pairs, faults)
                stats = await client.stats()
                assert stats["server"]["snapshot_epoch"] == 0
            finally:
                await client.close()
        finally:
            await server.close()
        return answers

    answers = _run(scenario())
    assert answers == Oracle.load(bytes_a).connected_many(pairs, faults)


def test_reload_without_snapshot_path_fails_closed(worlds):
    bytes_a = worlds[0]

    async def scenario():
        server = QueryServer(Oracle.load(bytes_a), port=0,
                             reload_token="hunter2")  # no snapshot_path
        await server.start()
        try:
            client = await AsyncQueryClient.connect(server.host, server.port)
            try:
                with pytest.raises(ServerError) as excinfo:
                    await client.reload("hunter2")
                assert excinfo.value.code == "reload-failed"
            finally:
                await client.close()
        finally:
            await server.close()

    _run(scenario())


# ------------------------------------------------------------------ leases

def test_inflight_requests_pin_the_old_epoch(served, worlds):
    """A request that acquired the old oracle finishes on it even when the
    swap lands mid-request, and the retired oracle is closed exactly once
    after the last lease drains."""
    _, bytes_b, faults, pairs = worlds

    async def scenario():
        server = await _start(served, reload_token="hunter2")
        try:
            old_oracle = server.oracle
            oracle, epoch = server.sessions._acquire_oracle()
            assert (oracle, epoch) == (old_oracle, 0)
            served.write_bytes(bytes_b)
            await server.reload_snapshot(source="wire")
            # The old oracle is retired, not closed: our lease pins it.
            assert server.oracle is not old_oracle
            assert 0 in server.sessions._retired
            assert old_oracle.connected_many(pairs, faults)  # still usable
            server.sessions._release_oracle(0)
            assert 0 not in server.sessions._retired
            # Closed: its session cache is gone (close() drops sessions).
            assert server.sessions.epoch == 1
        finally:
            await server.close()

    _run(scenario())


def test_concurrent_load_across_a_swap_never_blends(served, worlds):
    """Many clients querying while the swap lands: every response equals the
    old snapshot's answer or the new one's — on these queries the two
    snapshots agree, so any blend or drop surfaces as a mismatch."""
    bytes_a, bytes_b, faults, pairs = worlds
    expected_a = Oracle.load(bytes_a).connected_many(pairs, faults)
    expected_b = Oracle.load(bytes_b).connected_many(pairs, faults)

    async def scenario():
        server = await _start(served, reload_token="hunter2")
        try:
            clients = [await AsyncQueryClient.connect(server.host, server.port)
                       for _ in range(4)]
            control = await AsyncQueryClient.connect(server.host, server.port)
            clients.append(control)
            try:
                async def hammer(client):
                    results = []
                    for _ in range(12):
                        results.append(
                            await client.connected_many(pairs, faults))
                    return results

                async def swap():
                    await asyncio.sleep(0.01)
                    served.write_bytes(bytes_b)
                    return await control.reload("hunter2")

                all_results = await asyncio.gather(
                    *[hammer(client) for client in clients[:-1]], swap())
            finally:
                for client in clients:
                    await client.close()
        finally:
            await server.close()
        return all_results

    *hammered, report = _run(scenario())
    assert report["reloaded"] is True
    for results in hammered:
        for answers in results:
            assert answers in (expected_a, expected_b)


# ----------------------------------------------------------------- re-warm

def _reload_under_hot_reads(served, worlds, monkeypatch, threads,
                            max_sessions=None):
    """Reload onto snapshot B while one client per hot set keeps reading it.

    The four single-edge hot sets exist in both snapshots.  Returns the
    reload report, each reader's last answers, B's answers, and the
    session builds per fault set counted from the start of the reload.
    """
    _, bytes_b, _, pairs = worlds
    graph_a = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=5)
    graph_b = make_graph(GraphFamily.ERDOS_RENYI, n=24, seed=6)
    edges_a = set(tuple(sorted(edge)) for edge in graph_a.edges())
    edges_b = set(tuple(sorted(edge)) for edge in graph_b.edges())
    hot_sets = [[edge] for edge in sorted(edges_a & edges_b)[:4]]
    expected = [Oracle.load(bytes_b).connected_many(pairs, faults)
                for faults in hot_sets]
    builds: Counter = Counter()
    original = BatchQuerySession.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        time.sleep(0.02)  # widen the window in which reads meet the re-warm
        builds[self.key] += 1

    async def scenario():
        executor = ThreadPoolExecutor(max_workers=threads)
        server = await _start(served, reload_token="hunter2",
                              executor=executor, max_sessions=max_sessions)
        clients = [await AsyncQueryClient.connect(server.host, server.port)
                   for _ in range(len(hot_sets) + 1)]
        try:
            for client, faults in zip(clients, hot_sets):
                await client.connected_many(pairs, faults)
            served.write_bytes(bytes_b)
            monkeypatch.setattr(BatchQuerySession, "__init__", counting)
            reload = asyncio.ensure_future(clients[-1].reload("hunter2"))

            async def read(client, faults):
                while not reload.done():
                    await client.connected_many(pairs, faults)
                return await client.connected_many(pairs, faults)

            last = await asyncio.gather(
                *[read(client, faults)
                  for client, faults in zip(clients, hot_sets)])
            return await reload, last
        finally:
            for client in clients:
                await client.close()
            await server.close()
            executor.shutdown(wait=False)

    report, last = _run(asyncio.wait_for(scenario(), timeout=60))
    return report, last, expected, builds


def test_reload_builds_each_hot_set_once(served, worlds, monkeypatch):
    """Reads that meet the post-reload re-warm join its builds (or it finds
    theirs cached): one session build per hot set."""
    report, last, expected, builds = _reload_under_hot_reads(
        served, worlds, monkeypatch, threads=4)
    assert report["epoch"] == 1
    assert report["rewarmed_sessions"] == 4
    assert last == expected
    assert sorted(builds.values()) == [1, 1, 1, 1]


def test_reload_under_reads_finishes_on_one_worker(served, worlds,
                                                   monkeypatch):
    """With one session worker and one cache slot every read and the
    re-warm share that thread; no wait may sit behind the build it waits
    for."""
    report, last, expected, _ = _reload_under_hot_reads(
        served, worlds, monkeypatch, threads=1, max_sessions=1)
    assert report["epoch"] == 1
    assert last == expected


# ------------------------------------------------------------------ SIGHUP

@pytest.mark.skipif(not hasattr(signal, "SIGHUP"),
                    reason="platform without SIGHUP")
def test_sighup_reloads_a_serving_process(tmp_path, worlds):
    """``repro serve`` + SIGHUP: the running process swaps onto the
    rewritten snapshot file with the same client connection open."""
    bytes_a, bytes_b, faults, pairs = worlds
    path = tmp_path / "serving.ftcs"
    path.write_bytes(bytes_a)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--snapshot", str(path), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        event = None
        for line in process.stdout:
            try:
                candidate = json.loads(line)
            except ValueError:
                continue
            if candidate.get("event") == "serving":
                event = candidate
                break
        assert event is not None, "server exited before announcing readiness"
        remote = Oracle.connect(event["host"], event["port"])
        try:
            before = remote.connected_many(pairs, faults)
            assert before == Oracle.load(bytes_a).connected_many(pairs, faults)
            path.write_bytes(bytes_b)
            process.send_signal(signal.SIGHUP)
            # The reload announce line confirms the swap landed.
            deadline = time.monotonic() + 30
            reloaded = None
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                try:
                    candidate = json.loads(line)
                except ValueError:
                    continue
                if candidate.get("event") in ("reloaded", "reload-failed"):
                    reloaded = candidate
                    break
            assert reloaded is not None and reloaded["event"] == "reloaded", \
                reloaded
            assert reloaded["epoch"] == 1
            after = remote.connected_many(pairs, faults)
            assert after == Oracle.load(bytes_b).connected_many(pairs, faults)
        finally:
            remote.close()
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
