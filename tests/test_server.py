"""Tests for the concurrent connectivity query server (:mod:`repro.server`).

The server's contract, in order of importance:

1. **Bit-identity** — answers over the wire equal
   ``load_snapshot(X).connected_many(...)`` in process, always.
2. **Session sharing** — concurrent requests carrying one canonical fault set
   build one :class:`~repro.core.batch.BatchQuerySession` (LRU hit or
   single-flight coalesce), visible in the hit-rate metric.
3. **Fail closed per request** — adversarial input (malformed JSON, oversized
   lines, unknown ops, non-vertex ids) gets a structured error response and
   the connection keeps working.
4. **Clean shutdown** — close() drops clients and stops accepting.

The suite drives the asyncio server with ``asyncio.run`` from synchronous
tests (no pytest-asyncio dependency).
"""

import asyncio
import json
import random
import threading
import time

import pytest

from repro.build import executors
from repro.core.batch import BatchQuerySession
from repro.core.config import FTCConfig
from repro.core.ftc import FTCLabeling
from repro.core.query import QueryFailure
from repro.core.snapshot import load_snapshot
from repro.server import (AsyncQueryClient, BackgroundServer, QueryClient,
                          QueryServer, ServerError, SessionManager)
from repro.server import protocol
from repro.server.protocol import (ProtocolError, parse_request,
                                   vertex_from_wire, vertex_to_wire)
from repro.workloads import FaultModel, GraphFamily, make_graph
from repro.workloads.faults import sample_fault_sets

MAX_FAULTS = 3


@pytest.fixture(scope="module")
def world():
    """One graph + snapshot shared by the whole module (construction is slow)."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=30, seed=7)
    labeling = FTCLabeling(graph, FTCConfig(max_faults=MAX_FAULTS))
    data = labeling.to_snapshot_bytes()
    return graph, data


@pytest.fixture
def oracle(world):
    _, data = world
    return load_snapshot(data)


def workload(graph, num_sets, num_pairs, seed=0):
    """Distinct fault sets plus query pairs, with BFS ground truth."""
    fault_sets = sample_fault_sets(graph, num_sets, MAX_FAULTS,
                                   model=FaultModel.TREE_BIASED, seed=seed)
    rng = random.Random(seed + 1)
    vertices = sorted(graph.vertices())
    out = []
    for faults in fault_sets:
        faults = list(faults)
        pairs = [tuple(rng.sample(vertices, 2)) for _ in range(num_pairs)]
        truth = [graph.connected(s, t, removed=faults) for s, t in pairs]
        out.append((faults, pairs, truth))
    return out


async def _start(oracle, **kwargs):
    server = QueryServer(oracle, port=0, **kwargs)
    await server.start()
    return server


# ------------------------------------------------------------ protocol unit

def test_vertex_wire_round_trip():
    for vertex in [0, -3, "a", "with space", (1, 2), ("grid", (3, 4))]:
        assert vertex_from_wire(json.loads(json.dumps(vertex_to_wire(vertex)))) == vertex


@pytest.mark.parametrize("bad", [True, False, None, 1.5, {"a": 1}, [1, [True]]])
def test_vertex_from_wire_rejects_non_vertex_values(bad):
    with pytest.raises(ProtocolError) as info:
        vertex_from_wire(bad)
    assert info.value.code == protocol.E_BAD_REQUEST


def test_vertex_from_wire_rejects_deep_nesting():
    nested = 0
    for _ in range(protocol.MAX_VERTEX_DEPTH + 2):
        nested = [nested]
    with pytest.raises(ProtocolError):
        vertex_from_wire(nested)


@pytest.mark.parametrize("line,code", [
    (b"\xff\xfe garbage", protocol.E_MALFORMED),
    (b"not json", protocol.E_MALFORMED),
    (b"[1, 2]", protocol.E_BAD_REQUEST),
    (b'"ping"', protocol.E_BAD_REQUEST),
    (b"{}", protocol.E_BAD_REQUEST),
    (b'{"op": 5}', protocol.E_BAD_REQUEST),
    (b'{"op": "ping", "id": true}', protocol.E_BAD_REQUEST),
    (b'{"op": "ping", "id": [1]}', protocol.E_BAD_REQUEST),
])
def test_parse_request_fails_closed(line, code):
    with pytest.raises(ProtocolError) as info:
        parse_request(line)
    assert info.value.code == code


def test_parse_request_fuzz_never_raises_anything_else():
    """Random bytes must yield ProtocolError or a dict — nothing else."""
    rng = random.Random(99)
    corpus = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
              for _ in range(300)]
    corpus += [b'{"op":' + bytes([b]) + b"}" for b in range(32, 127)]
    for line in corpus:
        try:
            request = parse_request(line)
        except ProtocolError:
            continue
        assert isinstance(request, dict)


# ------------------------------------------------------------- bit-identity

def test_server_answers_bit_identical_to_inprocess(world, oracle):
    """Acceptance: wire answers == load_snapshot(X).connected_many(...)."""
    graph, data = world
    reference = load_snapshot(data)  # independent in-process oracle

    async def scenario():
        server = await _start(oracle)
        client = await AsyncQueryClient.connect(server.host, server.port)
        for faults, pairs, truth in workload(graph, num_sets=4, num_pairs=15):
            answers = await client.connected_many(pairs, faults)
            assert answers == reference.connected_many(pairs, faults)
            assert answers == truth
            # Single-pair op agrees with the batch op.
            assert (await client.connected(*pairs[0], faults)) == answers[0]
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_session_info_op_reports_local_structure(world, oracle):
    """``session_info`` (the wire backing of the remote ``batch_session``)
    matches the in-process session's decomposition, shares the LRU, and maps
    an over-budget fault set to the structured error."""
    graph, _ = world

    async def scenario():
        server = await _start(oracle)
        client = await AsyncQueryClient.connect(server.host, server.port)
        (faults, _, _), = workload(graph, num_sets=1, num_pairs=2, seed=21)
        info = await client.session_info(faults)
        local = oracle.batch_session(faults)
        assert info["num_components"] == local.num_components()
        assert info["num_fragments"] == local.num_fragments()
        # The op ensured the shared session: a second ask is a cache hit.
        before = server.metrics.snapshot()["sessions"]
        await client.session_info(faults)
        after = server.metrics.snapshot()["sessions"]
        assert after["hits"] == before["hits"] + 1
        over_budget = sorted(graph.edges())[:MAX_FAULTS + 1]
        with pytest.raises(ServerError) as caught:
            await client.session_info(over_budget)
        assert caught.value.code == protocol.E_OVER_BUDGET
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_corrupt_label_payload_reports_decode_error(world):
    """A lazily decoded corrupt label blob must surface as ``label-decode-
    failed`` — not ``over-budget`` (LabelDecodeError *is* a ValueError, so
    the dispatch order matters)."""
    from repro.core.snapshot import FTCSnapshot

    _, data = world
    lazy = FTCSnapshot.from_bytes(data, decode_labels=False)
    vertex = next(iter(lazy.vertex_labels))
    blob = lazy.vertex_labels[vertex]
    lazy.vertex_labels[vertex] = blob[:-1] + b"\x80"  # same length, truncated varint
    poisoned = load_snapshot(lazy.to_bytes())
    other = next(v for v in poisoned.vertices() if v != vertex)

    async def scenario():
        server = await _start(poisoned)
        client = await AsyncQueryClient.connect(server.host, server.port)
        with pytest.raises(ServerError) as caught:
            await client.connected(vertex, other)
        assert caught.value.code == protocol.E_DECODE
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_ping_and_stats_ops(oracle):
    async def scenario():
        server = await _start(oracle)
        client = await AsyncQueryClient.connect(server.host, server.port)
        pong = await client.ping()
        assert pong == {"pong": True, "protocol": protocol.PROTOCOL_VERSION}
        stats = await client.stats()
        assert stats["oracle"]["max_faults"] == MAX_FAULTS
        assert stats["oracle"]["vertices"] == oracle.num_vertices()
        assert stats["server"]["requests_by_op"]["ping"] == 1
        assert stats["server"]["session_cache"]["size"] == 0
        await client.close()
        await server.close()

    asyncio.run(scenario())


# --------------------------------------------------------- session sharing

def test_concurrent_clients_share_one_session(world, oracle):
    """A thundering herd on one fault set builds exactly one session."""
    graph, _ = world
    (faults, pairs, truth), = workload(graph, num_sets=1, num_pairs=10)
    num_clients = 8

    async def scenario():
        server = await _start(oracle)
        clients = [await AsyncQueryClient.connect(server.host, server.port)
                   for _ in range(num_clients)]
        results = await asyncio.gather(
            *[client.connected_many(pairs, faults) for client in clients])
        assert all(result == truth for result in results)
        sessions = server.metrics.snapshot()["sessions"]
        # One construction; everyone else reused it (cache hit before the
        # build started, coalesced onto the in-flight build after).
        assert sessions["misses"] == 1
        assert sessions["hits"] + sessions["coalesced"] == num_clients - 1
        assert sessions["hit_rate"] == pytest.approx((num_clients - 1) / num_clients)
        assert oracle.session_cache_info()["size"] == 1
        for client in clients:
            await client.close()
        await server.close()

    asyncio.run(scenario())


def test_distinct_fault_sets_get_distinct_sessions(world, oracle):
    graph, _ = world
    batches = workload(graph, num_sets=3, num_pairs=6, seed=5)

    async def scenario():
        server = await _start(oracle)
        client = await AsyncQueryClient.connect(server.host, server.port)
        for faults, pairs, truth in batches:
            assert (await client.connected_many(pairs, faults)) == truth
        sessions = server.metrics.snapshot()["sessions"]
        distinct = len({tuple(sorted(map(tuple, faults)))
                        for faults, _, _ in batches})
        assert sessions["misses"] == distinct
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_session_eviction_under_max_sessions_pressure(world, oracle):
    """Satellite: with --max-sessions pressure, evicted sessions rebuild
    correctly and the metrics report the eviction count."""
    graph, _ = world
    batches = workload(graph, num_sets=4, num_pairs=8, seed=11)

    async def scenario():
        server = await _start(oracle, max_sessions=2)
        assert oracle.SESSION_CACHE_SIZE == 2
        client = await AsyncQueryClient.connect(server.host, server.port)
        for faults, pairs, truth in batches:  # 4 distinct sets through 2 slots
            assert (await client.connected_many(pairs, faults)) == truth
        info = oracle.session_cache_info()
        assert info["size"] <= 2
        assert info["evictions"] >= 2
        stats = (await client.stats())["server"]
        assert stats["session_cache"]["evictions"] == info["evictions"]
        assert stats["sessions"]["misses"] == len(batches)
        # The evicted first fault set rebuilds and still answers correctly.
        faults, pairs, truth = batches[0]
        assert (await client.connected_many(pairs, faults)) == truth
        assert (await client.stats())["server"]["sessions"]["misses"] == len(batches) + 1
        await client.close()
        await server.close()

    asyncio.run(scenario())


# -------------------------------------------------------- adversarial input

def _recv_json(reader):
    async def inner():
        return json.loads(await reader.readline())
    return inner()


def test_malformed_lines_get_structured_errors_and_connection_survives(oracle):
    probes = [
        (b"total garbage\n", protocol.E_MALFORMED),
        (b"\xc3\x28 invalid utf8\n", protocol.E_MALFORMED),
        (b"[1,2,3]\n", protocol.E_BAD_REQUEST),
        (b'{"op": "launch-missiles"}\n', protocol.E_UNKNOWN_OP),
        (b'{"op": "connected"}\n', protocol.E_BAD_REQUEST),
        (b'{"op": "connected", "s": 1.5, "t": 2, "faults": []}\n', protocol.E_BAD_REQUEST),
        (b'{"op": "connected", "s": true, "t": 2}\n', protocol.E_BAD_REQUEST),
        (b'{"op": "connected_many", "pairs": []}\n', protocol.E_BAD_REQUEST),
        (b'{"op": "connected_many", "pairs": [[1]]}\n', protocol.E_BAD_REQUEST),
        (b'{"op": "connected_many", "pairs": 7}\n', protocol.E_BAD_REQUEST),
        (b'{"op": "connected", "s": "no-such-vertex", "t": "also-missing"}\n',
         protocol.E_UNKNOWN_VERTEX),
        (b'{"op": "connected", "s": 0, "t": 1, "faults": [["x", "y"]]}\n',
         protocol.E_UNKNOWN_EDGE),
        (b'{"op": "connected", "s": 0, "t": 1, "faults": [[2, 2]]}\n',
         protocol.E_BAD_REQUEST),  # self-loop fault, not an over-budget error
    ]

    async def scenario():
        server = await _start(oracle)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        for line, code in probes:
            writer.write(line)
            await writer.drain()
            response = await _recv_json(reader)
            assert response["ok"] is False, line
            assert response["error"]["code"] == code, line
        # The connection handler survived every probe.
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        response = await _recv_json(reader)
        assert response["ok"] is True
        writer.close()
        await server.close()

    asyncio.run(scenario())


def test_over_budget_fault_set_is_structured_error(world, oracle):
    graph, _ = world
    edges = sorted(graph.edges())[:MAX_FAULTS + 2]  # distinct tree/non-tree mix

    async def scenario():
        server = await _start(oracle)
        client = await AsyncQueryClient.connect(server.host, server.port)
        vertices = sorted(graph.vertices())
        with pytest.raises(ServerError) as info:
            await client.connected_many([(vertices[0], vertices[1])], edges)
        assert info.value.code == protocol.E_OVER_BUDGET
        # Connection still serves afterwards.
        assert (await client.ping())["pong"] is True
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_oversized_line_is_drained_and_reported(oracle):
    async def scenario():
        server = await _start(oracle, max_request_bytes=4096)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        # One huge (valid-JSON!) line plus a pipelined ping in the same write.
        huge = b'{"op": "ping", "pad": "' + b"x" * 10000 + b'"}\n'
        writer.write(huge + b'{"op": "ping"}\n')
        await writer.drain()
        response = await _recv_json(reader)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.E_OVERSIZED
        # The pipelined request after the oversized line still got served.
        response = await _recv_json(reader)
        assert response["ok"] is True
        writer.close()
        await server.close()

    asyncio.run(scenario())


def test_unknown_op_names_do_not_pollute_metrics(oracle):
    """Attacker-chosen op strings must not become metrics counter keys."""

    async def scenario():
        server = await _start(oracle)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        for index in range(20):
            writer.write(b'{"op": "bogus-%d"}\n' % index)
            await writer.drain()
            assert (await _recv_json(reader))["ok"] is False
        by_op = server.metrics.snapshot()["requests_by_op"]
        assert set(by_op) == {"invalid"}
        assert by_op["invalid"] == 20
        writer.close()
        await server.close()

    asyncio.run(scenario())


def test_async_client_handles_large_responses(world, oracle):
    """A connected_many answer far past asyncio's 64 KiB default stream limit
    must round-trip (regression: the client passes an explicit limit)."""
    graph, _ = world
    (faults, _, _), = workload(graph, num_sets=1, num_pairs=1)
    vertices = sorted(graph.vertices())
    rng = random.Random(2)
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(15000)]

    async def scenario():
        server = await _start(oracle)
        client = await AsyncQueryClient.connect(server.host, server.port)
        answers = await client.connected_many(pairs, faults)
        assert answers == oracle.connected_many(pairs, faults)
        await client.close()
        await server.close()

    asyncio.run(scenario())


def test_wire_fuzz_random_bytes_never_kill_the_handler(oracle):
    rng = random.Random(1234)

    async def scenario():
        server = await _start(oracle, max_request_bytes=4096)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        for _ in range(60):
            blob = bytes(rng.randrange(1, 256) for _ in range(rng.randrange(1, 80)))
            writer.write(blob.replace(b"\n", b" ") + b"\n")
            await writer.drain()
            response = await _recv_json(reader)
            assert response["ok"] is False
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        assert (await _recv_json(reader))["ok"] is True
        writer.close()
        await server.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------- shutdown

def test_clean_shutdown_drops_clients_and_stops_accepting(world, oracle):
    graph, _ = world
    (faults, pairs, truth), = workload(graph, num_sets=1, num_pairs=5)

    async def scenario():
        server = await _start(oracle)
        host, port = server.host, server.port
        client = await AsyncQueryClient.connect(host, port)
        assert (await client.connected_many(pairs, faults)) == truth
        await server.close()
        # The open connection is gone: the next request fails.
        with pytest.raises((ConnectionError, ServerError, Exception)):
            await asyncio.wait_for(client.ping(), timeout=5)
        # And nobody is listening anymore.
        with pytest.raises(OSError):
            await asyncio.wait_for(asyncio.open_connection(host, port), timeout=5)
        await client.close()

    asyncio.run(scenario())


# -------------------------------------------------- blocking client/harness

def test_blocking_client_and_background_server(world, oracle):
    """The synchronous surface: BackgroundServer + QueryClient, many threads."""
    graph, data = world
    reference = load_snapshot(data)
    batches = workload(graph, num_sets=2, num_pairs=8, seed=3)
    errors = []

    def hammer(batch_index):
        faults, pairs, truth = batches[batch_index % len(batches)]
        try:
            with QueryClient(server.host, server.port) as client:
                for _ in range(5):
                    assert client.connected_many(pairs, faults) == truth
        except Exception as error:  # pragma: no cover - only on regression
            errors.append(error)

    with BackgroundServer(oracle, max_sessions=8) as server:
        with QueryClient(server.host, server.port) as client:
            assert client.ping()["pong"] is True
            faults, pairs, truth = batches[0]
            assert client.connected_many(pairs, faults) == \
                reference.connected_many(pairs, faults) == truth
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        sessions = server.metrics.snapshot()["sessions"]
        assert sessions["misses"] == len(batches)
        assert sessions["hit_rate"] > 0.5
    # After shutdown the port no longer accepts.
    with pytest.raises(OSError):
        QueryClient(server.host, server.port, timeout=2)


# -------------------------------------------------------- session manager

def test_session_manager_rejects_bad_max_sessions(oracle):
    with pytest.raises(ValueError):
        SessionManager(oracle, max_sessions=0)


def test_session_manager_single_flight_counts(world, oracle):
    """Direct (serverless) check of the single-flight dedup."""
    graph, _ = world
    (faults, pairs, truth), = workload(graph, num_sets=1, num_pairs=4, seed=8)

    async def scenario():
        manager = SessionManager(oracle, max_sessions=4)
        try:
            results = await asyncio.gather(
                *[manager.connected_many(pairs, faults) for _ in range(6)])
            assert all(result == truth for result in results)
            stats = manager.stats()
            assert stats["sessions"]["misses"] == 1
            assert stats["sessions"]["hits"] + stats["sessions"]["coalesced"] == 5
            assert stats["inflight_builds"] == 0
            session = await manager.session(faults)
            assert session is oracle.batch_session(faults)
        finally:
            manager.close()

    asyncio.run(scenario())


def test_failed_build_reaches_every_waiter(world, oracle, monkeypatch):
    """A build that raises fails its builder and every request waiting on
    it, leaves nothing cached or in flight, and the next request builds
    again."""
    graph, _ = world
    (faults, pairs, truth), = workload(graph, num_sets=1, num_pairs=4, seed=12)
    attempts = []
    original = BatchQuerySession.__init__

    def failing(self, *args, **kwargs):
        attempts.append(1)
        time.sleep(0.2)  # every waiter arrives while the build is in flight
        raise QueryFailure("injected decode failure")

    monkeypatch.setattr(BatchQuerySession, "__init__", failing)

    async def scenario():
        manager = SessionManager(oracle)
        try:
            results = await asyncio.gather(
                *[manager.session(faults) for _ in range(4)],
                return_exceptions=True)
            assert all(isinstance(result, QueryFailure) for result in results)
            assert len(attempts) == 1
            stats = manager.stats()
            assert stats["inflight_builds"] == 0
            assert stats["sessions"]["misses"] == 1
            assert stats["sessions"]["failures"] == 1
            assert stats["session_cache"]["size"] == 0
            monkeypatch.setattr(BatchQuerySession, "__init__", original)
            session = await manager.session(faults)
            assert session is oracle.batch_session(faults)
            assert manager.stats()["sessions"]["misses"] == 2
            assert await manager.connected_many(pairs, faults) == truth
        finally:
            manager.close()

    asyncio.run(scenario())


def test_prewarm_fails_soft_set_by_set(world, oracle):
    """A stale set (an edge the oracle lacks) stays cold and the valid sets
    are still built; pre-warm leaves hot keys and request metrics alone."""
    graph, _ = world
    valid = [faults for faults, _, _ in workload(graph, num_sets=3,
                                                 num_pairs=1, seed=13)]
    stale = [valid[0][0], (0, 999)]

    async def scenario():
        manager = SessionManager(oracle)
        try:
            warmed = await manager.prewarm_sessions(
                [valid[0], stale, valid[1], valid[2], valid[1]])
            return warmed, manager.stats()
        finally:
            manager.close()

    warmed, stats = asyncio.run(scenario())
    assert warmed == 3
    assert stats["session_cache"]["size"] == 3
    assert stats["sessions"]["hits"] == stats["sessions"]["misses"] == 0
    assert stats["session_hot_keys_tracked"] == 0


def test_query_side_never_resolves_the_build_executor(world, oracle,
                                                      monkeypatch, tmp_path,
                                                      capsys):
    """``REPRO_BUILD_EXECUTOR`` is a build-side setting: pre-warm, re-warm
    and ``build_sessions()`` ignore it, so ``batch-query --faults-file``
    reports the session jobs that ran."""
    from repro.api import Oracle
    from repro.cli import load_edge_list, main

    graph, data = world
    fault_sets = [faults for faults, _, _ in workload(graph, num_sets=4,
                                                      num_pairs=1, seed=14)]
    edges = tmp_path / "ring.txt"
    edges.write_text("a b\nb c\nc d\nd a\nb d\n")
    snapshot = tmp_path / "ring.ftcs"
    Oracle.build(load_edge_list(edges), max_faults=2).save(str(snapshot))
    faults_file = tmp_path / "faults.txt"
    faults_file.write_text("b-c c-d\na-b\n")
    resolved = []
    resolve = executors.resolve_executor
    monkeypatch.setenv(executors.EXECUTOR_ENV_VAR, "thread:2")
    monkeypatch.setattr(executors, "resolve_executor",
                        lambda *args, **kwargs: resolved.append(args) or
                        resolve(*args, **kwargs))

    async def scenario():
        server = await _start(oracle)
        try:
            assert await server.sessions.prewarm_sessions(fault_sets[:2]) == 2
            await server.sessions.connected_many([(0, 1)], fault_sets[2])
            assert await server.rewarm_hot_sessions() == 1
        finally:
            await server.close()

    asyncio.run(scenario())
    assert len(load_snapshot(data).build_sessions(fault_sets)) == 4
    assert main(["batch-query", "--snapshot", str(snapshot), "--faults-file",
                 str(faults_file), "--pair", "a-c"]) == 0
    assert json.loads(capsys.readouterr().out)["session_jobs"] == 1
    assert resolved == []


def test_session_hot_key_accounting(world, oracle):
    """Per-fault-set traffic shows up as a ranked session_hot_keys family."""
    graph, _ = world
    sets = workload(graph, num_sets=3, num_pairs=2, seed=9)

    async def scenario():
        manager = SessionManager(oracle, max_sessions=4)
        try:
            # Skew the traffic: set 0 gets 5 lookups, set 1 gets 2, set 2 gets 1.
            for (faults, pairs, _), repeats in zip(sets, (5, 2, 1)):
                for _ in range(repeats):
                    await manager.connected_many(pairs, faults)
            hot = manager.stats()["session_hot_keys_by_key"]
            assert list(hot.values()) == sorted(hot.values(), reverse=True)
            assert max(hot.values()) == 5 and sum(hot.values()) == 8
            hottest = next(iter(hot))
            rendered = sorted({"%s-%s" % edge for edge in sets[0][0]})
            assert hottest == ",".join(rendered)
            # Permutations and duplicate restatements share one hot key.
            await manager.connected_many(sets[0][1],
                                         list(reversed(sets[0][0])) + sets[0][0][:1])
            assert manager.stats()["session_hot_keys_by_key"][hottest] == 6
            assert manager.stats()["session_hot_keys_tracked"] == 3
        finally:
            manager.close()

    asyncio.run(scenario())


def test_hot_keys_render_in_prometheus_exposition(world, oracle):
    """The server's stats reach to_prometheus() as one labeled family."""
    graph, _ = world
    (faults, pairs, _), = workload(graph, num_sets=1, num_pairs=2, seed=10)

    async def scenario():
        server = await _start(oracle)
        client = await AsyncQueryClient.connect(server.host, server.port)
        for _ in range(3):
            await client.connected_many(pairs, faults)
        stats = await client.stats()
        await client.close()
        await server.close()
        return stats

    stats = asyncio.run(scenario())
    assert stats["server"]["session_hot_keys_by_key"], stats["server"]
    from repro.api import OracleStats

    text = OracleStats(
        transport="tcp", max_faults=MAX_FAULTS,
        extra={"server": stats["server"]}).to_prometheus()
    rendered = sorted({"%s-%s" % edge for edge in faults})
    assert 'repro_server_session_hot_keys{key="%s"} 3' % ",".join(rendered) in text


def test_hot_key_table_is_bounded(oracle):
    """Novel keys stop being admitted once the tracking table is full."""
    manager = SessionManager(oracle, max_sessions=4)
    try:
        manager.HOT_KEY_TRACK_LIMIT = 2
        manager._record_hot_key(("a",), [("u", "v")])
        manager._record_hot_key(("b",), [("w", "x")])
        manager._record_hot_key(("c",), [("y", "z")])  # not admitted
        manager._record_hot_key(("a",), [("u", "v")])  # still counted
        assert manager.hot_keys() == {"u-v": 2, "w-x": 1}
    finally:
        manager.close()


def test_hot_key_name_collisions_get_stable_suffixes(oracle):
    """A Prometheus series must never switch fault sets when ranks change."""
    manager = SessionManager(oracle, max_sessions=4)
    try:
        manager._hot_keys[("a",)] = 3
        manager._hot_key_names[("a",)] = "r"
        manager._hot_keys[("b",)] = 5
        manager._hot_key_names[("b",)] = "r"
        first = manager.hot_keys()
        assert set(first.values()) == {3, 5}
        assert all(name.startswith("r#") for name in first)
        name_of_a = next(name for name, count in first.items() if count == 3)
        manager._hot_keys[("a",)] = 9  # ranks swap; names must not
        second = manager.hot_keys()
        assert set(second) == set(first)
        assert second[name_of_a] == 9
    finally:
        manager.close()


def test_hot_key_and_metrics_counters_survive_thread_hammer(oracle):
    """The RPL004-registered state keeps exact counts under thread pressure.

    Every mutation of ``SessionManager._hot_keys`` / ``_hot_key_names`` and of
    the ``ServerMetrics`` counters is lock-guarded (the invariant linter's
    lock-discipline rule checks this lexically); this test checks it
    dynamically — with GIL-release pressure from many threads, totals must
    come out exact, not merely close.
    """
    from repro.server.metrics import ServerMetrics

    manager = SessionManager(oracle, max_sessions=4)
    metrics = ServerMetrics()
    rounds, workers = 200, 8
    keys = [(("k", worker % 3),) for worker in range(workers)]
    stats_snapshots = []

    def hammer(worker):
        key = keys[worker]
        for _ in range(rounds):
            manager._record_hot_key(key, [("u", str(worker % 3))])
            metrics.record_request("connected_many", 0.0)
            metrics.record_session_hit()
            metrics.add_queries(2)
        # Interleave reads: stats() takes the same locks the writers hold.
        stats_snapshots.append(manager.stats()["session_hot_keys_tracked"])
        stats_snapshots.append(metrics.snapshot()["requests_total"])

    try:
        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        hot = manager.hot_keys()
        assert sum(hot.values()) == rounds * workers
        assert manager.stats()["session_hot_keys_tracked"] == 3
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == rounds * workers
        assert snapshot["sessions"]["hits"] == rounds * workers
        assert snapshot["queries_answered"] == 2 * rounds * workers
        assert len(stats_snapshots) == 2 * workers
    finally:
        manager.close()


# ----------------------------------------------------------- observability

def test_connection_close_accounting_never_goes_negative():
    """Regression: a double close (idempotent client teardown racing the
    server's own cleanup) must clamp ``connections_active`` at zero."""
    from repro.server.metrics import ServerMetrics

    metrics = ServerMetrics()
    metrics.connection_opened()
    metrics.connection_closed()
    metrics.connection_closed()  # the spurious second close
    assert metrics.snapshot()["connections_active"] == 0
    metrics.connection_opened()
    assert metrics.snapshot()["connections_active"] == 1


def test_stats_report_latency_quantiles(world, oracle):
    """Every op's latency entry carries ordered histogram quantiles."""
    graph, _ = world
    (faults, pairs, _), = workload(graph, num_sets=1, num_pairs=5, seed=31)

    async def scenario():
        server = await _start(oracle)
        client = await AsyncQueryClient.connect(server.host, server.port)
        for _ in range(5):
            await client.connected_many(pairs, faults)
        stats = await client.stats()
        await client.close()
        await server.close()
        return stats

    stats = asyncio.run(scenario())
    entry = stats["server"]["latency_by_op"]["connected_many"]
    assert entry["count"] == 5
    assert 0.0 <= entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
    # Quantiles are interpolated within log-spaced buckets: bounded above by
    # the exact maximum padded by one bucket factor (2x), not by wishes.
    assert entry["p99_ms"] <= max(entry["max_ms"], 0.1) * 2.0
    assert entry["mean_ms"] <= entry["max_ms"]


def test_trace_id_round_trips_through_server_spans(world, oracle):
    """A client-supplied trace id is echoed in the envelope and stamps the
    server's dispatch *and* session-build spans (contextvar propagation)."""
    graph, _ = world
    (faults, pairs, _), = workload(graph, num_sets=1, num_pairs=3, seed=41)
    from repro.obs import Tracer

    events = []
    tracer = Tracer(service="repro.server", sink=events.append)

    async def scenario():
        server = await _start(oracle, tracer=tracer)
        client = await AsyncQueryClient.connect(server.host, server.port,
                                                trace_id="trace-under-test")
        answers = await client.connected_many(pairs, faults)
        assert client.last_trace == "trace-under-test"
        await client.close()
        await server.close()
        return answers

    asyncio.run(scenario())
    spans = {event["name"]: event for event in events}
    assert spans["server.connected_many"]["trace_id"] == "trace-under-test"
    assert spans["session.build"]["trace_id"] == "trace-under-test"
    # The build span is a child within the same trace, not a new root.
    assert spans["session.build"]["parent_id"] == \
        spans["server.connected_many"]["span_id"]


def test_untraced_envelopes_carry_no_trace_key(oracle):
    """No trace in, no trace out: untagged clients see byte-identical
    envelopes to the pre-tracing protocol."""

    async def scenario():
        server = await _start(oracle)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(b'{"op": "ping", "id": 1}\n')
        await writer.drain()
        plain = await reader.readline()
        writer.write(b'{"op": "ping", "id": 1, "trace": "abc"}\n')
        await writer.drain()
        traced = await reader.readline()
        writer.close()
        await writer.wait_closed()
        await server.close()
        return plain, traced

    plain, traced = asyncio.run(scenario())
    assert b"trace" not in plain
    assert json.loads(traced)["trace"] == "abc"
    # Everything else in the envelope is unchanged by the tag.
    assert {k: v for k, v in json.loads(traced).items() if k != "trace"} == \
        json.loads(plain)


def test_invalid_trace_field_is_bad_request(oracle):
    async def scenario():
        server = await _start(oracle)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        for bad in (b'{"op": "ping", "trace": 7}',
                    b'{"op": "ping", "trace": ""}',
                    b'{"op": "ping", "trace": "%s"}' % (b"x" * 129)):
            writer.write(bad + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.E_BAD_REQUEST
        writer.close()
        await writer.wait_closed()
        await server.close()

    asyncio.run(scenario())


def test_answers_bit_identical_with_tracing_on_and_off(world, oracle):
    """The acceptance bar: tracing must never perturb query answers."""
    from repro.obs import Tracer

    graph, _ = world
    scenarios = workload(graph, num_sets=3, num_pairs=10, seed=51)

    async def run_with(tracer):
        server = await _start(oracle, tracer=tracer)
        client = await AsyncQueryClient.connect(server.host, server.port,
                                                trace_id="bit-identity")
        answers = [await client.connected_many(pairs, faults)
                   for faults, pairs, _ in scenarios]
        await client.close()
        await server.close()
        return answers

    traced = asyncio.run(run_with(Tracer(sink=lambda event: None)))
    untraced = asyncio.run(run_with(Tracer(enabled=False)))
    truth = [t for _, _, t in scenarios]
    assert traced == untraced == truth


async def _http_get(host, port, target):
    """One raw HTTP/1.1 GET against the metrics sidecar."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(("GET %s HTTP/1.1\r\nHost: x\r\n\r\n" % target).encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, _, header_block = head.partition(b"\r\n")
    status = int(status_line.split()[1])
    headers = {}
    for line in header_block.split(b"\r\n"):
        key, _, value = line.partition(b":")
        headers[key.decode().lower()] = value.decode().strip()
    return status, headers, body


def test_metrics_sidecar_serves_prometheus_and_health(world, oracle):
    """``--metrics-port``: /metrics exposes the registry's histogram
    families plus the flattened stats tree; /healthz reports readiness."""
    graph, _ = world
    (faults, pairs, _), = workload(graph, num_sets=1, num_pairs=3, seed=61)

    async def scenario():
        server = await _start(oracle, metrics_port=0)
        assert server.metrics_port is not None
        client = await AsyncQueryClient.connect(server.host, server.port)
        await client.connected_many(pairs, faults)
        await client.ping()
        status, headers, body = await _http_get(
            server.metrics_host, server.metrics_port, "/metrics")
        health = await _http_get(server.metrics_host, server.metrics_port,
                                 "/healthz")
        missing = await _http_get(server.metrics_host, server.metrics_port,
                                  "/nope")
        await client.close()
        await server.close()
        return status, headers, body.decode(), health, missing

    status, headers, text, health, missing = asyncio.run(scenario())
    assert status == 200
    assert headers["content-type"].startswith("text/plain; version=0.0.4")
    lines = text.splitlines()
    assert "# TYPE repro_server_request_seconds histogram" in lines
    assert any(line.startswith('repro_server_request_seconds_bucket'
                               '{op="connected_many",le="') for line in lines)
    assert 'repro_server_request_seconds_count{op="connected_many"} 1' in lines
    assert 'repro_server_requests_total{op="ping"} 1' in lines
    # Numbers the registry does not own ride along as flattened gauges.
    assert any(line.startswith("repro_server_session_hot_keys{key=")
               for line in lines)
    assert "# TYPE repro_oracle_max_faults gauge" in lines
    # Families are disjoint: one # TYPE per family name.
    families = [line.split()[2] for line in lines if line.startswith("# TYPE")]
    assert len(families) == len(set(families))

    health_status, _, health_body = health
    assert health_status == 200
    payload = json.loads(health_body)
    assert payload["status"] == "ok"
    assert payload["oracle"]["max_faults"] == MAX_FAULTS
    assert missing[0] == 404


def test_metrics_sidecar_rejects_non_get(oracle):
    async def scenario():
        server = await _start(oracle, metrics_port=0)
        reader, writer = await asyncio.open_connection(
            server.metrics_host, server.metrics_port)
        writer.write(b"POST /metrics HTTP/1.1\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        await server.close()
        return raw

    raw = asyncio.run(scenario())
    assert raw.startswith(b"HTTP/1.1 405 ")


def test_healthz_degrades_to_503_after_close(oracle):
    """A server that stopped listening reports unavailable, not a hang."""

    async def scenario():
        server = await _start(oracle, metrics_port=0)
        ready, payload = server.health()
        assert ready and payload["status"] == "ok"
        await server.close()
        ready, payload = server.health()
        assert not ready and payload["status"] == "unavailable"

    asyncio.run(scenario())
