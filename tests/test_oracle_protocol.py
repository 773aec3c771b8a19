"""Conformance suite for the oracle protocol (:mod:`repro.api`).

One contract, three transports: the same query/fault/stats scenarios run
against a freshly built oracle ("build"), a snapshot-rehydrated oracle
("snapshot"), and a remote oracle speaking to a live server ("tcp"), and the
answers must be **bit-identical** across all three — plus equal to BFS
ground truth, since the scheme under test is deterministic.

Also covered here: the shared error contract (``KeyError`` for unknown ids,
``ValueError`` for over-budget fault sets, everything mirrored into the
:class:`~repro.errors.OracleError` hierarchy by the remote transport), the
``stats() -> OracleStats`` surface including Prometheus rendering, context
managers with idempotent ``close()``, URI-based transport selection
(:func:`~repro.api.open_oracle`), and the deprecation shim over the legacy
``max_faults``-vs-``config`` constructor parameters.
"""

import json
import random
import warnings

import pytest

from repro.api import (Oracle, OracleProtocol, OracleStats, RemoteBatchSession,
                       RemoteOracle, RemoteOracleError, TransportError,
                       open_oracle, parse_oracle_uri)
from repro.core.config import FTCConfig, SchemeVariant, resolve_ftc_config
from repro.core.oracle import FTConnectivityOracle
from repro.core.snapshot import RehydratedOracle
from repro.errors import OracleClosedError, OracleError
from repro.server import BackgroundServer
from repro.workloads import GraphFamily, make_graph

MAX_FAULTS = 3
TRANSPORTS = ("build", "snapshot", "tcp")


@pytest.fixture(scope="module")
def world():
    """One graph served through all three transports (construction is slow)."""
    graph = make_graph(GraphFamily.ERDOS_RENYI, n=28, seed=11)
    built = Oracle.build(graph, max_faults=MAX_FAULTS)
    data = built.to_snapshot_bytes()
    server = BackgroundServer(Oracle.load(data), max_sessions=8).start()
    remote = Oracle.connect(server.host, server.port)
    oracles = {"build": built, "snapshot": Oracle.load(data), "tcp": remote}
    try:
        yield graph, oracles, server
    finally:
        remote.close()
        server.stop()


def scenarios(graph, seed=5):
    """The shared scenario set: ``(faults, pairs)`` with growing fault sets,
    duplicate restatements, and permutations."""
    rng = random.Random(seed)
    edges = sorted(graph.edges())
    vertices = sorted(graph.vertices())

    def pairs(count):
        return [tuple(rng.sample(vertices, 2)) for _ in range(count)]

    out = [([], pairs(6))]
    for size in (1, 2, MAX_FAULTS):
        faults = rng.sample(edges, size)
        out.append((faults, pairs(8)))
    # The same fault restated twice must count once against the budget.
    base = rng.sample(edges, MAX_FAULTS)
    out.append((base + [base[0]], pairs(6)))
    out.append((list(reversed(base)), pairs(6)))
    return out


# ------------------------------------------------------------- conformance

def test_all_transports_satisfy_the_protocol(world):
    _, oracles, _ = world
    for name in TRANSPORTS:
        oracle = oracles[name]
        assert isinstance(oracle, OracleProtocol), name
        assert oracle.transport == name
        assert oracle.max_faults == MAX_FAULTS


def test_bit_identical_answers_across_transports(world):
    """The acceptance criterion: one scenario set, three transports, equal
    answers everywhere (and equal to BFS ground truth)."""
    graph, oracles, _ = world
    for faults, pairs in scenarios(graph):
        truth = [graph.connected(s, t, removed=faults) for s, t in pairs]
        answers = {name: oracles[name].connected_many(pairs, faults)
                   for name in TRANSPORTS}
        assert answers["build"] == answers["snapshot"] == answers["tcp"] == truth, \
            (faults, pairs)


def test_single_query_parity(world):
    graph, oracles, _ = world
    faults = sorted(graph.edges())[:2]
    vertices = sorted(graph.vertices())
    for s, t in [(vertices[0], vertices[-1]), (vertices[3], vertices[7])]:
        answers = {oracles[name].connected(s, t, faults) for name in TRANSPORTS}
        assert len(answers) == 1


def test_batch_session_structure_parity(world):
    """``batch_session`` pins a fault set on every transport and reports the
    same decomposition structure."""
    graph, oracles, _ = world
    faults = sorted(graph.edges())[:MAX_FAULTS]
    sessions = {name: oracles[name].batch_session(faults) for name in TRANSPORTS}
    components = {name: sessions[name].num_components() for name in TRANSPORTS}
    fragments = {name: sessions[name].num_fragments() for name in TRANSPORTS}
    assert len(set(components.values())) == 1, components
    assert len(set(fragments.values())) == 1, fragments
    assert isinstance(sessions["tcp"], RemoteBatchSession)
    # The remote session's pinned queries agree with the oracle surface.
    vertices = sorted(graph.vertices())
    pairs = [(vertices[0], vertices[5]), (vertices[2], vertices[9])]
    assert sessions["tcp"].connected_many(pairs) == \
        oracles["build"].connected_many(pairs, faults)


# ------------------------------------------------------------ error contract

@pytest.mark.parametrize("transport", TRANSPORTS)
def test_unknown_vertex_raises_keyerror(world, transport):
    _, oracles, _ = world
    with pytest.raises(KeyError):
        oracles[transport].connected_many([("no-such-vertex", "nope")], [])


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_over_budget_raises_valueerror(world, transport):
    graph, oracles, _ = world
    faults = sorted(graph.edges())[:MAX_FAULTS + 1]
    vertices = sorted(graph.vertices())
    with pytest.raises(ValueError):
        oracles[transport].connected_many([(vertices[0], vertices[1])], faults)


def test_remote_errors_join_the_shared_hierarchy(world):
    """The remote transport's mapped errors are OracleErrors carrying the
    wire code *and* instances of the local exception type."""
    graph, oracles, _ = world
    vertices = sorted(graph.vertices())
    with pytest.raises(KeyError) as caught:
        oracles["tcp"].connected(vertices[0], "no-such-vertex")
    assert isinstance(caught.value, OracleError)
    assert isinstance(caught.value, RemoteOracleError)
    assert caught.value.code == "unknown-vertex"
    faults = sorted(graph.edges())[:MAX_FAULTS + 1]
    with pytest.raises(ValueError) as caught:
        oracles["tcp"].connected_many([(vertices[0], vertices[1])], faults)
    assert isinstance(caught.value, OracleError)
    assert caught.value.code == "over-budget"


# ------------------------------------------------------------------- stats

def test_stats_are_normalized_across_transports(world):
    graph, oracles, _ = world
    for name in TRANSPORTS:
        stats = oracles[name].stats()
        assert isinstance(stats, OracleStats)
        assert stats.transport == name
        assert stats.max_faults == MAX_FAULTS
        assert stats.vertices == graph.num_vertices()
        assert stats.edges == graph.num_edges()
        payload = stats.to_dict()
        json.dumps(payload)  # must be JSON-ready as-is
        assert payload["transport"] == name


def test_stats_prometheus_rendering(world):
    _, oracles, _ = world
    for name in TRANSPORTS:
        text = oracles[name].stats().to_prometheus()
        assert "repro_oracle_max_faults %d" % MAX_FAULTS in text
        assert 'repro_oracle_info{transport="%s"' % name in text
        assert text.endswith("\n")
    # The tcp transport carries the server's full metrics as labeled families.
    remote_text = oracles["tcp"].stats().to_prometheus()
    assert "repro_server_requests_total" in remote_text
    assert 'repro_server_requests{op="' in remote_text
    assert "repro_server_sessions_hit_rate" in remote_text


def test_prometheus_label_escaping_and_by_label_flattening():
    stats = OracleStats(
        transport="tcp", max_faults=2,
        extra={"server": {
            "requests_by_op": {"connected_many": 3, "stats": 1},
            "errors_by_code": {'quote"code': 2},
            "latency_by_op": {"ping": {"count": 1, "mean_ms": 0.5}},
        }})
    text = stats.to_prometheus()
    assert 'repro_server_requests{op="connected_many"} 3' in text
    assert 'repro_server_errors{code="quote\\"code"} 2' in text
    assert 'repro_server_latency_count{op="ping"} 1' in text
    assert 'repro_server_latency_mean_ms{op="ping"} 0.5' in text


# ------------------------------------------------- lifecycle / context use

def _tiny_graph():
    return make_graph(GraphFamily.TREE_PLUS_CHORDS, n=10, seed=3, density=1.4)


def test_local_transports_are_context_managers():
    graph = _tiny_graph()
    vertices = sorted(graph.vertices())
    with Oracle.build(graph, max_faults=2) as built:
        assert isinstance(built, FTConnectivityOracle)
        built.connected(vertices[0], vertices[-1])
        data = built.to_snapshot_bytes()
    built.close()  # idempotent
    with Oracle.load(data) as rehydrated:
        assert isinstance(rehydrated, RehydratedOracle)
        rehydrated.connected(vertices[0], vertices[-1])
    rehydrated.close()  # idempotent
    # close() released the label buffers (snapshot oracles may be mmap-backed);
    # the cache is empty and further queries fail loudly instead of answering
    # from freed state.
    assert rehydrated.session_cache_info()["size"] == 0
    with pytest.raises(TransportError):
        rehydrated.connected(vertices[0], vertices[-1])
    with pytest.raises(OracleClosedError):
        rehydrated.connected_many([(vertices[0], vertices[-1])], [])


def test_remote_transport_close_is_idempotent(world):
    _, _, server = world
    remote = Oracle.connect(server.host, server.port)
    with remote:
        assert remote.ping()["pong"] is True
    remote.close()  # second close must not raise
    with pytest.raises(TransportError):
        remote.ping()
    # max_faults was primed at connect time, so a type check on the closed
    # oracle is still a pure attribute read — no I/O, no TransportError
    # (runtime_checkable isinstance probes properties on Python < 3.12).
    assert remote.max_faults == MAX_FAULTS
    assert isinstance(remote, OracleProtocol)


def test_connect_refused_raises_transport_error():
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(TransportError):
        Oracle.connect("127.0.0.1", port)


# -------------------------------------------------------- URI selection

def test_parse_oracle_uri():
    assert parse_oracle_uri("snapshot:a/b.ftcs") == ("snapshot", "a/b.ftcs")
    assert parse_oracle_uri("tcp://h:1") == ("tcp", "h:1")
    assert parse_oracle_uri("build:edges.txt") == ("build", "edges.txt")
    assert parse_oracle_uri("plain/path.ftcs") == ("snapshot", "plain/path.ftcs")
    for path in ("a.ftcs", "dir/a.ftcs", "./x:y.ftcs"):
        assert parse_oracle_uri(path) == ("snapshot", path)
    with pytest.raises(ValueError):
        parse_oracle_uri("ftp://nope")
    with pytest.raises(ValueError):
        parse_oracle_uri("edges.txt")
    # An unknown scheme is a URI error, not a snapshot file to look for.
    for uri in ("pool:a.ftcs", "snapshop:a.ftcs"):
        with pytest.raises(ValueError, match="unsupported oracle URI"):
            parse_oracle_uri(uri)


def test_open_oracle_routes_by_uri(tmp_path, world):
    _, oracles, server = world
    snapshot_path = tmp_path / "labeling.ftcs"
    snapshot_path.write_bytes(oracles["build"].to_snapshot_bytes())
    edges_path = tmp_path / "edges.txt"
    edges_path.write_text("a b\nb c\nc a\n")

    loaded = open_oracle("snapshot:%s" % snapshot_path)
    assert isinstance(loaded, RehydratedOracle)
    assert isinstance(open_oracle(str(snapshot_path)), RehydratedOracle)

    built = open_oracle("build:%s" % edges_path, max_faults=1)
    assert isinstance(built, FTConnectivityOracle)
    assert built.connected("a", "c", faults=[("a", "b")]) is True

    with open_oracle("tcp://%s:%d" % (server.host, server.port)) as remote:
        assert isinstance(remote, RemoteOracle)
        assert remote.ping()["pong"] is True

    with pytest.raises(ValueError):
        open_oracle("snapshot:")
    with pytest.raises(ValueError):
        open_oracle("build:")
    with pytest.raises(ValueError):
        open_oracle("tcp://no-port")
    with pytest.raises(ValueError):
        # Construction options must never silently do nothing on snapshot URIs.
        open_oracle("snapshot:%s" % snapshot_path, jobs=2)


def test_oracle_is_a_factory_namespace():
    with pytest.raises(TypeError):
        Oracle()


def test_cli_constructs_only_through_the_facade():
    """Acceptance criterion: the CLI holds no transport-specific construction
    — enforced by the invariant linter's seam-discipline rule (RPL001), which
    understands imports and attribute references instead of grepping raw
    source, and honors no baseline here: the CLI has zero grandfathered debt."""
    import repro.cli
    from pathlib import Path

    from repro.analysis import run_analysis, rules_by_code

    cli_path = Path(repro.cli.__file__).resolve()
    root = cli_path.parents[2]  # src/repro/cli.py -> repo root
    report = run_analysis(root, rules=[rules_by_code()["RPL001"]],
                          paths=[cli_path])
    assert report.findings == [], \
        "cli.py must construct oracles only through repro.api:\n%s" % \
        "\n".join(finding.render() for finding in report.findings)


# ------------------------------------------------- config resolver / shim

def test_resolver_builds_from_loose_parameters():
    config = resolve_ftc_config(max_faults=2, variant="sketch-whp", random_seed=7)
    assert config.max_faults == 2
    assert config.variant is SchemeVariant.SKETCH_WHP
    assert config.random_seed == 7


def test_resolver_requires_one_source_of_truth():
    with pytest.raises(TypeError):
        resolve_ftc_config()
    config = FTCConfig(max_faults=2)
    assert resolve_ftc_config(config=config) is config


def test_legacy_dual_parameters_warn_and_still_work():
    graph = _tiny_graph()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        oracle = FTConnectivityOracle(graph, max_faults=2,
                                      config=FTCConfig(max_faults=2))
    assert any(issubclass(w.category, DeprecationWarning) for w in caught)
    assert oracle.max_faults == 2


def test_legacy_dual_parameter_disagreement_still_rejected():
    graph = _tiny_graph()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(ValueError):
            FTConnectivityOracle(graph, max_faults=2, config=FTCConfig(max_faults=3))
        with pytest.raises(ValueError):
            Oracle.build(graph, max_faults=2, config=FTCConfig(max_faults=3))


# ------------------------------------------------------- client lifecycle

def test_query_client_close_is_idempotent(world):
    from repro.server import QueryClient

    _, _, server = world
    client = QueryClient(server.host, server.port)
    assert client.ping()["pong"] is True
    client.close()
    client.close()  # double close must not raise
    with QueryClient(server.host, server.port) as scoped:
        assert scoped.ping()["pong"] is True
    scoped.close()  # close after __exit__ must not raise


def test_async_query_client_context_manager(world):
    import asyncio

    from repro.server import AsyncQueryClient

    _, _, server = world

    async def scenario():
        async with await AsyncQueryClient.connect(server.host, server.port) as client:
            assert (await client.ping())["pong"] is True
            info = await client.session_info([])
            assert info["num_components"] == 1
        await client.close()  # double close must not raise

    asyncio.run(scenario())
