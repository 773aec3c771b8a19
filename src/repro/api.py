"""One oracle protocol, three transports: the ``repro.api`` facade.

The paper's oracle abstraction (Section 1.4) says any f-FTC labeling doubles
as a centralized connectivity oracle.  This module makes that one *contract*
with three interchangeable transports:

========== ============================================== =====================
transport   backing                                        factory
========== ============================================== =====================
``build``   labels constructed in process from a graph     :meth:`Oracle.build`
``snapshot`` labels rehydrated from an ``FTCS`` artifact   :meth:`Oracle.load`
``tcp``     a :mod:`repro.server` process over the wire    :meth:`Oracle.connect`
========== ============================================== =====================

Every transport satisfies :class:`OracleProtocol` — ``connected``,
``connected_many``, ``batch_session``, ``stats() -> OracleStats``,
``close()``, and context-manager use — and answers queries bit-identically
(the conformance suite in ``tests/test_oracle_protocol.py`` enforces this).
Callers program against the protocol; which transport they got is a
deployment detail selected by one URI via :func:`open_oracle`::

    with open_oracle("snapshot:network.ftcs") as oracle:
        oracle.connected_many([("a", "c")], faults=[("b", "c")])

    with open_oracle("tcp://127.0.0.1:7421") as oracle:
        print(oracle.stats().to_prometheus())

Error contract (shared by all transports):

* unknown vertices/edges raise :class:`KeyError`;
* over-budget fault sets raise :class:`ValueError`;
* unreliable decodes raise :class:`~repro.core.query.QueryFailure`;
* everything above is (or is mirrored by) an
  :class:`~repro.errors.OracleError`; the remote transport additionally
  raises :class:`~repro.errors.TransportError` when the *connection* — not
  the query — fails.

The remote transport maps the server's structured error codes onto
``Remote*`` exception classes that inherit from both the local exception type
and :class:`RemoteOracleError` (which preserves the wire ``code``), so
``except KeyError`` and ``except OracleError`` both keep working.

``batch_session(faults)`` pins one fault set on every transport.  The uniform
surface of the returned session is ``num_components()`` / ``num_fragments()``
plus fault-set-pinned queries; local transports return the label-level
:class:`~repro.core.batch.BatchQuerySession` itself (with its identity-cached
LRU semantics), while the remote transport returns a
:class:`RemoteBatchSession` backed by the server's ``session_info`` op.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import (TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping,
                    Protocol, Sequence, cast, runtime_checkable)

from repro.core.config import (FTCConfig, SchemeVariant, resolve_build_executor,
                               resolve_ftc_config)
from repro.core.query import QueryFailure
from repro.core.serialize import LabelDecodeError
from repro.errors import (DeltaError, OracleClosedError, OracleError,
                          TransportError)
# The Prometheus text-exposition helpers live in repro.obs.prometheus so the
# metrics registry, the /metrics sidecar, and this facade render one format
# (repro.obs imports nothing from this module — the dependency is one-way).
from repro.obs.prometheus import (render_gauge_families,
                                  sanitize_metric_name as _prom_metric_name,
                                  walk_numeric as _prom_walk)

if TYPE_CHECKING:
    from repro.server.client import QueryClient, ServerError

Vertex = Hashable

#: The transport tags, in the order the conformance suite exercises them.
TRANSPORTS = ("build", "snapshot", "tcp")


# ------------------------------------------------------------------- stats

@dataclass(frozen=True)
class OracleStats:
    """The normalized ``stats()`` payload of every oracle transport.

    ``extra`` carries transport-specific detail (the remote transport puts
    the server's full metrics snapshot under ``extra["server"]``); everything
    else is uniform, so dashboards and the conformance suite read one shape.
    """

    transport: str
    max_faults: int
    vertices: int | None = None
    edges: int | None = None
    queries_answered: int | None = None
    variant: str | None = None
    session_cache: Mapping | None = None
    extra: Mapping = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-ready view (what the CLI's ``--json`` mode prints)."""
        payload: dict = {"transport": self.transport, "max_faults": self.max_faults}
        for name in ("vertices", "edges", "queries_answered", "variant"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        if self.session_cache is not None:
            payload["session_cache"] = dict(self.session_cache)
        if self.extra:
            payload["extra"] = {key: value for key, value in self.extra.items()}
        return payload

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Render as Prometheus text exposition format (one gauge per leaf).

        Counter-style dicts keyed ``*_by_op`` / ``*_by_code`` become labeled
        families (``repro_server_requests{op="connected_many"} 5``); the
        transport and variant ride on ``<prefix>_oracle_info``.
        """
        families: dict[str, list] = {}

        def add(parts: list, labels: list, value: Any) -> None:
            families.setdefault(_prom_metric_name(parts), []).append(
                (tuple(labels), value))

        base = [prefix, "oracle"]
        add(base + ["max_faults"], [], self.max_faults)
        for name in ("vertices", "edges", "queries_answered"):
            value = getattr(self, name)
            if value is not None:
                add(base + [name], [], value)
        info_labels = [("transport", self.transport)]
        if self.variant is not None:
            info_labels.append(("variant", self.variant))
        add(base + ["info"], info_labels, 1)
        if self.session_cache is not None:
            _prom_walk([prefix, "session_cache"], [], self.session_cache, add)
        for key, value in (self.extra or {}).items():
            _prom_walk([prefix, str(key)], [], value, add)

        return "\n".join(render_gauge_families(families)) + "\n"


def local_oracle_stats(oracle: Any, session_cache: Mapping) -> OracleStats:
    """Assemble :class:`OracleStats` for an in-process transport.

    Shared by the "build" and "snapshot" oracles so the normalized shape is
    defined exactly once; ``oracle`` supplies ``transport``, ``config``,
    ``num_vertices``/``num_edges``, and ``queries_answered``.
    """
    return OracleStats(
        transport=oracle.transport,
        max_faults=oracle.config.max_faults,
        vertices=oracle.num_vertices(),
        edges=oracle.num_edges(),
        queries_answered=oracle.queries_answered,
        variant=oracle.config.variant.value,
        session_cache=session_cache,
    )


# ---------------------------------------------------------------- protocol

@runtime_checkable
class OracleProtocol(Protocol):
    """The contract every oracle transport satisfies.

    ``isinstance(obj, OracleProtocol)`` checks the surface at runtime; the
    conformance suite additionally checks *behavior* (bit-identical answers,
    shared error contract) across all three transports.
    """

    transport: str
    max_faults: int

    def connected(self, s: Vertex, t: Vertex, faults: Iterable = ()) -> bool: ...

    def connected_many(self, pairs: Sequence[tuple],
                       faults: Iterable = ()) -> list: ...

    def batch_session(self, faults: Iterable = ()) -> Any:
        """Pin one fault set; the returned session's *uniform* surface is
        ``num_components()`` / ``num_fragments()``.  Query methods on the
        session are transport-specific — local transports expose the
        label-level :class:`~repro.core.batch.BatchQuerySession`, the remote
        transport a vertex-level :class:`RemoteBatchSession` — so portable
        callers query through the oracle's own ``connected_many`` instead."""
        ...

    def stats(self) -> OracleStats: ...

    def close(self) -> None: ...

    def __enter__(self) -> Any: ...

    def __exit__(self, *exc_info: Any) -> None: ...


# --------------------------------------------------------- remote transport

class RemoteOracleError(OracleError):
    """A structured server-side error, mapped into the local hierarchy.

    ``code`` preserves the wire error code (``unknown-vertex``,
    ``over-budget``, ...); subclasses additionally inherit the builtin type
    local transports raise for the same condition, so one ``except`` clause
    covers every transport.
    """

    def __init__(self, code: str, message: str):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.message = message


#: Builtin exception types all define ``__init__``/``__str__`` in their own
#: class dict, so without these explicit bindings the MRO would pick
#: ``KeyError.__init__`` over :class:`RemoteOracleError`'s and drop ``code``.

class RemoteLookupError(KeyError, RemoteOracleError):
    """Unknown vertex or edge (the local transports raise ``KeyError``)."""

    __init__ = RemoteOracleError.__init__
    __str__ = Exception.__str__


class RemoteBudgetError(ValueError, RemoteOracleError):
    """Fault set exceeds the scheme's budget (locally a ``ValueError``)."""

    __init__ = RemoteOracleError.__init__


class RemoteQueryFailure(QueryFailure, RemoteOracleError):
    """Server-side :class:`~repro.core.query.QueryFailure` (randomized labels)."""

    __init__ = RemoteOracleError.__init__


class RemoteDecodeError(LabelDecodeError, RemoteOracleError):
    """Server-side label corruption (locally a ``LabelDecodeError``)."""

    __init__ = RemoteOracleError.__init__


def map_server_error(error: "ServerError") -> RemoteOracleError:
    """Translate a client :class:`~repro.server.client.ServerError` into the
    shared hierarchy, preserving the wire code."""
    from repro.server import protocol as wire

    mapping: dict[str, type[RemoteOracleError]] = {
        wire.E_UNKNOWN_VERTEX: RemoteLookupError,
        wire.E_UNKNOWN_EDGE: RemoteLookupError,
        wire.E_OVER_BUDGET: RemoteBudgetError,
        wire.E_QUERY_FAILED: RemoteQueryFailure,
        wire.E_DECODE: RemoteDecodeError,
    }
    exception_class = mapping.get(error.code, RemoteOracleError)
    return exception_class(error.code, error.message)


class RemoteBatchSession:
    """A fault-set-pinned view of a server-side batch session.

    Created by :meth:`RemoteOracle.batch_session`; the server has already
    built (or reused) the shared :class:`~repro.core.batch.BatchQuerySession`
    for this fault set, so the structure counts are local reads and every
    query rides the existing session via the pinned fault list.  Unlike the
    local label-level session, ``connected``/``connected_many`` here take
    vertex ids — the protocol's uniform session surface is the structure
    counts plus fault-set-pinned querying.
    """

    def __init__(self, oracle: "RemoteOracle", faults: list, info: Mapping):
        self._oracle = oracle
        self._faults = list(faults)
        self._info = dict(info)

    def connected(self, s: Vertex, t: Vertex) -> bool:
        return self._oracle.connected(s, t, self._faults)

    def connected_many(self, pairs: Sequence[tuple]) -> list:
        return self._oracle.connected_many(pairs, self._faults)

    def num_components(self) -> int:
        return cast(int, self._info.get("num_components"))

    def num_fragments(self) -> int:
        return cast(int, self._info.get("num_fragments"))


class RemoteOracle:
    """The "tcp" transport: an oracle served by a :mod:`repro.server` process.

    Wraps the blocking :class:`~repro.server.client.QueryClient`; every
    server-side error is mapped into the shared hierarchy by
    :func:`map_server_error`, and transport failures (connection refused or
    lost, non-protocol bytes, use after ``close()``) raise
    :class:`~repro.errors.TransportError`.  Like the underlying client, one
    instance belongs to one thread.
    """

    #: Transport tag of the oracle protocol.
    transport = "tcp"

    def __init__(self, client: "QueryClient", host: str | None = None,
                 port: int | None = None):
        self._client = client
        self.host = host
        self.port = port
        self._closed = False
        self._max_faults: int | None = None

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 30.0) -> "RemoteOracle":
        from repro.server.client import QueryClient

        try:
            client = QueryClient(host, port, timeout=timeout)
        except OSError as error:
            raise TransportError("cannot connect to %s:%d: %s"
                                 % (host, port, error)) from error
        oracle = cls(client, host, port)
        # Prime max_faults now: on Python < 3.12, a runtime_checkable
        # isinstance(oracle, OracleProtocol) probes the max_faults property
        # with getattr, and a property that performed I/O would turn a type
        # check into a network round-trip (or a TransportError).  One stats
        # call here makes the property a cached read for the oracle's
        # lifetime — it also validates that the endpoint speaks the protocol.
        oracle.stats()
        return oracle

    # ------------------------------------------------------------- plumbing

    def _call(self, method: Callable[..., Any], *args: Any) -> Any:
        from repro.server.client import ProtocolViolation, ServerError

        if self._closed:
            raise TransportError("remote oracle %s:%s is closed" % (self.host, self.port))
        try:
            return method(*args)
        except ServerError as error:
            raise map_server_error(error) from error
        except ProtocolViolation as error:
            raise TransportError("endpoint %s:%s broke protocol: %s"
                                 % (self.host, self.port, error)) from error
        except OSError as error:
            raise TransportError("connection to %s:%s failed: %s"
                                 % (self.host, self.port, error)) from error

    # -------------------------------------------------------------- queries

    def connected(self, s: Vertex, t: Vertex, faults: Iterable = ()) -> bool:
        return cast(bool, self._call(self._client.connected, s, t, list(faults)))

    def connected_many(self, pairs: Sequence[tuple],
                       faults: Iterable = ()) -> list:
        return cast(list, self._call(self._client.connected_many,
                                     list(pairs), list(faults)))

    def batch_session(self, faults: Iterable = ()) -> RemoteBatchSession:
        fault_list = list(faults)
        info = self._call(self._client.session_info, fault_list)
        return RemoteBatchSession(self, fault_list, info)

    # ---------------------------------------------------------------- stats

    def ping(self) -> dict:
        return cast(dict, self._call(self._client.ping))

    @property
    def last_trace(self) -> Any:
        """The trace echo of the most recent server response (or None)."""
        return getattr(self._client, "last_trace", None)

    def server_stats(self) -> dict:
        """The raw ``stats`` wire payload (``{"server": ..., "oracle": ...}``)."""
        return cast(dict, self._call(self._client.stats))

    def reload(self, token: str, path: str | None = None) -> dict:
        """Ask the server to hot-swap its snapshot (zero downtime).

        Requires the server's configured ``--reload-token``; ``path``, if
        given, must equal the server's snapshot path.  Returns the reload
        report (new ``epoch``, ``rewarmed_sessions``, ...).  Unauthorized or
        failed reloads surface as :class:`RemoteOracleError` with the wire
        code preserved (``reload-forbidden`` / ``reload-failed``).
        """
        return cast(dict, self._call(self._client.reload, token, path))

    def stats(self) -> OracleStats:
        payload = self.server_stats()
        server = payload.get("server") or {}
        oracle = payload.get("oracle") or {}
        if isinstance(oracle.get("max_faults"), int):
            self._max_faults = oracle["max_faults"]
        # Keys promoted to normalized OracleStats fields are dropped from the
        # embedded server snapshot, so to_dict()/to_prometheus() report each
        # counter exactly once.
        residual = {key: value for key, value in server.items()
                    if key not in ("session_cache", "queries_answered")}
        return OracleStats(
            transport=self.transport,
            max_faults=oracle.get("max_faults", -1),
            vertices=oracle.get("vertices"),
            edges=oracle.get("edges"),
            queries_answered=server.get("queries_answered"),
            variant=oracle.get("variant"),
            session_cache=server.get("session_cache"),
            extra={"server": residual},
        )

    @property
    def max_faults(self) -> int:
        """The served scheme's fault budget (fetched once, then cached)."""
        if self._max_faults is None:
            self.stats()
        if self._max_faults is None:
            raise TransportError("server at %s:%s did not report max_faults"
                                 % (self.host, self.port))
        return self._max_faults

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the connection.  Idempotent, even on a dead socket."""
        if self._closed:
            return
        self._closed = True
        self._client.close()

    def __enter__(self) -> "RemoteOracle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------- factories

class Oracle:
    """The factory surface of the oracle protocol — not instantiable.

    ``Oracle.build`` constructs labels in process, ``Oracle.load`` rehydrates
    a snapshot, ``Oracle.connect`` dials a server.  All three return objects
    satisfying :class:`OracleProtocol`.
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> "Oracle":
        raise TypeError("Oracle is a factory namespace; use Oracle.build(...), "
                        "Oracle.load(...), or Oracle.connect(...)")

    @staticmethod
    def build(graph: Any, max_faults: int | None = None, *,
              config: FTCConfig | None = None,
              variant: SchemeVariant | str | None = None,
              random_seed: int | None = None,
              use_fast_engine: bool = True,
              executor: Any = None, jobs: int | None = None,
              **overrides: Any) -> Any:
        """Construct labels for ``graph`` and return the "build" transport.

        Configuration is normalized through
        :func:`~repro.core.config.resolve_ftc_config`: pass either
        ``config=FTCConfig(...)`` or loose parameters, not both.  Construction
        itself runs through the staged plan of :mod:`repro.build`;
        ``executor`` / ``jobs`` select the execution strategy (``jobs=4``
        fans the outdetect shards out to four processes) via
        :func:`~repro.core.config.resolve_build_executor` — the labels are
        byte-identical whichever strategy runs.
        """
        from repro.core.oracle import FTConnectivityOracle

        resolved = resolve_ftc_config(max_faults=max_faults, config=config,
                                      variant=variant, random_seed=random_seed,
                                      **overrides)
        return FTConnectivityOracle(graph, config=resolved,
                                    use_fast_engine=use_fast_engine,
                                    executor=resolve_build_executor(executor, jobs))

    @staticmethod
    def load(source: Any) -> Any:
        """Rehydrate the "snapshot" transport from ``FTCS`` bytes or a path."""
        from repro.core.snapshot import load_snapshot

        return load_snapshot(source)

    @staticmethod
    def build_delta(base: Any, graph: Any = None, *,
                    add_edges: Iterable = (), remove_edges: Iterable = (),
                    use_fast_engine: bool = True,
                    executor: Any = None, jobs: int | None = None) -> Any:
        """Rebuild a "build" transport oracle after a graph edit, incrementally.

        ``base`` is an oracle from :meth:`Oracle.build`; pass either the full
        target ``graph`` or the edit itself (``add_edges`` /
        ``remove_edges``).  Labels are reconstructed through
        :func:`repro.delta.incremental.incremental_labeling`, which patches
        every base level whose structure survived the edit and falls back to
        normal shard construction where it did not — the result (and its
        snapshot) is byte-identical to a from-scratch build either way.
        """
        from repro.core.oracle import FTConnectivityOracle
        from repro.delta.incremental import incremental_labeling

        if getattr(base, "labeling", None) is None or \
                getattr(base, "graph", None) is None:
            raise DeltaError(
                "build_delta needs a 'build' transport oracle (Oracle.build): "
                "the %r transport carries labels only, not the graph and "
                "build structures an incremental rebuild patches"
                % getattr(base, "transport", "unknown"))
        labeling = incremental_labeling(base.labeling, graph,
                                        add_edges=add_edges,
                                        remove_edges=remove_edges,
                                        executor=resolve_build_executor(executor, jobs))
        return FTConnectivityOracle.from_labeling(labeling.graph, labeling,
                                                  use_fast_engine=use_fast_engine)

    @staticmethod
    def connect(host: str, port: int, timeout: float = 30.0) -> RemoteOracle:
        """Dial a running :mod:`repro.server` and return the "tcp" transport."""
        return RemoteOracle.connect(host, port, timeout=timeout)


def parse_oracle_uri(uri: str) -> tuple:
    """Split an oracle URI into ``(kind, rest)``.

    Accepted forms: ``snapshot:PATH``, ``tcp://HOST:PORT``, ``build:PATH``
    (an edge-list file; the empty path means "caller supplies the graph"),
    and — as a convenience — a bare path ending in ``.ftcs``.  ``build:``
    URIs additionally accept a query string of construction options
    (``build:edges.txt?jobs=4``), split off by :func:`parse_build_query`.
    All-letter text before the first ``:`` reads as a scheme, so an unknown
    one (``snapshop:net.ftcs``) fails here as a URI error, not later as a
    missing file; write such a path as ``snapshot:PATH``.
    """
    if not isinstance(uri, str):
        raise TypeError("oracle URI must be a string, got %r" % type(uri).__name__)
    for scheme, kind in (("tcp://", "tcp"), ("snapshot:", "snapshot"),
                         ("build:", "build")):
        if uri.startswith(scheme):
            return kind, uri[len(scheme):]
    prefix, colon, _ = uri.partition(":")
    if uri.endswith(".ftcs") and not (colon and prefix.isalpha()):
        return "snapshot", uri
    raise ValueError("unsupported oracle URI %r (expected snapshot:PATH, "
                     "tcp://HOST:PORT, or build:EDGELIST)" % (uri,))


def parse_build_query(rest: str) -> tuple:
    """Split a ``build:`` URI remainder into ``(path, options)``.

    The query string accepts ``jobs=N`` (a positive integer) and
    ``executor=SPEC`` (a :func:`~repro.core.config.resolve_build_executor`
    spec such as ``process:4``); anything else is a :class:`ValueError`, so
    typos fail loudly instead of silently building serially.
    """
    path, separator, query = rest.partition("?")
    options: dict = {}
    if not separator:
        return path, options
    for item in query.split("&"):
        if not item:
            continue
        key, equals, value = item.partition("=")
        if key == "jobs" and equals:
            if not value.isdigit() or int(value) < 1:
                raise ValueError("build: oracle URI option jobs=%r must be a "
                                 "positive integer" % value)
            options["jobs"] = int(value)
        elif key == "executor" and equals and value:
            options["executor"] = value
        else:
            raise ValueError("unsupported build: oracle URI option %r "
                             "(expected jobs=N and/or executor=SPEC)" % item)
    return path, options


def open_oracle(uri: str, *, graph: Any = None,
                config: FTCConfig | None = None,
                max_faults: int | None = None,
                variant: SchemeVariant | str | None = None,
                random_seed: int | None = None, timeout: float = 30.0,
                executor: Any = None, jobs: int | None = None) -> Any:
    """Open an oracle by URI — the CLI's one-flag transport selection.

    * ``snapshot:network.ftcs`` (or a bare ``*.ftcs`` path) →
      :meth:`Oracle.load`;
    * ``tcp://127.0.0.1:7421`` → :meth:`Oracle.connect`;
    * ``build:edges.txt`` → read the edge list and :meth:`Oracle.build` with
      the given construction parameters (``build:`` with an empty path uses
      the ``graph=`` keyword instead).  A query string selects the build
      executor — ``build:edges.txt?jobs=4`` shards label construction across
      four processes (``executor=thread:2`` etc. also accepted); each URI
      option replaces the same-named keyword, and the combined result goes
      through :func:`~repro.build.executors.resolve_executor`, which raises
      ``ValueError`` on genuine conflicts (e.g. ``?executor=process:2`` with
      ``jobs=4``).  On ``snapshot:`` / ``tcp://`` URIs the ``executor=`` /
      ``jobs=`` keywords raise ``ValueError`` — construction options must
      never silently do nothing.
    """
    kind, rest = parse_oracle_uri(uri)
    if kind != "build" and (executor is not None or jobs is not None):
        # The PR-wide rule: a construction option must never silently do
        # nothing.  Snapshot and tcp transports serve labels that were
        # already constructed elsewhere.
        raise ValueError("executor=/jobs= apply only to build: oracle URIs; "
                         "the %s transport serves already-constructed labels"
                         % kind)
    if kind == "tcp":
        host, separator, port = rest.rpartition(":")
        if not separator or not port.isdigit():
            raise ValueError("tcp:// oracle URI needs HOST:PORT, got %r" % (uri,))
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]  # bracketed IPv6 literal: tcp://[::1]:7421
        return Oracle.connect(host or "127.0.0.1", int(port), timeout=timeout)
    if kind == "snapshot":
        if not rest:
            raise ValueError("snapshot: oracle URI needs a path")
        return Oracle.load(rest)
    path, options = parse_build_query(rest)
    executor = options.get("executor", executor)
    jobs = options.get("jobs", jobs)
    if path:
        from repro.graphs.graph import read_edge_list

        graph = read_edge_list(path)
    if graph is None:
        raise ValueError("build: oracle URI needs an edge-list path or graph=")
    return Oracle.build(graph, max_faults=max_faults, config=config,
                        variant=variant, random_seed=random_seed,
                        executor=executor, jobs=jobs)


def upgrade_snapshot(source: Any, destination: Any) -> dict:
    """Rewrite a version-1 ``FTCS`` artifact as version 2 (the mmap layout).

    Facade over :func:`repro.core.snapshot.upgrade_snapshot_file` (the CLI's
    ``snapshot-upgrade`` goes through here — seam discipline keeps it off
    ``repro.core``).  Returns the converter's summary dict: source and
    destination paths, format versions, output size, and label counts.  The
    answers served from either artifact are bit-identical; version 2 adds the
    page-aligned label region that lets :meth:`Oracle.load` mmap the file.
    """
    from repro.core.snapshot import upgrade_snapshot_file

    return upgrade_snapshot_file(source, destination)


def diff_snapshots(base: Any, target: Any, destination: Any) -> dict:
    """Write the ``FTCS-D`` delta that patches ``base`` into ``target``.

    Facade over :func:`repro.delta.format.diff_snapshot_files` (the CLI's
    ``snapshot-diff`` goes through here — seam discipline keeps it off
    ``repro.delta`` internals).  The produced artifact is fail-closed: before
    anything is written it is applied in memory and the reconstruction is
    compared byte-for-byte against ``target``.  Returns the differ's summary
    dict (paths, sizes, per-section change counts).
    """
    from repro.delta import diff_snapshot_files

    return diff_snapshot_files(base, target, destination)


def apply_delta(base: Any, delta: Any, destination: Any) -> dict:
    """Reconstruct a target snapshot from ``base`` plus an ``FTCS-D`` delta.

    Facade over :func:`repro.delta.format.apply_delta_file` (the CLI's
    ``snapshot-apply``).  Fail-closed: the delta records the SHA-256 of both
    endpoints, a mismatched base or a reconstruction that does not hash to
    the recorded target raises :class:`~repro.errors.DeltaError` and nothing
    is written.  Returns the summary dict of the reconstruction.
    """
    from repro.delta import apply_delta_file

    return apply_delta_file(base, delta, destination)


__all__ = [
    "Oracle",
    "OracleProtocol",
    "OracleStats",
    "OracleError",
    "OracleClosedError",
    "DeltaError",
    "TransportError",
    "apply_delta",
    "diff_snapshots",
    "RemoteOracle",
    "RemoteBatchSession",
    "RemoteOracleError",
    "RemoteLookupError",
    "RemoteBudgetError",
    "RemoteQueryFailure",
    "RemoteDecodeError",
    "QueryFailure",
    "TRANSPORTS",
    "local_oracle_stats",
    "map_server_error",
    "open_oracle",
    "parse_build_query",
    "parse_oracle_uri",
    "upgrade_snapshot",
]
