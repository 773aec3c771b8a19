"""The asyncio connectivity query server.

A server process wraps one oracle — in production a
:class:`~repro.core.snapshot.RehydratedOracle` loaded from an ``FTCS``
snapshot at startup, never a fresh construction — and serves the
newline-JSON protocol of :mod:`repro.server.protocol` to any number of
concurrent clients.  Per-connection handlers are cheap coroutines; all oracle
work (session construction, label decoding, component lookups) runs on the
:class:`~repro.server.session_manager.SessionManager` worker pool, and
requests sharing a canonical fault set share one
:class:`~repro.core.batch.BatchQuerySession`.

Adversarial input fails closed per request: malformed JSON, oversized lines,
unknown ops, and bad vertex ids each produce one structured error response on
the same connection — a hostile line never kills the handler, and a handler
crash (a bug) is answered with ``internal-error`` rather than a dropped
connection.

Three entry points:

* :class:`QueryServer` — the asyncio object (``await start()`` / ``close()``),
  used directly by asyncio applications and the test suite.
* :class:`BackgroundServer` — runs a :class:`QueryServer` on a dedicated
  thread with its own event loop, for synchronous embedders and benchmarks.
* :func:`run_server` — the blocking CLI entry point (``repro serve``) with
  signal-triggered graceful shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.core.query import QueryFailure
from repro.core.serialize import LabelDecodeError
from repro.obs.http import ObsHTTPServer
from repro.obs.prometheus import render_stats_tree
from repro.obs.tracing import Tracer
from repro.server import protocol
from repro.server.protocol import (ProtocolError, encode_line, error_response,
                                   ok_response, parse_request)
from repro.server.session_manager import SessionManager

#: How much is read from the socket at a time while assembling lines.
_READ_CHUNK = 1 << 16


class QueryServer:
    """Serve one oracle's ``connected`` / ``connected_many`` over TCP."""

    def __init__(self, oracle, host: str = "127.0.0.1", port: int = 0,
                 max_sessions: int | None = None,
                 max_request_bytes: int = protocol.MAX_REQUEST_BYTES,
                 executor=None, metrics_port: int | None = None,
                 metrics_host: str | None = None,
                 tracer: Tracer | None = None,
                 slow_request_seconds: float = 1.0,
                 reuse_port: bool = False,
                 snapshot_path: str | None = None,
                 reload_token: str | None = None):
        self._requested_host = host
        self._requested_port = port
        # SO_REUSEPORT lets N sibling server processes bind one port and have
        # the kernel balance accepted connections across them — the
        # ``repro serve --workers N`` front-end (:mod:`repro.pool.frontend`).
        self._reuse_port = reuse_port
        self.max_request_bytes = max_request_bytes
        # One tracer spans the whole request path: the dispatch span makes
        # the trace id current, the session manager's build/decode spans
        # inherit it.  Spans at or above ``slow_request_seconds`` log at
        # WARNING (the slow-request log).
        self.tracer = tracer if tracer is not None else Tracer(
            service="repro.server", slow_seconds=slow_request_seconds)
        self.sessions = SessionManager(oracle, max_sessions=max_sessions,
                                       executor=executor, tracer=self.tracer)
        # Hot-reload seam: the server reloads only from its *configured*
        # snapshot path (a wire request cannot point it at an arbitrary
        # file), and wire-triggered reloads additionally require the
        # server-side token.  SIGHUP (local authority) needs no token.
        self._snapshot_path = None if snapshot_path is None \
            else str(snapshot_path)
        self._reload_token = reload_token
        self._reload_serial = asyncio.Lock()
        self.metrics = self.sessions.metrics
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self.host: str | None = None
        self.port: int | None = None
        # The /metrics + /healthz sidecar; disabled unless a port is given
        # (0 binds an ephemeral one, reported on ``metrics_port``).
        self._metrics_requested = (
            metrics_host if metrics_host is not None else host, metrics_port)
        self._metrics_server: ObsHTTPServer | None = None
        self.metrics_host: str | None = None
        self.metrics_port: int | None = None
        self._handlers: dict[str, Callable] = {
            "ping": self._op_ping,
            "stats": self._op_stats,
            "connected": self._op_connected,
            "connected_many": self._op_connected_many,
            "session_info": self._op_session_info,
            "reload": self._op_reload,
        }

    @property
    def oracle(self):
        """The *currently serving* oracle (swapped atomically by reloads).

        A read-through to the session manager — the single owner of the
        oracle pointer — so the server can never serve stale state; request
        handlers must not cache this across an ``await``.
        """
        return self.sessions.oracle

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        Pass ``port=0`` to bind an ephemeral port (tests, parallel CI jobs).
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        # reuse_port is only forwarded when requested: passing it at all
        # raises on platforms without SO_REUSEPORT, and the default
        # single-process path must keep working there.
        extra: dict[str, Any] = {"reuse_port": True} if self._reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self._requested_host,
            self._requested_port, **extra)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        sidecar_host, sidecar_port = self._metrics_requested
        if sidecar_port is not None:
            self._metrics_server = ObsHTTPServer(
                self.render_metrics, self.health,
                host=sidecar_host, port=sidecar_port)
            self.metrics_host, self.metrics_port = \
                await self._metrics_server.start()
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drop open connections, and stop the worker pool."""
        if self._metrics_server is not None:
            await self._metrics_server.close()
            self._metrics_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
            # Narrow on purpose: wait_closed only raises transport-level
            # OSErrors here; anything broader must not be swallowed (RPL002).
            with contextlib.suppress(OSError):
                await writer.wait_closed()
        self._writers.clear()
        self.sessions.close()

    # ---------------------------------------------------------- connections

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.metrics.connection_opened()
        self._writers.add(writer)
        carry = bytearray()
        try:
            while True:
                line, oversized = await self._read_line(reader, carry)
                if oversized:
                    self.metrics.record_error(protocol.E_OVERSIZED)
                    await self._send(writer, error_response(
                        protocol.E_OVERSIZED,
                        "request line exceeds %d bytes" % self.max_request_bytes))
                    if line is None:  # EOF while draining the oversized line
                        break
                    continue
                if line is None:
                    break
                if not line.strip():
                    continue
                response = await self._dispatch(line)
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away (or the server is shutting down)
        finally:
            self._writers.discard(writer)
            self.metrics.connection_closed()
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    async def _read_line(self, reader: asyncio.StreamReader,
                         carry: bytearray) -> tuple[bytes | None, bool]:
        """Read one newline-terminated line with an explicit byte cap.

        Buffers in ``carry`` (bytes past a newline are kept for the next
        call, so pipelined requests survive).  Returns ``(line, False)``
        normally, ``(None, False)`` at EOF, and ``(b"", True)`` after
        draining a line that exceeded ``max_request_bytes`` — the caller
        answers with a structured error and keeps the connection.
        """
        while True:
            newline = carry.find(b"\n")
            if newline != -1:
                if newline > self.max_request_bytes:
                    del carry[:newline + 1]
                    return b"", True
                line = bytes(carry[:newline])
                del carry[:newline + 1]
                return line, False
            if len(carry) > self.max_request_bytes:
                # Drain the rest of the oversized line, preserving anything
                # already received past its terminating newline.
                while True:
                    newline = carry.find(b"\n")
                    if newline != -1:
                        del carry[:newline + 1]
                        return b"", True
                    carry.clear()
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        return None, True
                    carry += chunk
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                if carry:  # final request without a trailing newline
                    line = bytes(carry)
                    carry.clear()
                    return line, False
                return None, False
            carry += chunk

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(encode_line(payload))
        await writer.drain()

    # ------------------------------------------------------------- dispatch

    async def _dispatch(self, line: bytes) -> dict:
        """Turn one request line into one response object (never raises).

        A client-supplied ``trace`` id is adopted by the dispatch span
        (and therefore by the session build/decode spans underneath) and
        echoed in the response envelope — success or error.  Tracing only
        observes the handler: the answer bytes are identical with the
        tracer enabled, disabled, or replaced.
        """
        request_id: Any = None
        trace: Any = None
        # Metrics are keyed by op, so only a *known* op name may become a
        # counter key — attacker-chosen strings must not grow the Counters.
        op = "invalid"
        start = time.perf_counter()
        try:
            request = parse_request(line)
            request_id = request.get("id")
            trace = request.get("trace")
            handler = self._handlers.get(request["op"])
            if handler is None:
                raise ProtocolError(protocol.E_UNKNOWN_OP,
                                    "unknown op %r (known: %s)"
                                    % (request["op"], ", ".join(protocol.KNOWN_OPS)))
            op = request["op"]
            with self.tracer.span("server." + op, trace_id=trace, op=op,
                                  request_id=request_id):
                result = await handler(request)
            response = ok_response(result, request_id, trace=trace)
        except ProtocolError as error:
            self.metrics.record_error(error.code)
            response = error_response(error.code, str(error), request_id,
                                      trace=trace)
        except KeyError as error:
            # Unknown vertex/edge ids surface as KeyError from label lookups.
            message = error.args[0] if error.args else str(error)
            code = protocol.E_UNKNOWN_EDGE if str(message).startswith("edge") \
                else protocol.E_UNKNOWN_VERTEX
            self.metrics.record_error(code)
            response = error_response(code, str(message), request_id,
                                      trace=trace)
        except LabelDecodeError as error:
            # Checked before ValueError: LabelDecodeError *is* a ValueError,
            # so the other order would mislabel corruption as over-budget.
            self.metrics.record_error(protocol.E_DECODE)
            response = error_response(protocol.E_DECODE,
                                      "label data is corrupt: %s" % error,
                                      request_id, trace=trace)
        except ValueError as error:
            # Typically: more distinct faults than the scheme's budget f.
            self.metrics.record_error(protocol.E_OVER_BUDGET)
            response = error_response(protocol.E_OVER_BUDGET, str(error),
                                      request_id, trace=trace)
        except QueryFailure as error:
            self.metrics.record_error(protocol.E_QUERY_FAILED)
            response = error_response(protocol.E_QUERY_FAILED, str(error),
                                      request_id, trace=trace)
        except Exception as error:  # fail closed per request, never per connection
            self.metrics.record_error(protocol.E_INTERNAL)
            response = error_response(protocol.E_INTERNAL,
                                      "%s: %s" % (type(error).__name__, error),
                                      request_id, trace=trace)
        self.metrics.record_request(op, time.perf_counter() - start)
        return response

    # ------------------------------------------------------------------ ops

    async def _op_ping(self, request: dict) -> dict:
        return {"pong": True, "protocol": protocol.PROTOCOL_VERSION}

    async def _op_stats(self, request: dict) -> dict:
        return {"server": self.sessions.stats(), "oracle": self._oracle_info()}

    def _oracle_info(self) -> dict:
        oracle = self.oracle
        info: dict = {"max_faults": oracle.max_faults}
        for attribute in ("num_vertices", "num_edges"):
            method = getattr(oracle, attribute, None)
            if callable(method):
                info[attribute.removeprefix("num_")] = method()
        config = getattr(oracle, "config", None)
        if config is not None:
            info["variant"] = config.variant.value
        return info

    # ------------------------------------------------------------- sidecar

    def render_metrics(self) -> str:
        """The ``GET /metrics`` payload in the text exposition format.

        The registry renders its own families natively (counters with
        ``_total``, the per-op latency histogram with cumulative
        ``_bucket{le=...}`` lines); the session cache, hot keys, and oracle
        facts — numbers the registry does not own — ride along as flattened
        gauges under disjoint family names.
        """
        stats = self.sessions.stats()
        # ``inflight_builds`` is deliberately absent: the registry already
        # owns it as the ``server_inflight_builds`` gauge, and one exposition
        # must never emit two families under one name.
        extras = {
            "server": {key: stats[key] for key in
                       ("session_cache", "session_hot_keys_by_key",
                        "session_hot_keys_tracked")
                       if key in stats},
            "oracle": self._oracle_info(),
        }
        text = self.metrics.registry.to_prometheus()
        extra_lines = render_stats_tree(extras)
        if extra_lines:
            text += "\n".join(extra_lines) + "\n"
        return text

    def health(self) -> tuple[bool, dict]:
        """The ``GET /healthz`` readiness probe: ``(ready, payload)``.

        Ready means the listener is accepting and the oracle answers a
        cheap liveness probe (its session-cache info); a wedged oracle
        degrades the probe to 503 without touching the query path.
        """
        ready = self._server is not None and self._server.is_serving()
        payload: dict = {"status": "ok",
                         "protocol": protocol.PROTOCOL_VERSION,
                         "serving": ready}
        try:
            payload["oracle"] = self._oracle_info()
            payload["session_cache"] = self.oracle.session_cache_info()
        except Exception as error:
            payload["oracle_error"] = "%s: %s" % (type(error).__name__, error)
            ready = False
        if not ready:
            payload["status"] = "unavailable"
        return ready, payload

    async def _op_connected(self, request: dict) -> dict:
        source, target = protocol.extract_pair(request)
        faults = protocol.extract_faults(request)
        answers = await self.sessions.connected_many([(source, target)], faults)
        return {"connected": answers[0]}

    async def _op_connected_many(self, request: dict) -> dict:
        pairs = protocol.extract_pairs(request)
        faults = protocol.extract_faults(request)
        answers = await self.sessions.connected_many(pairs, faults)
        return {"connected": answers, "count": len(answers)}

    async def _op_session_info(self, request: dict) -> dict:
        """Ensure the batch session for one fault set and report its structure.

        Backs the remote transport's ``batch_session``: a
        :class:`~repro.api.RemoteBatchSession` is this answer plus the pinned
        fault list.  A :class:`QueryFailure` during the eager decomposition
        surfaces as the structured ``query-failed`` error, mirroring what the
        local ``batch_session`` raises.
        """
        faults = protocol.extract_faults(request)
        session = await self.sessions.session(faults)
        return {"num_components": session.num_components(),
                "num_fragments": session.num_fragments(),
                "queries_answered": session.queries_answered}

    # -------------------------------------------------------------- reload

    async def _op_reload(self, request: dict) -> dict:
        """The wire trigger for a hot swap — authenticated by configuration.

        Disabled unless the server was started with a reload token; the
        client must echo that exact token, and an optional ``path`` field
        must equal the server's *configured* snapshot path (a request can
        confirm what it expects to reload, never choose a different file).
        Local operators use SIGHUP instead, which needs no token.
        """
        if self._reload_token is None:
            raise ProtocolError(protocol.E_RELOAD_FORBIDDEN,
                                "wire reload is disabled (server started "
                                "without a reload token); send SIGHUP instead")
        token = request.get("token")
        if not isinstance(token, str) or \
                not hmac.compare_digest(token, self._reload_token):
            raise ProtocolError(protocol.E_RELOAD_FORBIDDEN,
                                "bad reload token")
        path = request.get("path")
        if path is not None and path != self._snapshot_path:
            raise ProtocolError(
                protocol.E_RELOAD_FORBIDDEN,
                "reload path %r does not match the configured snapshot %r"
                % (path, self._snapshot_path))
        return await self.reload_snapshot(source="wire")

    async def reload_snapshot(self, source: str = "signal") -> dict:
        """Hot-swap the serving oracle from the configured snapshot path.

        Zero downtime by construction: the replacement loads on the worker
        pool while the old oracle keeps answering, the pointer flip is
        atomic (:meth:`SessionManager.swap_oracle`), in-flight requests stay
        pinned to the generation they started on, and client connections
        never close.  A load failure leaves the old oracle serving and
        surfaces as the structured ``reload-failed`` error.  After the swap
        the hottest live fault sets are replayed against the new labels (see
        :meth:`rewarm_hot_sessions`) so the session cache does not go cold.
        """
        if self._snapshot_path is None:
            raise ProtocolError(protocol.E_RELOAD_FAILED,
                                "server was started without a snapshot path; "
                                "there is nothing to reload from")
        async with self._reload_serial:
            from repro.api import Oracle

            path = self._snapshot_path
            started = time.perf_counter()
            try:
                epoch = await self.sessions.swap_oracle(
                    lambda: Oracle.load(path))
            except (OSError, LabelDecodeError) as error:
                raise ProtocolError(
                    protocol.E_RELOAD_FAILED,
                    "reload failed (%s: %s); the previous snapshot keeps "
                    "serving" % (type(error).__name__, error)) from error
            rewarmed = await self.rewarm_hot_sessions()
            seconds = time.perf_counter() - started
            self.metrics.registry.gauge(
                "server_last_reload_seconds",
                "Duration of the most recent snapshot hot swap").set(seconds)
            return {"reloaded": True, "epoch": epoch, "snapshot": path,
                    "source": source, "seconds": seconds,
                    "rewarmed_sessions": rewarmed}

    async def rewarm_hot_sessions(self, top: int | None = None) -> int:
        """Replay the hottest live fault sets through the session cache.

        Called right after a hot swap (the new oracle's LRU starts cold) and
        by the optional re-warm timer of :func:`run_server`, through
        :meth:`~repro.server.session_manager.SessionManager.prewarm_sessions`:
        a read that meets the re-warm joins its build, and a hot set recorded
        against a previous snapshot that names a vanished edge stays cold
        while the others are built.  Returns how many hot sets are cached.
        """
        return await self.sessions.prewarm_sessions(
            self.sessions.hot_fault_sets(top))


# ------------------------------------------------------- synchronous harness

class BackgroundServer:
    """A :class:`QueryServer` on its own thread + event loop.

    For synchronous embedders: benchmarks, the blocking client's tests, or an
    application that wants to expose its oracle without adopting asyncio::

        with BackgroundServer(oracle, max_sessions=64) as server:
            client = QueryClient(server.host, server.port)
    """

    def __init__(self, oracle, host: str = "127.0.0.1", port: int = 0,
                 **server_kwargs):
        self._server = QueryServer(oracle, host=host, port=port, **server_kwargs)
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, name="repro-server",
                                        daemon=True)

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def metrics(self):
        return self._server.metrics

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self._server.start()
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self._server.close()


# --------------------------------------------------------------- CLI driver

def run_server(oracle, host: str = "127.0.0.1", port: int = 0,
               max_sessions: int | None = None,
               max_request_bytes: int = protocol.MAX_REQUEST_BYTES,
               jobs: int | None = None,
               announce: Callable[[dict], None] | None = None,
               metrics_port: int | None = None,
               reuse_port: bool = False,
               worker_index: int | None = None,
               hot_keys_file: str | None = None,
               prewarm_top: int | None = None,
               snapshot_path: str | None = None,
               reload_token: str | None = None,
               rewarm_interval: float | None = None) -> int:
    """Blocking entry point behind ``repro serve``.

    Starts the server, reports the bound address through ``announce`` (the
    CLI prints it as a JSON line so scripts can wait for readiness and learn
    an ephemeral port), and serves until SIGTERM/SIGINT, then shuts down
    cleanly.  ``jobs`` bounds the worker threads that build batch sessions
    (the CLI's ``--jobs``; default lets the executor size itself).
    ``metrics_port`` (the CLI's ``--metrics-port``) enables the
    ``/metrics`` + ``/healthz`` sidecar; its bound port rides on the
    announce event.  Returns a process exit code.

    The :mod:`repro.pool` front-end runs this same function once per worker
    process: ``reuse_port`` joins the shared SO_REUSEPORT listener group and
    ``worker_index`` stamps the ``server_worker_info{worker=...}`` gauge so
    each sidecar's exposition identifies its process.  ``hot_keys_file``
    (maintained for plain ``repro serve`` too) closes the restart loop: the
    hottest fault sets recorded there by the previous run are pre-warmed via
    :meth:`~repro.server.session_manager.SessionManager.prewarm_sessions`
    before readiness is announced (a stale set stays cold; the announced
    ``prewarmed_sessions`` counts the sets cached), and the current run's
    hottest sets are written back on graceful shutdown.  ``prewarm_top``
    bounds both directions (default: the session manager's top-K).

    ``snapshot_path`` arms zero-downtime hot reload: SIGHUP swaps the
    serving oracle for a fresh load of that same path (see
    :meth:`QueryServer.reload_snapshot`), and ``reload_token`` additionally
    enables the authenticated ``reload`` wire op.  ``rewarm_interval``
    (seconds) starts a timer that periodically replays the hottest live
    fault sets through the session cache, so long-lived servers stay warm
    as traffic shifts — independently of reloads, which always re-warm.
    """
    executor = None
    if jobs is not None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1, got %d" % jobs)
        executor = ThreadPoolExecutor(max_workers=jobs,
                                      thread_name_prefix="repro-session")
    prewarm_sets: list = []
    if hot_keys_file is not None:
        from repro.pool.prewarm import load_hot_fault_sets

        prewarm_sets = load_hot_fault_sets(hot_keys_file)
        if prewarm_top is not None:
            prewarm_sets = prewarm_sets[:prewarm_top]
    # Filled inside _main at shutdown; persisted after the loop exits (file
    # writes stay off the event loop).
    shutdown_state: dict = {}

    async def _main() -> None:
        server = QueryServer(oracle, host=host, port=port,
                             max_sessions=max_sessions,
                             max_request_bytes=max_request_bytes,
                             executor=executor, metrics_port=metrics_port,
                             reuse_port=reuse_port,
                             snapshot_path=snapshot_path,
                             reload_token=reload_token)
        bound_host, bound_port = await server.start()
        if worker_index is not None:
            server.metrics.registry.gauge(
                "server_worker_info",
                "Identity of this serving worker process",
                labelnames=("worker",)).set(1.0, worker=str(worker_index))
        prewarmed = None
        if prewarm_sets:
            prewarmed = await server.sessions.prewarm_sessions(prewarm_sets)
        if announce is not None:
            event = {"event": "serving", "host": bound_host,
                     "port": bound_port, "max_faults": oracle.max_faults,
                     "vertices": server_vertex_count(oracle)}
            if server.metrics_port is not None:
                event["metrics_port"] = server.metrics_port
            if worker_index is not None:
                event["worker"] = worker_index
            if prewarmed is not None:
                event["prewarmed_sessions"] = prewarmed
            announce(event)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        # SIGHUP = hot reload, local authority (the pool parent relays it
        # to every worker).  The handler only schedules the coroutine; the
        # strong references keep in-flight reload tasks from being GC'd.
        pending_reloads: set[asyncio.Task] = set()
        if snapshot_path is not None and hasattr(signal, "SIGHUP"):
            def _on_sighup() -> None:
                task = loop.create_task(_signal_reload(server, announce))
                pending_reloads.add(task)
                task.add_done_callback(pending_reloads.discard)

            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signal.SIGHUP, _on_sighup)
        rewarm_task: asyncio.Task | None = None
        if rewarm_interval is not None and rewarm_interval > 0:
            rewarm_task = loop.create_task(
                _rewarm_loop(server, rewarm_interval, prewarm_top))
        try:
            await stop.wait()
        finally:
            if rewarm_task is not None:
                rewarm_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await rewarm_task
            for task in list(pending_reloads):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            if hot_keys_file is not None:
                shutdown_state["hot_fault_sets"] = \
                    server.sessions.hot_fault_sets(prewarm_top)
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # platforms without add_signal_handler
        pass
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
        hot_fault_sets = shutdown_state.get("hot_fault_sets")
        if hot_keys_file is not None and hot_fault_sets:
            from repro.pool.prewarm import save_hot_fault_sets

            save_hot_fault_sets(hot_keys_file, hot_fault_sets)
    return 0


async def _signal_reload(server: QueryServer,
                         announce: Callable[[dict], None] | None) -> None:
    """SIGHUP body: swap, then report the outcome through ``announce``.

    A failed reload (missing/corrupt file) must never take the process
    down — the old snapshot keeps serving and the failure is announced
    and counted (``server_errors{code="reload-failed"}``).
    """
    try:
        result = await server.reload_snapshot(source="signal")
    except ProtocolError as error:
        server.metrics.record_error(error.code)
        event: dict = {"event": "reload-failed", "error": str(error)}
    else:
        event = {"event": "reloaded"}
        event.update(result)
    if announce is not None:
        announce(event)


async def _rewarm_loop(server: QueryServer, interval: float,
                       top: int | None) -> None:
    """The hot-key re-warm timer: every ``interval`` seconds, replay the
    hottest live fault sets so their sessions stay resident as the LRU
    churns.  Cancelled (never errors out) at shutdown."""
    while True:
        await asyncio.sleep(interval)
        await server.rewarm_hot_sessions(top)


def server_vertex_count(oracle) -> int | None:
    """Vertex count if the oracle exposes one (snapshots do), else ``None``."""
    method = getattr(oracle, "num_vertices", None)
    return method() if callable(method) else None


__all__ = ["QueryServer", "BackgroundServer", "run_server"]
