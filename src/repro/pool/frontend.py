"""``repro serve --workers N``: a fleet of query servers on one port.

One parent process reserves the serving port with ``SO_REUSEPORT``, forks N
worker processes, and each worker runs the ordinary
:func:`~repro.server.server.run_server` loop against its own copy of the
snapshot — joined to the shared listener group, so the kernel load-balances
accepted connections across workers with no user-space proxy in the path.
With a version-2 (mmap layout) snapshot the "copy" per worker is an mmap of
the same file: the label bytes are one page-cached region shared by the
whole fleet.

Division of labor:

* **Parent** — owns the port reservation (bound, never listening, so it
  receives no connections), collects per-worker readiness events, prints the
  combined ``serving`` announcement, relays SIGTERM/SIGINT to the fleet, and
  reaps it.
* **Workers** — everything else: each has its own event loop, session
  manager, ``/metrics`` + ``/healthz`` sidecar (port ``--metrics-port + i``,
  or ephemeral), and stamps ``server_worker_info{worker="i"}`` so scrapes
  identify the process.  All workers share one pre-warm sidecar file
  (:mod:`repro.pool.prewarm`) keyed by the snapshot path.

``SO_REUSEPORT`` is required (Linux ≥ 3.9, modern BSDs/macOS); platforms
without it get an :class:`OSError` at startup rather than a degraded
single-socket fallback.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import sys
import threading
from typing import Any, Callable, Mapping

from repro.errors import TransportError
from repro.pool.prewarm import hot_keys_path

#: How long the parent waits for every worker's readiness event.  Generous:
#: workers pre-warm their hottest sessions before announcing, and session
#: construction can take seconds each; dead children still fail fast.
READY_TIMEOUT_SECONDS = 300.0

#: Grace period between SIGTERM fan-out and SIGKILL escalation.
SHUTDOWN_GRACE_SECONDS = 10.0


def _reserve_port(host: str, port: int) -> socket.socket:
    """Bind ``(host, port)`` with ``SO_REUSEPORT`` and hold the reservation.

    The socket never listens — it exists so an ephemeral ``port=0`` resolves
    to one concrete port before any worker starts, and so the port cannot be
    claimed by an unrelated process between worker launches.  Raises
    :class:`OSError` where ``SO_REUSEPORT`` is unavailable.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        raise OSError("repro serve --workers requires SO_REUSEPORT, "
                      "which this platform does not provide")
    reservation = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        reservation.bind((host, port))
    except OSError:
        reservation.close()
        raise
    return reservation


def _worker_metrics_port(base: int | None, worker_index: int) -> int | None:
    """The sidecar port for one worker: disabled, ephemeral, or ``base + i``."""
    if base is None:
        return None
    if base == 0:
        return 0
    return base + worker_index


def _worker_entry(snapshot_path: str, host: str, port: int,
                  worker_index: int, ready_queue: Any,
                  max_sessions: int | None, max_request_bytes: int,
                  jobs: int | None, metrics_port: int | None,
                  prewarm_top: int | None,
                  reload_token: str | None = None,
                  rewarm_interval: float | None = None) -> None:
    """Worker process body: load the snapshot, run the ordinary server loop.

    Module-level (not a closure) so the fleet also works under the ``spawn``
    start method.  Readiness — or a startup failure — is reported through
    ``ready_queue``; after that the worker is indistinguishable from a plain
    ``repro serve`` process until the parent's SIGTERM arrives.
    """
    from repro.api import Oracle
    from repro.server.server import run_server

    try:
        oracle = Oracle.load(snapshot_path)
    except Exception as error:  # startup triage: report, don't hang the parent
        ready_queue.put({"event": "worker-failed", "worker": worker_index,
                         "error": "%s: %s" % (type(error).__name__, error)})
        raise
    code = run_server(
        oracle, host=host, port=port, max_sessions=max_sessions,
        max_request_bytes=max_request_bytes, jobs=jobs,
        announce=ready_queue.put, metrics_port=metrics_port,
        reuse_port=True, worker_index=worker_index,
        hot_keys_file=hot_keys_path(snapshot_path), prewarm_top=prewarm_top,
        snapshot_path=snapshot_path, reload_token=reload_token,
        rewarm_interval=rewarm_interval)
    sys.exit(code)


def _collect_ready_events(ready_queue: Any, processes: list,
                          workers: int) -> list[dict]:
    """Wait for one readiness event per worker; fail fast on a dead child."""
    import queue as queue_module
    import time

    deadline = time.monotonic() + READY_TIMEOUT_SECONDS
    events: list[dict] = []
    while len(events) < workers:
        if time.monotonic() > deadline:
            raise TransportError(
                "serving workers not ready after %.0fs (%d of %d reported)"
                % (READY_TIMEOUT_SECONDS, len(events), workers))
        try:
            event = ready_queue.get(timeout=1.0)
        except queue_module.Empty:
            dead = [process for process in processes if not process.is_alive()]
            if dead:
                raise TransportError(
                    "%d serving worker(s) exited before becoming ready"
                    % len(dead))
            continue
        if event.get("event") == "worker-failed":
            raise TransportError("serving worker %s failed to start: %s"
                                 % (event.get("worker"), event.get("error")))
        events.append(event)
    return events


def _terminate_fleet(processes: list) -> None:
    """SIGTERM every live worker, wait out the grace period, then SIGKILL."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    deadline_per_child = SHUTDOWN_GRACE_SECONDS / max(len(processes), 1)
    for process in processes:
        process.join(timeout=deadline_per_child)
    for process in processes:
        if process.is_alive():
            process.kill()
            process.join()


def run_pooled_server(snapshot_path: str, host: str = "127.0.0.1",
                      port: int = 0, workers: int = 2,
                      max_sessions: int | None = None,
                      max_request_bytes: int | None = None,
                      jobs: int | None = None,
                      metrics_port: int | None = None,
                      announce: Callable[[Mapping], None] | None = None,
                      prewarm_top: int | None = None,
                      reload_token: str | None = None,
                      rewarm_interval: float | None = None) -> int:
    """Blocking entry point behind ``repro serve --workers N``.

    Announces one combined event once every worker is ready::

        {"event": "serving", "host": ..., "port": ..., "workers": N,
         "metrics_ports": [...], "max_faults": f, "prewarmed_sessions": [...]}

    then serves until SIGTERM/SIGINT and returns a process exit code (0 for
    a clean shutdown, the first non-zero worker exit code otherwise).
    Workers pre-warm the snapshot's hot-key sidecar file on start and each
    one that served traffic rewrites it on a clean exit (every save is
    atomic and the last rename wins), so restarts of the fleet — and later
    single-process serves of the same snapshot — start warm.

    SIGHUP to the parent is relayed to every live worker, so one signal
    hot-swaps the whole fleet onto the rewritten snapshot file with zero
    dropped connections (each worker swaps independently; see
    :meth:`repro.server.server.QueryServer.reload_snapshot`).
    """
    from repro.server import protocol

    if workers < 1:
        raise ValueError("workers must be at least 1, got %d" % workers)
    if max_request_bytes is None:
        max_request_bytes = protocol.MAX_REQUEST_BYTES
    snapshot_path = str(snapshot_path)
    if not os.path.exists(snapshot_path):
        raise FileNotFoundError(snapshot_path)

    reservation = _reserve_port(host, port)
    try:
        bound_host, bound_port = reservation.getsockname()[:2]
        context = multiprocessing.get_context()
        ready_queue = context.Queue()
        processes = [
            context.Process(
                target=_worker_entry,
                args=(snapshot_path, bound_host, bound_port, index,
                      ready_queue, max_sessions, max_request_bytes, jobs,
                      _worker_metrics_port(metrics_port, index), prewarm_top,
                      reload_token, rewarm_interval),
                name="repro-serve-%d" % index, daemon=False)
            for index in range(workers)
        ]
        for process in processes:
            process.start()
        try:
            ready = _collect_ready_events(ready_queue, processes, workers)
        except TransportError:
            _terminate_fleet(processes)
            raise
        ready.sort(key=lambda event: event.get("worker", 0))
        if announce is not None:
            event: dict = {"event": "serving", "host": bound_host,
                           "port": bound_port, "workers": workers,
                           "max_faults": ready[0].get("max_faults")}
            metrics_ports = [entry["metrics_port"] for entry in ready
                             if "metrics_port" in entry]
            if metrics_ports:
                event["metrics_ports"] = metrics_ports
            prewarmed = [entry["prewarmed_sessions"] for entry in ready
                         if "prewarmed_sessions" in entry]
            if prewarmed:
                event["prewarmed_sessions"] = prewarmed
            announce(event)

        stop = threading.Event()

        def _handle_stop(signum: int, frame: Any) -> None:
            stop.set()

        previous_handlers = {
            signum: signal.signal(signum, _handle_stop)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }

        def _handle_reload(signum: int, frame: Any) -> None:
            # Relay only: each worker performs its own swap, so a worker
            # mid-request simply swaps a moment later than its siblings.
            for process in processes:
                if process.is_alive() and process.pid is not None:
                    os.kill(process.pid, signal.SIGHUP)

        if hasattr(signal, "SIGHUP"):
            previous_handlers[signal.SIGHUP] = \
                signal.signal(signal.SIGHUP, _handle_reload)
        try:
            # Wake periodically to notice a worker that died on its own —
            # the fleet degrades to full restart, never to silent capacity
            # loss behind one port.
            while not stop.is_set():
                stop.wait(timeout=1.0)
                if any(not process.is_alive() for process in processes):
                    break
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)
        _terminate_fleet(processes)
        exit_codes = [process.exitcode or 0 for process in processes]
        # SIGTERM is the normal shutdown path, not a failure.
        failures = [code for code in exit_codes
                    if code not in (0, -signal.SIGTERM)]
        return failures[0] if failures else 0
    finally:
        reservation.close()


def print_announce(event: Mapping) -> None:
    """Default announce hook: one JSON line on stdout (what scripts grep)."""
    print(json.dumps(dict(event), sort_keys=True), flush=True)


__all__ = ["run_pooled_server", "print_announce", "READY_TIMEOUT_SECONDS",
           "SHUTDOWN_GRACE_SECONDS"]
