"""Sharing batch-query sessions between concurrent clients.

Everything expensive about a query depends only on the fault set ``F``
(:mod:`repro.core.batch`), so a server under heavy traffic wins exactly when
concurrent requests carrying the same canonical fault set share one
:class:`~repro.core.batch.BatchQuerySession`.  :class:`SessionManager` makes
that sharing safe and non-blocking on top of the oracle's (lock-protected)
session LRU:

* **Shared LRU** — sessions live in the oracle's own ``batch_session`` cache,
  keyed by :func:`~repro.core.query.canonical_fault_key`, so the server, the
  in-process API, and any other thread see one cache with one eviction policy
  (``max_sessions`` resizes it) that builds each fault set once.
* **Executor offload** — constructing a session decodes the full component
  decomposition; that work runs on a worker thread, never on the event loop.
* **Single-flight** — a thundering herd of requests for one *novel* fault set,
  pre-warm and re-warm included, triggers exactly one construction; a request
  that finds it in flight awaits it without holding a worker thread and is
  counted as ``coalesced`` in the metrics.
* **Hot swap** — :meth:`SessionManager.swap_oracle` atomically replaces the
  oracle behind the manager (the zero-downtime reload of ``repro serve``):
  the replacement is constructed off-loop, every in-flight request stays
  pinned to the oracle it started on (a lease per request), and the old
  oracle is closed only once its last lease drains.  ``stats()`` reports the
  monotonically increasing ``snapshot_epoch``.
"""

from __future__ import annotations

import asyncio
import threading
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, Sequence

from repro.core.batch import BatchQuerySession
from repro.core.query import QueryFailure
from repro.obs.tracing import Tracer
from repro.server.metrics import ServerMetrics


class SessionManager:
    """Concurrency front-end over one oracle's batch-session LRU.

    ``oracle`` is anything with the :class:`~repro.core.ftc.LabelBackedQueries`
    surface — a live :class:`~repro.core.ftc.FTCLabeling` or (the server case)
    a :class:`~repro.core.snapshot.RehydratedOracle`.  All methods that touch
    the oracle are coroutines; the oracle work itself runs on the executor.
    """

    #: Approximate-top-K bound: once this many distinct fault-set keys are
    #: tracked, novel keys are no longer admitted (heavy hitters by then are
    #: already in the table, and the table must not grow with traffic).
    HOT_KEY_TRACK_LIMIT = 1024

    #: How many of the hottest fault-set keys ``stats`` reports.
    HOT_KEY_TOP_K = 10

    def __init__(self, oracle, max_sessions: int | None = None,
                 executor: ThreadPoolExecutor | None = None,
                 metrics: ServerMetrics | None = None,
                 tracer: Tracer | None = None):
        self.oracle = oracle
        self._max_sessions = max_sessions
        if max_sessions is not None:
            if max_sessions < 1:
                raise ValueError("max_sessions must be at least 1")
            # Instance attribute shadows the class default; the oracle's own
            # LRU (shared with in-process callers) enforces the bound.
            oracle.SESSION_CACHE_SIZE = max_sessions
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.tracer = tracer if tracer is not None \
            else Tracer(service="repro.server")
        self._inflight_gauge = self.metrics.registry.gauge(
            "server_inflight_builds", "Session constructions in flight")
        self._own_executor = executor is None
        self._executor = executor if executor is not None else ThreadPoolExecutor(
            thread_name_prefix="repro-session")
        #: Per-fault-set-key traffic, for hot-key reporting / pre-warming.
        self._hot_keys: Counter = Counter()
        #: First-seen human-readable rendering of each tracked key.
        self._hot_key_names: dict[tuple, str] = {}
        #: First-seen raw fault list per tracked key — what pre-warm replays
        #: (the canonical key and the rendered name are both lossy).
        self._hot_key_faults: dict[tuple, list] = {}
        self._hot_lock = threading.Lock()
        # Hot-swap state (all guarded by _swap_lock, see LOCK_CONTRACTS):
        # the epoch counts snapshot generations, a lease per in-flight
        # request pins the oracle that request started on, and a replaced
        # oracle parks in _retired until its last lease drains.
        self._swap_lock = threading.Lock()
        self._epoch = 0
        self._leases: Counter = Counter()
        self._retired: dict[int, object] = {}
        self._epoch_gauge = self.metrics.registry.gauge(
            "server_snapshot_epoch",
            "Monotonic epoch of the serving snapshot (bumped by hot swap)")
        self._epoch_gauge.set(0.0)

    # ----------------------------------------------------- oracle pinning

    def _acquire_oracle(self) -> tuple:
        """Pin the current oracle for one request: ``(oracle, epoch)``.

        Every consumer of the oracle takes a lease and releases it in a
        ``finally`` — a hot swap arriving mid-request then retires the old
        oracle without closing it under the request's feet.
        """
        with self._swap_lock:
            self._leases[self._epoch] += 1
            return self.oracle, self._epoch

    def _release_oracle(self, epoch: int) -> None:
        """Drop one lease on ``epoch``; closes its oracle if it was retired
        by a swap and this was the last request still using it."""
        retired = None
        with self._swap_lock:
            remaining = self._leases[epoch] - 1
            if remaining > 0:
                self._leases[epoch] = remaining
            else:
                del self._leases[epoch]
                retired = self._retired.pop(epoch, None)
        if retired is not None:
            retired.close()

    @property
    def epoch(self) -> int:
        """The current snapshot generation (0 until the first swap)."""
        with self._swap_lock:
            return self._epoch

    async def swap_oracle(self, loader) -> int:
        """Atomically replace the oracle (the hot-reload seam); returns the
        new epoch.

        ``loader`` is a zero-argument callable returning the replacement
        oracle; it runs on the executor, so the event loop keeps serving
        from the old snapshot for the whole load.  If it raises, nothing
        changes — the old oracle keeps serving.  After the pointer flip,
        new requests lease the new oracle immediately; the old one is closed
        here if idle, else by the last in-flight request that still leases
        it.  The new oracle's session LRU starts cold (sessions are decoded
        views of the old labels and must not survive the swap) and inherits
        the configured ``max_sessions`` bound.
        """
        loop = asyncio.get_running_loop()
        with self.tracer.span("session.swap"):
            new_oracle = await loop.run_in_executor(self._executor, loader)
        if self._max_sessions is not None:
            new_oracle.SESSION_CACHE_SIZE = self._max_sessions
        retired = None
        with self._swap_lock:
            old_oracle = self.oracle
            old_epoch = self._epoch
            self.oracle = new_oracle
            self._epoch = old_epoch + 1
            epoch = self._epoch
            if self._leases.get(old_epoch, 0) > 0:
                self._retired[old_epoch] = old_oracle
            else:
                retired = old_oracle
        self._epoch_gauge.set(float(epoch))
        if retired is not None:
            retired.close()
        return epoch

    # ------------------------------------------------------------- sessions

    async def session(self, faults: Iterable) -> BatchQuerySession:
        """The shared session for ``faults`` (hit, coalesced wait, or build).

        Raises whatever the oracle raises: :class:`KeyError` for unknown
        fault edges, :class:`ValueError` for over-budget fault sets,
        :class:`~repro.core.query.QueryFailure` when the eager decomposition
        cannot decode (randomized labels — callers fall back per query).
        """
        oracle, epoch = self._acquire_oracle()
        try:
            return await self._session_for(oracle, list(faults))
        finally:
            self._release_oracle(epoch)

    async def _session_for(self, oracle, fault_list: list) -> BatchQuerySession:
        """:meth:`session` against one *pinned* oracle (see ``_acquire_oracle``).

        The loop looks the key up in the oracle's session table (one per
        epoch) without claiming it: a cached session is a hit, a build in
        flight is awaited, and otherwise :meth:`_get_or_build` runs on a
        worker thread.
        """
        # Keying decodes at most f (small) edge labels — cheap enough for the
        # loop, and the worker reuses the labels.
        fault_labels, key = oracle._fault_labels_keyed(fault_list)
        self._record_hot_key(key, fault_list)
        entry, _ = oracle._session_entry(key)
        if isinstance(entry, Future):
            self.metrics.record_session_coalesced()
            return await asyncio.wrap_future(entry)
        if entry is not None:
            self.metrics.record_session_hit()
            return entry
        loop = asyncio.get_running_loop()
        # The span inherits the request's trace id (the server dispatch span
        # set the contextvar), so a slow build is correlated with the client
        # request that triggered it.
        with self.tracer.span("session.build", faults=len(fault_list)):
            return await loop.run_in_executor(
                self._executor, self._get_or_build, oracle, key, fault_labels)

    def _get_or_build(self, oracle, key: tuple,
                      fault_labels: list) -> BatchQuerySession:
        """Claim and build ``key``'s session (a miss, and a failure if it
        raises), or join the build another thread claimed first (coalesced).
        """
        built = False

        def build() -> BatchQuerySession:
            nonlocal built
            built = True
            self.metrics.record_session_miss()
            self._inflight_gauge.inc()
            try:
                return BatchQuerySession(oracle.outdetect, oracle.codec,
                                         fault_labels)
            except BaseException:
                self.metrics.record_session_failure()
                raise
            finally:
                self._inflight_gauge.dec()

        try:
            return oracle._session(key, build)
        finally:
            if not built:
                self.metrics.record_session_coalesced()

    async def connected_many(self, pairs: Sequence[tuple],
                             faults: Iterable = ()) -> list[bool]:
        """Answer many ``(s, t)`` pairs on the shared session for ``faults``.

        The session is ensured first (single-flight), then the answers are
        computed on the executor; a :class:`QueryFailure` during construction
        falls through to the oracle's own per-query fallback.  One oracle is
        pinned for the whole request, so both steps — and the answers — come
        from one snapshot generation even if a swap lands mid-request.
        """
        loop = asyncio.get_running_loop()
        fault_list = list(faults)
        pair_list = list(pairs)
        oracle, epoch = self._acquire_oracle()
        try:
            try:
                await self._session_for(oracle, fault_list)
            except QueryFailure:
                pass  # oracle.connected_many falls back to the per-query engines
            with self.tracer.span("session.decode", pairs=len(pair_list),
                                  faults=len(fault_list)):
                answers = await loop.run_in_executor(
                    self._executor, oracle.connected_many, pair_list,
                    fault_list)
        finally:
            self._release_oracle(epoch)
        self.metrics.add_queries(len(answers))
        return answers

    async def prewarm_sessions(self, fault_sets: Sequence[Iterable]) -> int:
        """Build the sessions of many fault sets ahead of traffic.

        The startup pre-warm and the re-warm after a reload run this.  The
        sets go one at a time through the oracle's session table on a worker
        thread, leaving hot keys and request metrics alone.  A set that names
        an edge the oracle lacks, exceeds the fault budget, or does not
        decode stays cold; the others are still built.  Returns the number of
        distinct sets whose session is cached afterwards.
        """
        loop = asyncio.get_running_loop()
        fault_lists = [list(faults) for faults in fault_sets]
        if not fault_lists:
            return 0
        warmed: dict[tuple, BatchQuerySession] = {}
        oracle, epoch = self._acquire_oracle()
        try:
            with self.tracer.span("session.prewarm",
                                  fault_sets=len(fault_lists)):
                for fault_list in fault_lists:
                    try:
                        session = await loop.run_in_executor(
                            self._executor, oracle.batch_session, fault_list)
                    except (KeyError, ValueError, QueryFailure):
                        continue
                    warmed[session.key] = session
            return sum(1 for key, session in warmed.items()
                       if oracle._session_entry(key)[0] is session)
        finally:
            self._release_oracle(epoch)

    # ------------------------------------------------------------- hot keys

    def _record_hot_key(self, key: tuple, fault_list: list) -> None:
        """Count one lookup of a canonical fault-set key (hit, miss, or wait).

        Every lookup counts — the point is traffic concentration, not cache
        behavior: a key that stays hot is worth pre-warming after restarts
        and sizing ``--max-sessions`` around.  The table is bounded by
        :attr:`HOT_KEY_TRACK_LIMIT` (admission stops once full).
        """
        with self._hot_lock:
            if key not in self._hot_keys and \
                    len(self._hot_keys) >= self.HOT_KEY_TRACK_LIMIT:
                return
            self._hot_keys[key] += 1
            if key not in self._hot_key_names:
                self._hot_key_names[key] = _render_fault_set(fault_list)
            if key not in self._hot_key_faults:
                self._hot_key_faults[key] = [tuple(edge) for edge in fault_list]

    def hot_keys(self, top: int | None = None) -> dict:
        """The ``top`` hottest fault sets as ``{rendered fault set: lookups}``.

        Rendered deterministically (count-descending, then name) so the
        Prometheus family ``session_hot_keys{key=...}`` is stable between
        scrapes.
        """
        if top is None:
            top = self.HOT_KEY_TOP_K
        with self._hot_lock:
            ranked = sorted(self._hot_keys.items(),
                            key=lambda item: (-item[1], self._hot_key_names[item[0]]))
            # Truncated renderings of two large distinct fault sets can
            # coincide; every key of an ambiguous name gets a digest suffix —
            # unconditionally, so one Prometheus series never switches which
            # fault set it counts as their ranks change between scrapes.
            name_owners: Counter = Counter(self._hot_key_names.values())
            report: dict = {}
            for key, count in ranked[:top]:
                name = self._hot_key_names[key]
                if name_owners[name] > 1:
                    name = "%s#%s" % (name, _key_digest(key))
                report[name] = count
            return report

    def hot_fault_sets(self, top: int | None = None) -> list[list]:
        """The ``top`` hottest fault sets as replayable edge lists.

        Ranked like :meth:`hot_keys` (count-descending, then rendered name,
        so the order is deterministic); each entry is the first-seen raw
        fault list for that canonical key — exactly what
        :meth:`prewarm_sessions` (and the ``repro.pool`` restart pre-warm
        file) takes.
        """
        if top is None:
            top = self.HOT_KEY_TOP_K
        with self._hot_lock:
            ranked = sorted(self._hot_keys.items(),
                            key=lambda item: (-item[1], self._hot_key_names[item[0]]))
            return [list(self._hot_key_faults[key]) for key, _ in ranked[:top]
                    if key in self._hot_key_faults]

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Metrics plus the oracle's cache occupancy, as one JSON-ready dict."""
        stats = self.metrics.snapshot()
        stats["session_cache"] = self.oracle.session_cache_info()
        stats["inflight_builds"] = int(self._inflight_gauge.value())
        stats["snapshot_epoch"] = self.epoch
        # The *_by_key suffix makes the Prometheus renderer emit one labeled
        # family: repro_server_session_hot_keys{key="a-b,c-d"} N.
        stats["session_hot_keys_by_key"] = self.hot_keys()
        with self._hot_lock:
            stats["session_hot_keys_tracked"] = len(self._hot_keys)
        return stats

    def close(self) -> None:
        """Shut down the worker pool (only if this manager created it) and
        close any swap-retired oracles still waiting on a drain."""
        if self._own_executor:
            self._executor.shutdown(wait=True)
        with self._swap_lock:
            retired = list(self._retired.values())
            self._retired.clear()
        for oracle in retired:
            oracle.close()


def _key_digest(key: tuple) -> str:
    """Short stable digest of a canonical fault key (collision tiebreak)."""
    import hashlib

    return hashlib.blake2b(repr(key).encode(), digest_size=3).hexdigest()


def _render_fault_set(fault_list: list) -> str:
    """A compact, human-identifiable rendering of one fault set.

    Uses the client-facing edges (not the opaque canonical key) so operators
    can replay the set against ``client-query --fault``; sorted so
    permutations of one set render identically.
    """
    if not fault_list:
        return "(none)"
    rendered = sorted({"%s-%s" % (u, v) for u, v in fault_list})
    if len(rendered) > 8:
        rendered = rendered[:8] + ["+%d" % (len(rendered) - 8)]
    return ",".join(rendered)


__all__ = ["SessionManager"]
