#!/usr/bin/env python3
"""Serving benchmark: cold-faults and edit-churn (see README.md).

Run from the repository root::

    python3 perfbench/run.py --workload cold-faults --seed 1 --seconds 24 --trace 0

Drives the product path from this one load-generator process:
``Oracle.build`` -> an FTCS snapshot in a fresh temporary directory -> a
``repro serve`` subprocess -> wire clients.  Every answer is checked against
BFS truth computed here from the edge list, never by an oracle.  Each metric
is printed on its own line with unit and sample count; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json, or its
``per_layer`` metrics with ``--trace 1``).  The exit code is 0 only when every
hard check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import queue
import random
import secrets
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"

sys.path.insert(0, str(HERE))

from spans import Recorder, seconds, self_times  # noqa: E402

WORKLOADS = ("cold-faults", "edit-churn")


#: The graph, the fault-set panel and the edit-churn chord are drawn from
#: this seed, and the cold panel is sent in a fixed order.  Decoding one
#: tree-biased fault set costs from 30 ms to over 1 s, and what a set costs
#: also depends on which labels earlier requests decoded; panels drawn, or
#: orders shuffled, per run seed moved the cold p50 by 25% between runs.
#: ``--seed`` draws the query pairs of every request.
FIXED_SEED = 23
N = 300
DENSITY = 2.5
MAX_FAULTS = 3
PAIRS = 50
HOT_SETS = 4
COLD_WARMUP = 2
#: Cold-faults sends the whole panel, whatever ``--seconds`` says, so every
#: run answers the same sets; it takes about 20 s on a 2-vCPU VM, and a
#: traced run, which sends it twice, about a minute.
COLD_PANEL = 36
#: Set-ups per run: the last of the first ``SETUPS - SETUPS // 2`` serves the
#: timed phase, and ``SETUPS // 2`` more follow it, so that their median
#: samples the host across the whole run.
SETUPS = 5
#: Edit-churn applies one edit per period of the timed phase (at least one).
EDIT_PERIOD_S = 20.0
#: Open-loop read rate of edit-churn, per second.
READ_RATE = 100.0
#: Socket timeout for one request or reload; past it the operation fails.
TIMEOUT_S = 60.0


# ------------------------------------------------------------------ inputs

def make_graph(n: int):
    """Erdős–Rényi G(n, m) with m = DENSITY * n, components linked in order."""
    import networkx as nx
    from repro.graphs.graph import Graph

    nx_graph = nx.gnm_random_graph(n, max(int(DENSITY * n), n), seed=FIXED_SEED)
    if not nx.is_connected(nx_graph):
        components = [sorted(component)
                      for component in nx.connected_components(nx_graph)]
        for first, second in zip(components, components[1:]):
            nx_graph.add_edge(first[0], second[0])
    return Graph.from_networkx(nx_graph)


def edge(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


def adjacency(edges: set) -> dict:
    neighbours: dict = {}
    for u, v in edges:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    for vertex in neighbours:
        neighbours[vertex].sort()
    return neighbours


def components(edges: set, faults: list) -> dict:
    """Vertex -> smallest vertex of its component in the graph minus
    ``faults``, by BFS."""
    removed = {edge(u, v) for u, v in faults}
    neighbours = adjacency(edges)
    component: dict = {}
    for start in sorted(neighbours):
        if start in component:
            continue
        component[start] = start
        frontier = deque([start])
        while frontier:
            vertex = frontier.popleft()
            for other in neighbours[vertex]:
                if other not in component and edge(vertex, other) not in removed:
                    component[other] = start
                    frontier.append(other)
    return component


def bfs_truth(edges: set, faults: list, pairs: list) -> list:
    """Connectivity of each pair in the graph minus ``faults``, by BFS."""
    component = components(edges, faults)
    return [component[s] == component[t] for s, t in pairs]


def tree_edges(edges: set) -> list:
    """Edges of the BFS tree rooted at the smallest vertex."""
    neighbours = adjacency(edges)
    root = min(neighbours)
    seen = {root}
    frontier = deque([root])
    tree = []
    while frontier:
        vertex = frontier.popleft()
        for other in neighbours[vertex]:
            if other not in seen:
                seen.add(other)
                tree.append(edge(vertex, other))
                frontier.append(other)
    return sorted(tree)


def fault_panel(edges: set, size: int) -> list:
    """``size`` distinct tree-biased fault sets of ``MAX_FAULTS`` tree edges."""
    rng = random.Random(FIXED_SEED)
    pool = tree_edges(edges)
    seen: set = set()
    panel = []
    while len(panel) < size:
        chosen = sorted(rng.sample(pool, MAX_FAULTS))
        key = tuple(chosen)
        if key not in seen:
            seen.add(key)
            panel.append(chosen)
    return panel


def request_line(pairs: list, faults: list) -> bytes:
    payload = {"op": "connected_many", "pairs": [list(pair) for pair in pairs],
               "faults": [list(fault) for fault in faults]}
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


class Failure(Exception):
    """A hard check failed: the run's answers or state are wrong."""


@dataclass
class Query:
    """One pre-encoded ``connected_many`` request and its BFS truth."""

    faults: list
    pairs: list
    line: bytes
    truth: list
    #: Truth per graph version (edit-churn); ``truth`` is version 0.
    versions: list = field(default_factory=list)


class Inputs:
    """Everything generated before set-up: graph, panels, pairs and truth."""

    def __init__(self, workload: str, seed: int):
        self.graph = make_graph(N)
        self.edges = {edge(u, v) for u, v in self.graph.edges()}
        vertices = sorted({vertex for pair in self.edges for vertex in pair})
        rng = random.Random(seed)
        panel = fault_panel(self.edges, HOT_SETS + COLD_WARMUP + COLD_PANEL)
        # Edit-churn adds a chord, then removes it again.  The chord joins a
        # piece that the first hot set cuts off to the rest of the graph, so
        # the edit changes that set's answer for a pair across the cut; being
        # a new edge, it never touches a hot-set fault.  The first panel set
        # that cuts a piece off is made the first hot set.
        cutting = next((index for index, faults in enumerate(panel)
                        if len(set(components(self.edges, faults).values())) > 1),
                       None)
        if cutting is None:
            raise Failure("no fault set of the panel cuts the graph")
        panel.insert(0, panel.pop(cutting))
        component = components(self.edges, panel[0])
        piece = min(vertex for vertex in vertices if component[vertex] != vertices[0])
        chord_rng = random.Random(FIXED_SEED)
        while True:
            other = chord_rng.choice(vertices)
            if component[other] == vertices[0] and edge(piece, other) not in self.edges:
                break
        chord = edge(piece, other)

        def query(faults: list, cross: tuple | None = None) -> Query:
            pairs = [tuple(rng.sample(vertices, 2)) for _ in range(PAIRS)]
            if cross is not None:
                pairs[0] = cross
            return Query(faults, pairs, request_line(pairs, faults),
                         bfs_truth(self.edges, faults, pairs))

        self.hot = [query(faults, chord if index == 0 else None)
                    for index, faults in enumerate(panel[:HOT_SETS])]
        cold = panel[HOT_SETS:]
        self.cold_warmup = [query(faults) for faults in cold[:COLD_WARMUP]]
        self.cold = [query(faults) for faults in cold[COLD_WARMUP:]] \
            if workload == "cold-faults" else []
        # Version 0 is the base graph, version 1 has the chord.
        self.edits: list = []
        if workload == "edit-churn":
            self.edits = [("add", chord, 1), ("remove", chord, 0)]
            for hot in self.hot:
                hot.versions = [bfs_truth(edges, hot.faults, hot.pairs)
                                for edges in (self.edges, self.edges | {chord})]


# ------------------------------------------------------------------ server

class ServerProcess:
    """A ``repro serve`` subprocess started through ``serve.py``."""

    def __init__(self, snapshot: Path, token: str, traced: bool,
                 spans_path: Path, log_path: Path):
        self.token = token
        command = [sys.executable, str(HERE / "serve.py")]
        if traced:
            command += ["--spans-out", str(spans_path)]
        command += ["--", "--snapshot", str(snapshot), "--port", "0",
                    "--reload-token", token]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stderr=self._log, cwd=str(ROOT), env=env)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.port: int | None = None
        self.prewarmed = 0

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError("server not ready within %.0f s" % timeout)
            if line is None:
                raise RuntimeError("server exited before serving (code %s)"
                                   % self.process.wait())
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict) and event.get("event") == "serving":
                self.port = int(event["port"])
                self.prewarmed = int(event.get("prewarmed_sessions") or 0)
                return

    def cpu_s(self) -> float:
        """utime + stime of the server, children included (/proc/<pid>/stat)."""
        with open("/proc/%d/stat" % self.process.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return sum(int(value) for value in fields[11:15]) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.process.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()
        self._log.close()


class WireClient:
    """A blocking newline-JSON connection; one request in flight at a time."""

    def __init__(self, port: int, timeout: float):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def call(self, line: bytes) -> dict:
        self.sock.sendall(line)
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        response, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(response)

    def op(self, payload: dict) -> dict:
        return self.call(json.dumps(payload).encode() + b"\n")

    def close(self) -> None:
        self.sock.close()


# ------------------------------------------------------------------ a run

@dataclass
class Ledger:
    """Operations attempted and failed, and the hard checks that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def answer(self, client: WireClient, query: Query) -> bool:
        """Send one query; True when it was answered (right or wrong)."""
        self.attempted += 1
        try:
            response = client.call(query.line)
        except (OSError, ValueError) as error:
            self.failed += 1
            self.problems.append("request failed: %s" % error)
            return False
        if not response.get("ok"):
            self.failed += 1
            self.problems.append("error envelope: %s" % response.get("error"))
            return False
        self.check(response["result"]["connected"] == query.truth,
                   "wrong answer for faults %s" % query.faults)
        return True


@dataclass
class Setup:
    """One set-up: labels built, snapshot saved, server serving and warm."""

    run_dir: Path
    snapshot: Path
    oracle: Any
    server: ServerProcess
    client: WireClient
    spans_path: Path
    setup_s: float
    ready_s: float
    stages: dict
    save_s: float
    snapshot_bytes: int
    label_bits_max: int


def new_run_dir() -> Path:
    RUNS.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=RUNS))


def set_up(inputs: Inputs, ledger: Ledger, traced: bool,
           recorder: Recorder, warm: list) -> Setup:
    from repro.api import Oracle

    run_dir = new_run_dir()
    snapshot = run_dir / "graph.ftcs"
    spans_path = run_dir / "spans.json"
    server = None
    # A set-up starts from a clean heap, as in a fresh process, not with the
    # garbage of the set-ups before it.
    gc.collect()
    try:
        with recorder.span("setup") as setup_span:
            with recorder.span("build"):
                oracle = Oracle.build(inputs.graph, max_faults=MAX_FAULTS)
            with recorder.span("snapshot.save") as save_span:
                save_span["bytes"] = oracle.save(snapshot)
            with recorder.span("server.ready") as ready_span:
                server = ServerProcess(snapshot, secrets.token_hex(8), traced,
                                       spans_path, run_dir / "server.log")
                server.wait_ready(timeout=TIMEOUT_S)
            client = WireClient(server.port, TIMEOUT_S)
            for query in warm:
                ledger.answer(client, query)
    except BaseException:
        if server is not None:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        raise
    ledger.check(server.prewarmed == 0,
                 "server pre-warmed %d sessions from a leftover hot-key file"
                 % server.prewarmed)
    return Setup(run_dir, snapshot, oracle, server, client, spans_path,
                 seconds(setup_span), seconds(ready_span),
                 dict(oracle.build_report.stage_seconds), seconds(save_span),
                 save_span["bytes"],
                 oracle.label_size_stats()["max_edge_label_bits"])


def tear_down(setup: Setup) -> list:
    """Stop the server; returns its recorded spans (none when untraced)."""
    setup.client.close()
    setup.server.stop()
    setup.oracle = None
    spans: list = []
    if setup.spans_path.exists():
        spans = json.loads(setup.spans_path.read_text())
    shutil.rmtree(setup.run_dir, ignore_errors=True)
    return spans


def server_stats(setup: Setup, ledger: Ledger) -> dict:
    ledger.attempted += 1
    response = setup.client.op({"op": "stats"})
    if not response.get("ok"):
        ledger.failed += 1
        raise Failure("stats op failed: %s" % response.get("error"))
    return response["result"]["server"]


def quantile(values: list, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list) -> tuple:
    """The highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    for q, name in ((0.99, "p99"), (0.90, "p90"), (0.75, "p75"), (0.50, "p50")):
        if len(values) * (1 - q) >= 10:
            return quantile(values, q), name
    return quantile(values, 0.5), "p50"


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: list = field(default_factory=list)
    #: Send to response, without the wait before sending (open loop).
    service: list = field(default_factory=list)
    late: list = field(default_factory=list)
    wall_s: float = 0.0
    start: float = 0.0
    end: float = 0.0
    server_cpu_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    sessions_before: dict = field(default_factory=dict)
    sessions_after: dict = field(default_factory=dict)
    server_p50_ms: float = 0.0
    peak_rss_mb: float = 0.0
    edits: list = field(default_factory=list)


def closed_loop(setup: Setup, ledger: Ledger, queries: list) -> Phase:
    """Send ``queries`` one at a time, each after the previous answer."""
    phase = Phase()
    client = setup.client
    cpu = setup.server.cpu_s()
    loadgen_cpu = time.process_time()
    phase.start = time.perf_counter()
    for query in queries:
        sent = time.perf_counter()
        if ledger.answer(client, query):
            phase.latencies.append(time.perf_counter() - sent)
            phase.service.append(phase.latencies[-1])
    phase.end = time.perf_counter()
    phase.wall_s = phase.end - phase.start
    phase.server_cpu_s = setup.server.cpu_s() - cpu
    phase.loadgen_cpu_s = time.process_time() - loadgen_cpu
    return phase


@dataclass
class Prepared:
    """One edit of edit-churn, prepared before the timed phase."""

    kind: str
    chord: tuple
    data: bytes
    version: int
    prep_s: float
    incremental_s: float
    reused_levels: int
    diff_s: float
    apply_s: float
    delta_bytes: int


@dataclass
class LiveEdit:
    """One prepared edit applied to the live server: rename + ``reload``."""

    prepared: Prepared
    sent: float
    done: float
    reload_s: float = 0.0
    rewarmed: int = 0
    stall_s: float = 0.0

    @property
    def update_s(self) -> float:
        return self.prepared.prep_s + self.done - self.sent


def prepare_edits(inputs: Inputs, setup: Setup, ledger: Ledger,
                  recorder: Recorder) -> list:
    """build_delta -> snapshot bytes -> diff against the served bytes ->
    apply onto a copy, for every edit of the cycle."""
    from repro.api import Oracle
    from repro.delta import apply_delta, diff_snapshots

    base_bytes = setup.snapshot.read_bytes()
    oracle, served = setup.oracle, base_bytes
    prepared = []
    for index, (kind, chord, version) in enumerate(inputs.edits):
        with recorder.span("edit.prepare") as prepare:
            with recorder.span("build.incremental") as incremental:
                if kind == "add":
                    oracle = Oracle.build_delta(oracle, add_edges=[chord])
                else:
                    oracle = Oracle.build_delta(oracle, remove_edges=[chord])
            with recorder.span("snapshot.bytes"):
                target = oracle.to_snapshot_bytes()
            with recorder.span("delta.diff") as diff:
                delta = diff_snapshots(served, target)
            with recorder.span("delta.apply") as apply:
                rebuilt = apply_delta(bytes(served), delta)
        ledger.check(rebuilt == target, "edit %d: apply_delta(diff) differs "
                     "from the target snapshot" % index)
        if kind == "remove":
            ledger.check(rebuilt == base_bytes, "edit %d: removing the chord "
                         "did not restore the base snapshot" % index)
        prepared.append(Prepared(kind, chord, rebuilt, version, seconds(prepare),
                                 seconds(incremental),
                                 oracle.build_report.reused_level_count,
                                 seconds(diff), seconds(apply), len(delta)))
        served = rebuilt
    return prepared


def edit_churn_phase(inputs: Inputs, setup: Setup, ledger: Ledger,
                     prepared: list, seconds: float) -> Phase:
    """Open-loop reads on one connection while, on another, the prepared
    edits are applied in turn, one per ``EDIT_PERIOD_S``.

    The period leaves the reads time to drain the backlog of each reload
    window: edits sent back to back stall a single read connection for
    good, and its latency then grows with the length of the run.
    """
    phase = Phase()
    period = 1.0 / READ_RATE
    reads: list = []
    staging = setup.run_dir / "staging.ftcs"
    cpu = setup.server.cpu_s()
    loadgen_cpu = time.process_time()
    phase.start = time.perf_counter()
    deadline = phase.start + seconds

    def read_loop() -> None:
        count = 0
        while True:
            due = phase.start + count * period
            if due >= deadline:
                return
            hot = count % len(inputs.hot)
            count += 1
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            try:
                response: Any = setup.client.call(inputs.hot[hot].line)
            except (OSError, ValueError) as error:
                reads.append((due, sent, time.perf_counter(), hot, error))
                return
            reads.append((due, sent, time.perf_counter(), hot, response))

    reader = threading.Thread(target=read_loop)
    reader.start()
    editor = WireClient(setup.server.port, TIMEOUT_S)
    live: list = []
    try:
        for index in range(max(1, int(seconds // EDIT_PERIOD_S))):
            edit = prepared[index % len(prepared)]
            staging.write_bytes(edit.data)
            start_at = phase.start + (index + 0.15) * EDIT_PERIOD_S
            now = time.perf_counter()
            if now < start_at:
                time.sleep(start_at - now)
            ledger.attempted += 1
            sent = time.perf_counter()
            os.replace(staging, setup.snapshot)
            try:
                response = editor.op({"op": "reload", "token": setup.server.token})
            except (OSError, ValueError) as error:
                response = {"ok": False, "error": str(error)}
            applied = LiveEdit(edit, sent, time.perf_counter())
            if not response.get("ok") or \
                    response["result"].get("epoch") != len(live) + 1:
                ledger.failed += 1
                ledger.problems.append("reload %d failed: %s" % (len(live), response))
                break
            applied.reload_s = float(response["result"]["seconds"])
            applied.rewarmed = int(response["result"]["rewarmed_sessions"])
            live.append(applied)
    finally:
        reader.join()
        editor.close()
    phase.end = time.perf_counter()
    phase.wall_s = phase.end - phase.start
    phase.server_cpu_s = setup.server.cpu_s() - cpu
    phase.loadgen_cpu_s = time.process_time() - loadgen_cpu

    # State k (0 = before any edit) may be served from the moment reload k
    # is sent until reload k+1 returns; a read must equal the whole truth
    # of the graph version of one state its [sent, done] interval overlaps.
    opens = [float("-inf")] + [edit.sent for edit in live]
    closes = [edit.done for edit in live] + [float("inf")]
    versions = [0] + [edit.prepared.version for edit in live]
    for due, sent, done, hot, response in reads:
        ledger.attempted += 1
        if not isinstance(response, dict) or not response.get("ok"):
            ledger.failed += 1
            ledger.problems.append("read failed: %s" % (response,))
            continue
        answer = response["result"]["connected"]
        allowed = {versions[state] for state in range(len(opens))
                   if sent <= closes[state] and done >= opens[state]}
        ledger.check(any(answer == inputs.hot[hot].versions[version]
                         for version in allowed),
                     "read of hot set %d matches no graph version in %s"
                     % (hot, sorted(allowed)))
        phase.latencies.append(done - due)
        phase.service.append(done - sent)
        phase.late.append(sent - due)
    for edit in live:
        edit.stall_s = max((done - due for due, _, done, _, _ in reads
                            if edit.sent <= due <= edit.done), default=0.0)
    phase.edits = live
    return phase


# ------------------------------------------------------------------ workloads

def warm_queries(inputs: Inputs, workload: str) -> list:
    return inputs.cold_warmup if workload == "cold-faults" else inputs.hot


def timed_phase(workload: str, inputs: Inputs, setup: Setup, ledger: Ledger,
                seconds: float, prepared: list) -> Phase:
    before = server_stats(setup, ledger)["sessions"]
    if workload == "cold-faults":
        phase = closed_loop(setup, ledger, inputs.cold)
    else:
        phase = edit_churn_phase(inputs, setup, ledger, prepared, seconds)
    after = server_stats(setup, ledger)
    phase.sessions_before, phase.sessions_after = before, after["sessions"]
    phase.server_p50_ms = float(
        after["latency_by_op"].get("connected_many", {}).get("p50_ms", 0.0))
    phase.peak_rss_mb = setup.server.peak_rss_mb()
    requests = len(phase.latencies)
    ledger.check(requests > 0, "no request was answered in the timed phase")
    if workload == "cold-faults":
        delta = {key: phase.sessions_after[key] - before[key]
                 for key in ("hits", "misses", "coalesced")}
        ledger.check(requests == len(inputs.cold),
                     "cold-faults: %d of %d cold sets answered"
                     % (requests, len(inputs.cold)))
        ledger.check(delta["hits"] == 0 and delta["coalesced"] == 0
                     and delta["misses"] == requests,
                     "cold-faults: %s session lookups for %d novel requests"
                     % (delta, requests))
    return phase


@dataclass
class Pass:
    """Set-ups plus one timed phase, with the server's spans if traced."""

    setups: list
    phase: Phase
    spans: list
    loadgen_spans: list
    prepared: list


def run_pass(workload: str, inputs: Inputs, seconds: float, ledger: Ledger,
             setups: int, prepared: list | None, traced: bool = False) -> Pass:
    """Set up ``setups`` times and run the timed phase on one of them.

    The last of the first ``setups - setups // 2`` set-ups serves the timed
    phase, and ``setups // 2`` more follow it.  Edit-churn prepares its edits
    on the first pass (``prepared is None``) from the serving set-up's build;
    builds are deterministic, so later passes reuse them (their served bytes
    are checked to be the same).
    """
    recorder = Recorder()
    warm = warm_queries(inputs, workload)
    done: list = []
    setup = None
    try:
        for _ in range(setups - setups // 2):
            if setup is not None:
                tear_down(setup)
            setup = set_up(inputs, ledger, traced, recorder, warm)
            done.append(setup)
        if workload == "edit-churn":
            if prepared is None:
                prepared = prepare_edits(inputs, setup, ledger, recorder)
            else:
                ledger.check(setup.snapshot.read_bytes() == prepared[-1].data,
                             "the base snapshot differs between passes")
        phase = timed_phase(workload, inputs, setup, ledger, seconds, prepared or [])
        spans = tear_down(setup)
        setup = None
        for _ in range(setups // 2):
            done.append(set_up(inputs, ledger, traced, recorder, warm))
            tear_down(done[-1])
    finally:
        if setup is not None:
            tear_down(setup)
    bits = {item.label_bits_max for item in done}
    sizes = {item.snapshot_bytes for item in done}
    ledger.check(len(bits) == 1 and len(sizes) == 1,
                 "set-ups disagree: label bits %s, snapshot bytes %s" % (bits, sizes))
    return Pass(done, phase, spans, recorder.spans, prepared or [])


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value & 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000.0


# ------------------------------------------------------------------ metrics

def ms(values: list) -> list:
    return [value * 1000.0 for value in values]


def end_to_end(workload: str, run: Pass) -> dict:
    """name -> (value, unit, samples, note)."""
    phase = run.phase
    latencies = ms(phase.latencies)
    requests = len(latencies)
    metrics: dict = {
        "setup_s": (statistics.median(item.setup_s for item in run.setups), "s",
                    len(run.setups), ""),
        "latency_p50_ms": (statistics.median(latencies), "ms", requests, ""),
        "server_cpu_ms_per_req": (phase.server_cpu_s * 1000.0 / requests, "ms",
                                  requests, ""),
        "peak_rss_mb": (phase.peak_rss_mb, "MB", 1, ""),
        "label_bits_max": (float(run.setups[-1].label_bits_max), "bits", 1, ""),
    }
    value, name = tail(latencies)
    metrics["latency_tail_ms"] = (value, "ms", requests,
                                  "%s, %d beyond" % (name, sum(1 for latency in latencies
                                                             if latency > value)))
    if workload == "cold-faults":
        metrics["throughput_per_s"] = (requests / phase.wall_s, "1/s", requests, "")
    if workload == "edit-churn" and phase.edits:
        metrics["update_s"] = (statistics.median(edit.update_s for edit in phase.edits),
                               "s", len(phase.edits), "")
        metrics["swap_stall_ms"] = (statistics.median(edit.stall_s * 1000.0
                                                      for edit in phase.edits),
                                    "ms", len(phase.edits), "")
    return metrics


def median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(plain: Pass, traced: Pass, probe_ms: float) -> dict:
    """name -> (value, unit, samples, note).

    Counters and the server's own statistics come from the untraced pass,
    span times from the traced one, and only from spans that started in its
    timed phase.  Decode-layer numbers are per session built there (0 when
    none was).
    """
    metrics: dict = {}
    setups = plain.setups + traced.setups

    def put(name: str, value: float, unit: str, samples: int) -> None:
        metrics[name] = (float(value), unit, samples, "")

    for stage in ("spanning", "hierarchy", "outdetect", "assembly"):
        put("build.%s_s" % stage, statistics.median(
            item.stages.get(stage, 0.0) for item in setups), "s", len(setups))
    edits = plain.prepared
    put("build.incremental_s", median_or_zero([e.incremental_s for e in edits]),
        "s", len(edits))
    put("build.reused_levels", statistics.mean([e.reused_levels for e in edits])
        if edits else 0.0, "count", len(edits))
    put("delta.diff_s", median_or_zero([e.diff_s for e in edits]), "s", len(edits))
    put("delta.apply_s", median_or_zero([e.apply_s for e in edits]), "s", len(edits))
    put("delta.bytes", median_or_zero([e.delta_bytes for e in edits]), "bytes",
        len(edits))
    put("snapshot.save_s", statistics.median(item.save_s for item in setups), "s",
        len(setups))
    put("snapshot.bytes", setups[-1].snapshot_bytes, "bytes", 1)
    loads = [span["end"] - span["start"] for span in traced.spans
             if span["name"] == "snapshot.load"]
    put("snapshot.load_s", median_or_zero(loads), "s", len(loads))
    put("server.ready_s", statistics.median(item.ready_s for item in setups), "s",
        len(setups))

    phase = plain.phase
    requests = len(phase.latencies)
    put("server.cpu_s", phase.server_cpu_s, "s", requests)
    put("server.request_p50_ms", phase.server_p50_ms, "ms", requests)
    timed = [span for span in traced.spans
             if traced.phase.start <= span["start"] <= traced.phase.end]
    own = self_times(traced.spans)

    def p50_of(name: str, self_time: bool = False) -> tuple:
        values = [(own[span["id"]] if self_time else span["end"] - span["start"])
                  * 1000.0 for span in timed if span["name"] == name]
        return median_or_zero(values), len(values)

    dispatch_ms, samples = p50_of("wire.dispatch")
    put("wire.overhead_p50_ms",
        statistics.median(ms(traced.phase.service)) - dispatch_ms, "ms", samples)
    for metric, name, self_time in (("server.parse_ms", "wire.parse", False),
                                    ("server.session_ms", "session.connected_many", True),
                                    ("server.answer_ms", "session.answer", False),
                                    ("server.encode_ms", "wire.encode", False)):
        value, samples = p50_of(name, self_time)
        put(metric, value, "ms", samples)

    delta = {key: phase.sessions_after[key] - phase.sessions_before[key]
             for key in ("hits", "misses", "coalesced")}
    lookups = sum(delta.values())
    put("server.session_hits", delta["hits"], "count", lookups)
    put("server.session_misses", delta["misses"], "count", lookups)
    put("server.session_coalesced", delta["coalesced"], "count", lookups)
    put("server.hit_ratio", delta["hits"] / lookups if lookups else 0.0, "ratio",
        lookups)
    live = phase.edits
    rewarmed = sum(edit.rewarmed for edit in live)
    put("server.reload_s", median_or_zero([edit.reload_s for edit in live]), "s",
        len(live))
    put("server.rewarmed_per_edit", rewarmed / len(live) if live else 0.0, "count",
        len(live))
    put("server.misses_per_edit", delta["misses"] / len(live) if live else 0.0,
        "count", len(live))
    put("server.rewarm_yield", 1.0 - delta["misses"] / rewarmed if rewarmed else 0.0,
        "ratio", len(live))

    builds = [span for span in timed if span["name"] == "session.build"]
    count = len(builds)
    durations = [(span["end"] - span["start"]) * 1000.0 for span in builds]
    put("session.build_ms_p50", median_or_zero(durations), "ms", count)
    put("session.build_ms_max", max(durations, default=0.0), "ms", count)

    def per_build(name: str, value: Callable[[dict], float]) -> float:
        if not count:
            return 0.0
        return sum(value(span) for span in timed if span["name"] == name) / count

    def seconds_ms(span: dict) -> float:
        return (span["end"] - span["start"]) * 1000.0

    def one(span: dict) -> float:
        return 1.0

    put("query.fragment_ms", per_build("query.fragment", seconds_ms), "ms", count)
    put("query.fragments", median_or_zero([span["fragments"] for span in builds]),
        "count", count)
    put("outdetect.decode_calls", per_build("outdetect.decode_many", one), "count",
        count)
    put("outdetect.labels", per_build("outdetect.decode_many",
                                      lambda span: span["labels"]), "count", count)
    for level in range(3):
        put("outdetect.labels_level%d" % level, per_build(
            "outdetect.level",
            lambda span: span["labels"] if span["level"] == level else 0),
            "count", count)
    put("coding.bm_ms", per_build("coding.bm", seconds_ms), "ms", count)
    put("coding.roots_ms", per_build("coding.roots", seconds_ms), "ms", count)
    put("coding.verify_ms", per_build("coding.verify", seconds_ms), "ms", count)
    put("coding.rounds", per_build("coding.bm", one), "count", count)
    put("coding.locators", per_build("coding.bm", lambda span: span["locators"]),
        "count", count)
    put("coding.locator_degree_sum", per_build("coding.bm",
                                               lambda span: span["degree_sum"]),
        "count", count)
    rooted = sum(span["rooted"] for span in timed if span["name"] == "coding.roots")
    verified = sum(span["verified"] for span in timed
                   if span["name"] == "coding.decode_many")
    put("coding.round_yield", verified / rooted if rooted else 0.0, "ratio", rooted)
    put("gf2.field_muls", per_build("session.build", lambda span:
                                    span["gf2.mul_calls"] + span["gf2.mul_lanes"]),
        "count", count)
    put("gf2.chien_calls", per_build("session.build",
                                     lambda span: span["gf2.chien_calls"]),
        "count", count)

    put("loadgen.cpu_s", phase.loadgen_cpu_s, "s", requests)
    put("loadgen.late_p50_ms", median_or_zero(ms(phase.late)), "ms", len(phase.late))
    put("loadgen.late_max_ms", max(ms(phase.late), default=0.0), "ms", len(phase.late))
    put("host.probe_ms", probe_ms, "ms", 2)
    untraced = statistics.median(phase.latencies)
    put("trace.overhead_pct", 100.0 * (statistics.median(traced.phase.latencies)
                                       - untraced) / untraced, "%",
        len(traced.phase.latencies))
    return metrics


# ------------------------------------------------------------------ main

def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print("error: %s does not hold the repro package" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = declared_metrics(bool(args.trace))
    # Imported before anything is timed, so the first set-up's build does
    # not pay for the load generator's imports.
    import repro.api  # noqa: F401
    import repro.delta  # noqa: F401

    probe_before = host_probe_ms()
    ledger = Ledger()
    try:
        inputs = Inputs(args.workload, args.seed)
        if args.workload == "edit-churn":
            ledger.check(any(hot.versions[0] != hot.versions[1] for hot in inputs.hot),
                         "the edit changes no answer of a hot set")
        if not args.trace:
            plain = run_pass(args.workload, inputs, args.seconds, ledger,
                             SETUPS, None)
        else:
            # An untraced pass, the baseline of trace.overhead_pct, then the
            # traced pass the per-layer numbers come from.
            plain = run_pass(args.workload, inputs, args.seconds, ledger, 1, None)
            traced = run_pass(args.workload, inputs, args.seconds, ledger, 1,
                              plain.prepared, traced=True)
    except Exception as error:  # reported as a failed run, with the traceback
        traceback.print_exc()
        ledger.problems.append("%s: %s" % (type(error).__name__, error))
    probe_ms = (probe_before + host_probe_ms()) / 2.0
    metrics: dict = {}
    if not ledger.problems:
        metrics = end_to_end(args.workload, plain)
        metrics["host.probe_ms"] = (probe_ms, "ms", 2, "")
        if args.trace:
            metrics.update(per_layer(plain, traced, probe_ms))
            trace_path = RUNS / ("trace-%s-seed%d.json" % (args.workload, args.seed))
            trace_path.write_text(json.dumps({"loadgen": traced.loadgen_spans,
                                              "server": traced.spans}))
            print("spans written to %s" % trace_path.relative_to(ROOT))
    for problem in ledger.problems:
        print("CHECK FAILED: %s" % problem)
    for name, (value, unit, samples, note) in metrics.items():
        print("%s %s = %.6g %s (n=%d%s)" % (args.workload, name, value, unit, samples,
                                           ", " + note if note else ""))
    correct = not ledger.problems
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in names if name in metrics}}
    print(json.dumps(result), flush=True)
    return 0 if correct and ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
