"""Command-line interface for the f-FTC labeling scheme.

Every subcommand that answers queries programs against the oracle protocol of
:mod:`repro.api` — it never constructs a transport-specific oracle class,
rehydrates a snapshot, or opens a socket directly.  Transport selection is
one flag: ``--oracle`` takes a URI (``build:EDGELIST``, ``snapshot:PATH.ftcs``,
``tcp://HOST:PORT``) and the legacy ``--edges`` / ``--snapshot`` flags are
sugar for the first two.
Construction likewise goes through the one build facade of
:mod:`repro.build`: ``--jobs N`` (or a ``build:...?jobs=N`` URI) shards
label construction across N processes, byte-identical to a serial build;
on ``serve`` the flag instead bounds the session-building worker threads.

Twelve subcommands cover the typical workflow:

``stats``
    Build labels for a graph (edge-list file) and print label-size
    statistics; with ``--oracle`` print any transport's normalized
    ``OracleStats`` instead (``--prometheus`` renders them in Prometheus
    text exposition format).
``query``
    Build labels and answer one connectivity query under faults.
``batch-query``
    Fix one fault set and answer many ``(s, t)`` pairs through a shared
    batch session.  ``--oracle`` selects the transport; ``--snapshot``
    serves from a saved labeling (``--edges`` is then only needed for
    ``--check``), and ``tcp://`` URIs query a running server.
``audit``
    Audit a batch of random queries against BFS ground truth.  Accepts
    ``--snapshot`` to answer from a saved labeling (``--edges`` is still
    required: ground truth needs the graph).
``export-labels``
    Serialize every vertex and edge label to the versioned per-label byte
    format (hex-encoded JSON) so labels can be stored and shipped.
``save-labeling``
    Build labels once and write the whole labeling — config, field/codec
    parameters, per-level outdetect thresholds, every vertex and edge label —
    to one binary snapshot file (see below).
``load-labeling``
    Load a snapshot, rehydrate the decode-side oracle (no graph, no
    reconstruction), and print a summary.
``snapshot-upgrade``
    Rewrite a version-1 snapshot as version 2 — the page-aligned layout
    ``Oracle.load`` serves via ``mmap`` — with bit-identical answers.
``snapshot-diff``
    Write the versioned ``FTCS-D`` delta artifact that patches one snapshot
    into another (XOR patches over the label bytes plus add/remove records);
    the delta records the SHA-256 of both endpoints and is verified by
    re-applying it in memory before anything is written.
``snapshot-apply``
    Reconstruct the target snapshot from a base snapshot plus an ``FTCS-D``
    delta.  Fail-closed: a wrong base or a reconstruction that does not hash
    to the recorded target digest is an error and nothing is written.
``serve``
    Load a snapshot and serve ``connected`` / ``connected_many`` / ``stats``
    over the newline-JSON TCP protocol of :mod:`repro.server` to any number
    of concurrent clients (``--host/--port/--max-sessions``).  The server
    never constructs a labeling; requests sharing a fault set share one batch
    session.  On startup it prints one ``{"event": "serving", ...}`` JSON
    line with the bound address (``--port 0`` picks an ephemeral port).
    ``--metrics-port`` adds an HTTP sidecar serving ``GET /metrics``
    (Prometheus text, with per-op latency histograms) and ``GET /healthz``.
    ``--workers N`` serves from N processes sharing the port via
    ``SO_REUSEPORT`` (see :mod:`repro.pool`), each with its own sidecar.
``client-query``
    Connect to a running server and issue one request: a ``connected_many``
    batch built from ``--fault`` / ``--pair`` / ``--pairs-file`` (the
    default), ``--op stats`` / ``--op ping``, or ``--prometheus`` for the
    server's stats in Prometheus text format.

The ``query``, ``batch-query``, ``stats``, and ``client-query`` subcommands
accept ``--json``: the report is then printed as one compact line in the
protocol's response envelope (``{"ok": true, "result": ...}``), so scripted
callers see the same machine-readable format in process and over the wire.

Edge-list format: one edge per line, two whitespace-separated vertex names
(everything is treated as a string identifier); lines starting with ``#`` are
ignored.

Snapshot format (``FTCS``, versions 1 and 2)
--------------------------------------------

A snapshot is the self-contained shippable artifact the universal decoder
promises: 4-byte magic ``FTCS`` + a version byte, the ``FTCConfig`` fields,
the edge-id codec and GF(2^w) parameters, the outdetect descriptor (per-level
Reed--Solomon thresholds, or the sketch's levels/repetitions/seed), and every
vertex and edge label as the self-describing ``FTCL`` per-label blobs.  All
integers are LEB128 varints.  Version 2 (``snapshot-upgrade``) moves the
label blobs into a page-aligned region behind a per-label offset index, so
``Oracle.load`` serves the file through ``mmap`` without copying it.
``repro.core.snapshot`` documents the exact byte layouts; both versions
answer queries identically to the live scheme without ever seeing the graph.

Examples
--------
::

    python -m repro.cli stats --edges network.txt --max-faults 2
    python -m repro.cli query --edges network.txt --max-faults 2 \\
        --source a --target d --fault a-b --fault c-d
    python -m repro.cli batch-query --edges network.txt --max-faults 2 \\
        --fault a-b --pair a-d --pair b-c
    python -m repro.cli audit --edges network.txt --max-faults 2 --queries 200
    python -m repro.cli save-labeling --edges network.txt --max-faults 2 \\
        --output network.ftcs
    python -m repro.cli load-labeling --snapshot network.ftcs
    python -m repro.cli batch-query --oracle snapshot:network.ftcs \\
        --fault a-b --pair a-d --pair b-c
    python -m repro.cli serve --snapshot network.ftcs --port 7421
    python -m repro.cli batch-query --oracle tcp://127.0.0.1:7421 \\
        --fault a-b --pair a-d --json
    python -m repro.cli client-query --port 7421 --op stats --prometheus
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from repro.api import (Oracle, RemoteOracleError, TransportError, open_oracle,
                       parse_build_query, parse_oracle_uri)
from repro.core.config import SchemeVariant
from repro.core.query import QueryFailure
from repro.core.serialize import LabelDecodeError
from repro.errors import DeltaError
from repro.graphs.graph import Graph, read_edge_list
from repro.server.protocol import dump_envelope, error_response, ok_response


def _print_report(payload: dict, as_json: bool) -> None:
    """Print a report: indented for humans, one envelope line with --json."""
    if as_json:
        print(dump_envelope(ok_response(payload)))
    else:
        print(json.dumps(payload, indent=2, default=str))


def load_edge_list(path: str | Path) -> Graph:
    """Read a whitespace-separated edge list into a :class:`Graph`."""
    return read_edge_list(path)


def parse_fault(raw: str) -> tuple:
    """Parse ``u-v`` (or ``u,v``) into an edge tuple of string vertex names."""
    for separator in ("-", ","):
        if separator in raw:
            u, v = raw.split(separator, 1)
            return (u.strip(), v.strip())
    raise ValueError("fault %r is not of the form u-v" % raw)


def read_pairs_file(path: str | Path) -> list:
    """Read a file of whitespace-separated ``s t`` pairs (``#`` comments ok)."""
    pairs = []
    text = Path(path).read_text()
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise ValueError("line %d of %s is not a vertex pair: %r"
                             % (line_number, path, line))
        pairs.append((parts[0], parts[1]))
    return pairs


def read_faults_file(path: str | Path) -> list:
    """Read a file with one fault set per line: whitespace-separated ``u-v``
    edges (``#`` comments ok).  A line of just ``-`` means the empty set."""
    fault_sets = []
    text = Path(path).read_text()
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "-":
            fault_sets.append([])
            continue
        try:
            fault_sets.append([parse_fault(token) for token in stripped.split()])
        except ValueError:
            raise ValueError("line %d of %s is not a fault set of u-v edges: %r"
                             % (line_number, path, line))
    return fault_sets


def _cli_executor(args: argparse.Namespace):
    """Resolve ``--jobs`` / URI executor options, or ``None`` after a CLI error.

    Flag mistakes (``--jobs 0``, ``?executor=bogus``, conflicting values) must
    print one ``error:`` line and exit 2 like every other CLI misuse — never
    escape as a traceback.
    """
    from repro.core.config import resolve_build_executor

    try:
        return resolve_build_executor(getattr(args, "build_executor", None),
                                      getattr(args, "jobs", None))
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return None


def _build_oracle(args: argparse.Namespace):
    """The "build" transport from the common construction flags.

    Returns ``(graph, oracle)``, or ``None`` after printing a CLI error.
    """
    executor = _cli_executor(args)
    if executor is None:
        return None
    graph = load_edge_list(args.edges)
    oracle = Oracle.build(graph, max_faults=args.max_faults,
                          variant=args.variant, random_seed=args.seed,
                          executor=executor)
    return graph, oracle


def _open_snapshot_or_report(path: str):
    """Load a snapshot file, printing a CLI error instead of a traceback."""
    try:
        return Oracle.load(path)
    except FileNotFoundError:
        print("error: snapshot file %r does not exist" % path, file=sys.stderr)
    except LabelDecodeError as error:
        print("error: %r is not a valid labeling snapshot: %s" % (path, error),
              file=sys.stderr)
    return None


def _fold_oracle_uri(args: argparse.Namespace) -> str | None:
    """Fold ``--oracle`` into the legacy flags; returns the kind or ``None``.

    ``snapshot:`` and ``build:`` URIs set ``args.snapshot`` / ``args.edges``
    so the existing membership-check flow runs unchanged; ``tcp`` is returned
    for the caller to branch on.  Prints the CLI error itself on a bad URI.
    """
    if not getattr(args, "oracle", None):
        return None
    try:
        kind, rest = parse_oracle_uri(args.oracle)
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return "error"
    if kind == "snapshot":
        if args.snapshot and args.snapshot != rest:
            print("error: --oracle %s conflicts with --snapshot %s"
                  % (args.oracle, args.snapshot), file=sys.stderr)
            return "error"
        args.snapshot = rest
    elif kind == "build":
        try:
            path, options = parse_build_query(rest)
        except ValueError as error:
            print("error: %s" % error, file=sys.stderr)
            return "error"
        if not _merge_uri_build_options(args, options):
            return "error"
        if path:
            if args.edges and args.edges != path:
                print("error: --oracle %s conflicts with --edges %s"
                      % (args.oracle, args.edges), file=sys.stderr)
                return "error"
            args.edges = path
        elif not args.edges:
            print("error: build: oracle URI needs an edge-list path", file=sys.stderr)
            return "error"
    return kind


def _merge_uri_build_options(args: argparse.Namespace, options: dict) -> bool:
    """Fold a ``build:`` URI's query options into the flags.

    One copy of the conflict rule for every subcommand: ``?jobs=N`` that
    disagrees with an explicit ``--jobs`` is a CLI error (printed here),
    agreement or absence folds the value in.
    """
    if "jobs" in options:
        if args.jobs is not None and args.jobs != options["jobs"]:
            print("error: --oracle %s conflicts with --jobs %d"
                  % (args.oracle, args.jobs), file=sys.stderr)
            return False
        args.jobs = options["jobs"]
    if "executor" in options:
        args.build_executor = options["executor"]
    return True


def _note_jobs_not_applicable(args: argparse.Namespace, why: str) -> None:
    """Tell the user an explicit ``--jobs`` is doing nothing on this path.

    Labels served from a snapshot or a server were already constructed, so a
    construction flag must not silently pretend to parallelize anything.
    """
    if getattr(args, "jobs", None) is not None:
        print("note: --jobs %d does not apply (%s)" % (args.jobs, why),
              file=sys.stderr)


def cmd_stats(args: argparse.Namespace) -> int:
    if args.oracle:
        try:
            kind, rest = parse_oracle_uri(args.oracle)
        except ValueError as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        executor = None
        if kind == "build":
            try:
                _, options = parse_build_query(rest)
            except ValueError as error:
                print("error: %s" % error, file=sys.stderr)
                return 2
            if not _merge_uri_build_options(args, options):
                return 2
            executor = _cli_executor(args)
            if executor is None:
                return 2
        else:
            _note_jobs_not_applicable(args, "the %s transport serves "
                                            "already-constructed labels" % kind)
        try:
            oracle = open_oracle(args.oracle, max_faults=args.max_faults,
                                 variant=args.variant, random_seed=args.seed,
                                 executor=executor,
                                 jobs=args.jobs if kind == "build" else None)
        except (TransportError, FileNotFoundError, LabelDecodeError,
                ValueError) as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        try:
            with oracle:
                stats = oracle.stats()
                if args.prometheus:
                    print(stats.to_prometheus(), end="")
                else:
                    _print_report(stats.to_dict(), args.json)
            return 0
        except (TransportError, RemoteOracleError) as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
    if not args.edges:
        print("error: stats needs --edges or --oracle", file=sys.stderr)
        return 2
    built = _build_oracle(args)
    if built is None:
        return 2
    _, oracle = built
    if args.prometheus:
        print(oracle.stats().to_prometheus(), end="")
        return 0
    _print_report(oracle.label_size_stats(), args.json)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    built = _build_oracle(args)
    if built is None:
        return 2
    graph, oracle = built
    faults = [parse_fault(raw) for raw in args.fault]
    for u, v in faults:
        if not oracle.has_edge(u, v):
            print("error: fault edge %s-%s is not in the graph" % (u, v), file=sys.stderr)
            return 2
    answer = oracle.connected(args.source, args.target, faults)
    truth = oracle.connected_exact(args.source, args.target, faults)
    _print_report({
        "source": args.source,
        "target": args.target,
        "faults": ["%s-%s" % edge for edge in faults],
        "connected": answer,
        "ground_truth": truth,
    }, args.json)
    return 0 if answer == truth else 1


def _parse_query_args(args: argparse.Namespace) -> tuple | None:
    """``(faults, pairs)`` from the flags; prints the error on bad syntax.

    ``OSError`` covers an unreadable/missing ``--pairs-file`` — a CLI error,
    not a traceback.
    """
    try:
        faults = [parse_fault(raw) for raw in args.fault]
        pairs = [parse_fault(raw) for raw in args.pair]
        if args.pairs_file:
            pairs.extend(read_pairs_file(args.pairs_file))
    except (ValueError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return None
    return faults, pairs


def _batch_report(source: str, faults: list, pairs: list, answers: list) -> dict:
    return {
        "labels": source,
        "faults": ["%s-%s" % edge for edge in faults],
        "num_pairs": len(pairs),
        "results": [{"source": s, "target": t, "connected": answer}
                    for (s, t), answer in zip(pairs, answers)],
    }


def _attach_session_structure(report: dict, answerer, faults: list) -> None:
    """Best-effort decomposition structure (uniform across transports)."""
    try:
        session = answerer.batch_session(faults)
    except QueryFailure:
        # Randomized / heuristic labels: the answers above came from the
        # per-query fallback, so session statistics are unavailable.
        report["batched"] = False
    else:
        report["batched"] = True
        report["num_fragments"] = session.num_fragments()
        report["num_components"] = session.num_components()


def _cmd_batch_query_remote(args: argparse.Namespace) -> int:
    """The ``tcp://`` transport of ``batch-query``: queries go to the server,
    and membership problems come back as structured errors rather than local
    pre-checks."""
    _note_jobs_not_applicable(args, "the server already holds its labels")
    if args.faults_file:
        print("error: --faults-file needs a local transport (the server builds "
              "and caches its own sessions); send one fault set per request",
              file=sys.stderr)
        return 2
    if args.random_pairs:
        print("error: --random-pairs needs a local transport; sample pairs "
              "locally instead", file=sys.stderr)
        return 2
    graph = load_edge_list(args.edges) if args.edges else None
    if args.check and graph is None:
        print("error: --check compares against BFS ground truth and needs --edges",
              file=sys.stderr)
        return 2
    parsed = _parse_query_args(args)
    if parsed is None:
        return 2
    faults, pairs = parsed
    if not pairs:
        print("error: no query pairs given (use --pair / --pairs-file)",
              file=sys.stderr)
        return 2
    try:
        oracle = open_oracle(args.oracle, timeout=args.timeout)
    except (TransportError, ValueError) as error:
        # ValueError: a scheme-valid but malformed URI (e.g. tcp:// without
        # a port) must be a clean CLI error, not a traceback.
        print("error: %s" % error, file=sys.stderr)
        return 2
    try:
        with oracle:
            answers = oracle.connected_many(pairs, faults)
            report = _batch_report("server", faults, pairs, answers)
            _attach_session_structure(report, oracle, faults)
    except RemoteOracleError as error:
        if args.json:
            print(dump_envelope(error_response(error.code, error.message)))
        else:
            print("error: server refused the request: %s" % error, file=sys.stderr)
        return 2
    except TransportError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    exit_code = 0
    if args.check:
        truth = [graph.connected(s, t, removed=faults) for s, t in pairs]
        mismatches = sum(1 for answer, expected in zip(answers, truth)
                         if answer != expected)
        report["ground_truth_mismatches"] = mismatches
        exit_code = 0 if mismatches == 0 else 1
    _print_report(report, args.json)
    return exit_code


def _answer_fault_sets(args: argparse.Namespace, answerer, source: str,
                       graph, fault_sets: list, pairs: list) -> int:
    """The ``--faults-file`` path of ``batch-query``: sessions for every
    distinct fault set are constructed up front — decomposed in ``--jobs``
    processes — then the shared pair list is answered under each set by the
    session ``build_sessions`` returned for it, not looked up again in the
    oracle's LRU, which may have evicted it by then."""
    try:
        sessions = answerer.build_sessions(fault_sets, jobs=args.jobs)
        labels = {vertex: answerer.vertex_label(vertex)
                  for pair in pairs for vertex in pair}
        label_pairs = [(labels[s], labels[t]) for s, t in pairs]
        batches = [session.connected_many(label_pairs) for session in sessions]
    except LabelDecodeError as error:
        print("error: snapshot label data is corrupt: %s" % error, file=sys.stderr)
        return 2
    except ValueError as error:
        # Typically: more distinct faults than the scheme's budget f.
        print("error: %s" % error, file=sys.stderr)
        return 2
    entries = []
    for faults, answers in zip(fault_sets, batches):
        entry = _batch_report(source, faults, pairs, answers)
        del entry["labels"]  # hoisted to the envelope; identical for all sets
        entries.append(entry)
    report = {
        "labels": source,
        "num_fault_sets": len(fault_sets),
        "num_pairs": len(pairs),
        "session_jobs": args.jobs if args.jobs is not None else 1,
        "batches": entries,
    }
    exit_code = 0
    if args.check:
        mismatches = 0
        for faults, answers in zip(fault_sets, batches):
            truth = [graph.connected(s, t, removed=faults) for s, t in pairs]
            mismatches += sum(1 for answer, expected in zip(answers, truth)
                              if answer != expected)
        report["ground_truth_mismatches"] = mismatches
        exit_code = 0 if mismatches == 0 else 1
    _print_report(report, args.json)
    return exit_code


def cmd_batch_query(args: argparse.Namespace) -> int:
    kind = _fold_oracle_uri(args)
    if kind == "error":
        return 2
    if kind == "tcp":
        return _cmd_batch_query_remote(args)
    graph = load_edge_list(args.edges) if args.edges else None
    if args.faults_file and args.fault:
        print("error: --faults-file and --fault are mutually exclusive "
              "(put every fault set in the file)", file=sys.stderr)
        return 2
    if args.snapshot:
        # Serve from a saved labeling: no graph access, no reconstruction.
        # With --faults-file, --jobs applies to *session* construction below.
        if not args.faults_file:
            _note_jobs_not_applicable(args, "the snapshot serves "
                                            "already-constructed labels")
        answerer = _open_snapshot_or_report(args.snapshot)
        if answerer is None:
            return 2
        source = "snapshot"
    else:
        if graph is None:
            print("error: batch-query needs --edges, --snapshot, or --oracle",
                  file=sys.stderr)
            return 2
        executor = _cli_executor(args)
        if executor is None:
            return 2
        answerer = Oracle.build(graph, max_faults=args.max_faults,
                                variant=args.variant, random_seed=args.seed,
                                executor=executor)
        source = "constructed"
    if args.check and graph is None:
        print("error: --check compares against BFS ground truth and needs --edges",
              file=sys.stderr)
        return 2
    # Faults and pairs must exist everywhere they are used: in the snapshot
    # (which answers) and in the graph (which checks) — with both given, a
    # stale artifact must be reported, not crash with a KeyError.
    memberships = []
    if graph is not None:
        memberships.append(("graph", graph))
    if args.snapshot:
        memberships.append(("snapshot", answerer))
    parsed = _parse_query_args(args)
    if parsed is None:
        return 2
    faults, pairs = parsed
    fault_sets = None
    if args.faults_file:
        try:
            fault_sets = read_faults_file(args.faults_file)
        except (ValueError, OSError) as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        if not fault_sets:
            print("error: %s contains no fault sets" % args.faults_file,
                  file=sys.stderr)
            return 2
    all_fault_edges = faults if fault_sets is None else \
        [edge for fault_set in fault_sets for edge in fault_set]
    for u, v in all_fault_edges:
        for name, membership in memberships:
            if not membership.has_edge(u, v):
                print("error: fault edge %s-%s is not in the %s" % (u, v, name),
                      file=sys.stderr)
                return 2
    if args.random_pairs:
        rng = random.Random(args.seed)
        vertices = sorted(answerer.vertices() if args.snapshot else graph.vertices())
        pairs.extend(tuple(rng.sample(vertices, 2)) for _ in range(args.random_pairs))
    if not pairs:
        print("error: no query pairs given (use --pair / --pairs-file / --random-pairs)",
              file=sys.stderr)
        return 2
    for s, t in pairs:
        for vertex in (s, t):
            for name, membership in memberships:
                if not membership.has_vertex(vertex):
                    print("error: vertex %r is not in the %s" % (vertex, name),
                          file=sys.stderr)
                    return 2
    if fault_sets is not None:
        return _answer_fault_sets(args, answerer, source, graph, fault_sets, pairs)
    try:
        answers = answerer.connected_many(pairs, faults)
    except LabelDecodeError as error:
        # Lazily decoded label payloads surface corruption at first use.
        print("error: snapshot label data is corrupt: %s" % error, file=sys.stderr)
        return 2
    except ValueError as error:
        # Typically: more distinct faults than the scheme's budget f.
        print("error: %s" % error, file=sys.stderr)
        return 2
    report = _batch_report(source, faults, pairs, answers)
    _attach_session_structure(report, answerer, faults)
    exit_code = 0
    if args.check:
        truth = [graph.connected(s, t, removed=faults) for s, t in pairs]
        mismatches = sum(1 for answer, expected in zip(answers, truth)
                         if answer != expected)
        report["ground_truth_mismatches"] = mismatches
        exit_code = 0 if mismatches == 0 else 1
    _print_report(report, args.json)
    return exit_code


def cmd_export_labels(args: argparse.Namespace) -> int:
    built = _build_oracle(args)
    if built is None:
        return 2
    graph, oracle = built
    payload = {
        "format": "ftc-labels",
        "max_faults": args.max_faults,
        "variant": args.variant,
        "vertex_labels": {str(vertex): oracle.vertex_label(vertex).to_bytes().hex()
                          for vertex in graph.vertices()},
        # A list with explicit endpoints: vertex names may themselves contain
        # separator characters, so "u-v" strings would be ambiguous.
        "edge_labels": [{"u": u, "v": v,
                         "label": oracle.edge_label(u, v).to_bytes().hex()}
                        for u, v in graph.edges()],
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        Path(args.output).write_text(text)
        print(json.dumps({"written": args.output,
                          "vertex_labels": len(payload["vertex_labels"]),
                          "edge_labels": len(payload["edge_labels"])}, indent=2))
    else:
        print(text)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.workloads.queries import audit_scheme, make_query_workload

    # Ground truth is BFS on the graph, so --edges stays required; --snapshot
    # only replaces where the *answers* come from (no reconstruction).
    graph = load_edge_list(args.edges)
    if args.snapshot:
        _note_jobs_not_applicable(args, "the snapshot serves "
                                        "already-constructed labels")
        answerer = _open_snapshot_or_report(args.snapshot)
        if answerer is None:
            return 2
        # The workload samples arbitrary graph vertices and edges, so a graph
        # that outgrew the snapshot must be reported up front, not surface as
        # KeyErrors mid-audit.
        for vertex in graph.vertices():
            if not answerer.has_vertex(vertex):
                print("error: vertex %r of the graph is not in the snapshot "
                      "(stale snapshot?)" % (vertex,), file=sys.stderr)
                return 2
        for u, v in graph.edges():
            if not answerer.has_edge(u, v):
                print("error: edge %s-%s of the graph is not in the snapshot "
                      "(stale snapshot?)" % (u, v), file=sys.stderr)
                return 2
        max_faults = answerer.max_faults
        # The snapshot fixes the scheme; construction flags do not apply.
        if args.max_faults != max_faults:
            print("note: auditing with the snapshot's fault budget f=%d "
                  "(--max-faults %d does not apply in snapshot mode)"
                  % (max_faults, args.max_faults), file=sys.stderr)
    else:
        executor = _cli_executor(args)
        if executor is None:
            return 2
        answerer = Oracle.build(graph, max_faults=args.max_faults,
                                variant=args.variant, random_seed=args.seed,
                                executor=executor)
        max_faults = args.max_faults
    workload = make_query_workload(graph, num_queries=args.queries,
                                   max_faults=max_faults, seed=args.seed)
    try:
        report = audit_scheme(lambda s, t, faults: answerer.connected(s, t, faults),
                              workload)
    except LabelDecodeError as error:
        print("error: snapshot label data is corrupt: %s" % error, file=sys.stderr)
        return 2
    report["labels"] = "snapshot" if args.snapshot else "constructed"
    print(json.dumps(report, indent=2))
    return 0 if report["wrong"] == 0 and report["failed"] == 0 else 1


def cmd_save_labeling(args: argparse.Namespace) -> int:
    built = _build_oracle(args)
    if built is None:
        return 2
    graph, oracle = built
    byte_count = oracle.save(args.output)
    print(json.dumps({
        "written": args.output,
        "bytes": byte_count,
        "vertex_labels": graph.num_vertices(),
        "edge_labels": graph.num_edges(),
        "variant": args.variant,
        "max_faults": args.max_faults,
        "construction_seconds": oracle.construction_seconds,
        "build_report": oracle.build_report.to_dict(),
    }, indent=2))
    return 0


def cmd_load_labeling(args: argparse.Namespace) -> int:
    # The lazy path: the summary needs structure and counts, never the
    # decoded label payloads.
    oracle = _open_snapshot_or_report(args.snapshot)
    if oracle is None:
        return 2
    summary = oracle.snapshot.describe()
    summary["snapshot"] = args.snapshot
    summary["bytes"] = Path(args.snapshot).stat().st_size
    summary["rehydrated_vertices"] = oracle.num_vertices()
    print(json.dumps(summary, indent=2))
    return 0


def cmd_snapshot_upgrade(args: argparse.Namespace) -> int:
    from repro.api import upgrade_snapshot

    try:
        report = upgrade_snapshot(args.snapshot, args.output)
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except LabelDecodeError as error:
        print("error: not a loadable FTCS snapshot: %s" % error, file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return 0


def cmd_snapshot_diff(args: argparse.Namespace) -> int:
    from repro.api import diff_snapshots

    try:
        report = diff_snapshots(args.base, args.target, args.output)
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except LabelDecodeError as error:
        print("error: not a loadable FTCS snapshot: %s" % error, file=sys.stderr)
        return 2
    except DeltaError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return 0


def cmd_snapshot_apply(args: argparse.Namespace) -> int:
    from repro.api import apply_delta

    try:
        report = apply_delta(args.base, args.delta, args.output)
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except LabelDecodeError as error:
        print("error: not a loadable FTCS snapshot: %s" % error, file=sys.stderr)
        return 2
    except DeltaError as error:
        # Wrong base, corrupt delta, or a reconstruction that failed digest
        # verification: fail-closed means nothing was written.
        print("error: %s" % error, file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.pool.prewarm import hot_keys_path

    if args.max_sessions < 1:
        print("error: --max-sessions must be at least 1", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if args.metrics_port is not None and args.metrics_port < 0:
        print("error: --metrics-port must be non-negative", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.rewarm_interval is not None and args.rewarm_interval <= 0:
        print("error: --rewarm-interval must be positive", file=sys.stderr)
        return 2

    def announce(event: dict) -> None:
        event["snapshot"] = args.snapshot
        print(json.dumps(event), flush=True)

    if args.workers is not None:
        # Fleet mode: the parent only reserves the port; each worker process
        # loads the snapshot itself (one shared page-cached copy when the
        # artifact is version 2).
        from repro.pool import run_pooled_server

        try:
            return run_pooled_server(args.snapshot, host=args.host,
                                     port=args.port, workers=args.workers,
                                     max_sessions=args.max_sessions,
                                     max_request_bytes=args.max_request_bytes,
                                     jobs=args.jobs,
                                     metrics_port=args.metrics_port,
                                     announce=announce,
                                     reload_token=args.reload_token,
                                     rewarm_interval=args.rewarm_interval)
        except FileNotFoundError:
            print("error: snapshot file not found: %s" % args.snapshot,
                  file=sys.stderr)
            return 2
        except (OSError, TransportError) as error:
            print("error: cannot serve on %s:%d: %s" % (args.host, args.port,
                                                        error), file=sys.stderr)
            return 2

    from repro.server.server import run_server

    # The whole point of the server: load an artifact, never construct.
    oracle = _open_snapshot_or_report(args.snapshot)
    if oracle is None:
        return 2
    try:
        return run_server(oracle, host=args.host, port=args.port,
                          max_sessions=args.max_sessions,
                          max_request_bytes=args.max_request_bytes,
                          jobs=args.jobs,
                          metrics_port=args.metrics_port,
                          announce=announce,
                          hot_keys_file=hot_keys_path(args.snapshot),
                          snapshot_path=args.snapshot,
                          reload_token=args.reload_token,
                          rewarm_interval=args.rewarm_interval)
    except OSError as error:  # e.g. port already in use
        print("error: cannot serve on %s:%d: %s" % (args.host, args.port, error),
              file=sys.stderr)
        return 2


def cmd_client_query(args: argparse.Namespace) -> int:
    if args.prometheus:
        # Prometheus output is a stats rendering; the flag implies the op.
        args.op = "stats"
    try:
        oracle = Oracle.connect(args.host, args.port, timeout=args.timeout)
    except TransportError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    try:
        with oracle:
            if args.op == "ping":
                _print_report(oracle.ping(), args.json)
                return 0
            if args.op == "stats":
                if args.prometheus:
                    print(oracle.stats().to_prometheus(), end="")
                else:
                    _print_report(oracle.server_stats(), args.json)
                return 0
            parsed = _parse_query_args(args)
            if parsed is None:
                return 2
            faults, pairs = parsed
            if not pairs:
                print("error: no query pairs given (use --pair / --pairs-file)",
                      file=sys.stderr)
                return 2
            answers = oracle.connected_many(pairs, faults)
            _print_report(_batch_report("server", faults, pairs, answers), args.json)
            return 0
    except RemoteOracleError as error:
        if args.json:
            print(dump_envelope(error_response(error.code, error.message)))
        else:
            print("error: server refused the request: %s" % error, file=sys.stderr)
        return 2
    except TransportError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2


def cmd_lint(args: argparse.Namespace) -> int:
    # Deferred import: the analysis engine is pure stdlib, but no other
    # subcommand needs it and the CLI should stay cheap to start.
    from repro.analysis.engine import main as analysis_main

    forwarded: list[str] = []
    if args.root:
        forwarded += ["--root", args.root]
    forwarded += ["--format", args.format]
    if args.rules:
        forwarded += ["--rules", args.rules]
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    if args.no_baseline:
        forwarded.append("--no-baseline")
    if args.write_baseline:
        forwarded.append("--write-baseline")
    if args.list_rules:
        forwarded.append("--list-rules")
    forwarded += args.paths
    return analysis_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="f-fault-tolerant connectivity labeling")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, edges_required: bool = True) -> None:
        sub.add_argument("--edges", required=edges_required, default=None,
                         help="path to a whitespace edge-list file")
        sub.add_argument("--max-faults", type=int, default=2, help="fault budget f")
        sub.add_argument("--variant", default=SchemeVariant.DETERMINISTIC_NEARLINEAR.value,
                         choices=[variant.value for variant in SchemeVariant],
                         help="which Table-1 scheme to build")
        sub.add_argument("--seed", type=int, default=0, help="seed for randomized variants")
        sub.add_argument("--jobs", type=int, default=None,
                         help="shard label construction across N workers "
                              "(N > 1 uses the multiprocessing executor of "
                              "repro.build; results are byte-identical to a "
                              "serial build)")

    def add_json_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--json", action="store_true",
                         help="print one compact machine-readable line in the "
                              "protocol envelope ({\"ok\": true, \"result\": ...})")

    def add_oracle_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--oracle", default=None, metavar="URI",
                         help="oracle transport URI: build:EDGELIST, "
                              "snapshot:PATH.ftcs, or tcp://HOST:PORT "
                              "(--edges/--snapshot are sugar for the first two)")

    stats_parser = subparsers.add_parser("stats", help="print label-size statistics")
    add_common(stats_parser, edges_required=False)
    add_json_flag(stats_parser)
    add_oracle_flag(stats_parser)
    stats_parser.add_argument("--prometheus", action="store_true",
                              help="print the oracle's stats in Prometheus "
                                   "text exposition format")
    stats_parser.set_defaults(handler=cmd_stats)

    query_parser = subparsers.add_parser("query", help="answer one connectivity query")
    add_common(query_parser)
    add_json_flag(query_parser)
    query_parser.add_argument("--source", required=True)
    query_parser.add_argument("--target", required=True)
    query_parser.add_argument("--fault", action="append", default=[],
                              help="faulty edge as u-v (repeatable)")
    query_parser.set_defaults(handler=cmd_query)

    batch_parser = subparsers.add_parser(
        "batch-query", help="answer many (s, t) pairs against one shared fault set")
    add_common(batch_parser, edges_required=False)
    add_oracle_flag(batch_parser)
    batch_parser.add_argument("--snapshot", default=None,
                              help="serve queries from this saved labeling snapshot "
                                   "instead of rebuilding (--edges then only needed "
                                   "for --check)")
    batch_parser.add_argument("--fault", action="append", default=[],
                              help="faulty edge as u-v (repeatable, shared by all pairs)")
    batch_parser.add_argument("--faults-file", default=None,
                              help="file with one fault set per line (whitespace-"
                                   "separated u-v edges; '#' comments); the pair "
                                   "list is answered under each fault set, with "
                                   "sessions built up front — --jobs N (> 1) "
                                   "decomposes them in N processes")
    batch_parser.add_argument("--pair", action="append", default=[],
                              help="query pair as s-t (repeatable)")
    batch_parser.add_argument("--pairs-file", default=None,
                              help="file with one whitespace-separated s t pair per line")
    batch_parser.add_argument("--random-pairs", type=int, default=0,
                              help="additionally sample this many random pairs")
    batch_parser.add_argument("--check", action="store_true",
                              help="compare every answer against BFS ground truth")
    batch_parser.add_argument("--timeout", type=float, default=30.0,
                              help="socket timeout in seconds (tcp:// oracles)")
    add_json_flag(batch_parser)
    batch_parser.set_defaults(handler=cmd_batch_query)

    audit_parser = subparsers.add_parser("audit", help="audit random queries vs ground truth")
    add_common(audit_parser)
    audit_parser.add_argument("--queries", type=int, default=100)
    audit_parser.add_argument("--snapshot", default=None,
                              help="answer from this saved labeling snapshot instead "
                                   "of rebuilding; --edges still supplies ground "
                                   "truth, and the snapshot's stored config "
                                   "overrides --max-faults/--variant")
    audit_parser.set_defaults(handler=cmd_audit)

    export_parser = subparsers.add_parser(
        "export-labels", help="serialize all labels to the versioned byte format")
    add_common(export_parser)
    export_parser.add_argument("--output", default=None,
                               help="write the JSON payload here instead of stdout")
    export_parser.set_defaults(handler=cmd_export_labels)

    save_parser = subparsers.add_parser(
        "save-labeling", help="build labels once and write one FTCS snapshot file")
    add_common(save_parser)
    save_parser.add_argument("--output", required=True,
                             help="path of the snapshot file to write")
    save_parser.set_defaults(handler=cmd_save_labeling)

    load_parser = subparsers.add_parser(
        "load-labeling", help="rehydrate a snapshot (no rebuild) and print a summary")
    load_parser.add_argument("--snapshot", required=True,
                             help="path of the snapshot file to load")
    load_parser.set_defaults(handler=cmd_load_labeling)

    upgrade_parser = subparsers.add_parser(
        "snapshot-upgrade",
        help="rewrite a v1 FTCS snapshot as v2 (the mmap page-aligned layout)")
    upgrade_parser.add_argument("--snapshot", required=True,
                                help="source snapshot (version 1 or 2)")
    upgrade_parser.add_argument("--output", required=True,
                                help="path of the version-2 snapshot to write")
    upgrade_parser.set_defaults(handler=cmd_snapshot_upgrade)

    diff_parser = subparsers.add_parser(
        "snapshot-diff",
        help="write the FTCS-D delta that patches one snapshot into another")
    diff_parser.add_argument("--base", required=True,
                             help="base snapshot (the one deployed readers hold)")
    diff_parser.add_argument("--target", required=True,
                             help="target snapshot the delta reconstructs")
    diff_parser.add_argument("--output", required=True,
                             help="path of the FTCS-D delta file to write")
    diff_parser.set_defaults(handler=cmd_snapshot_diff)

    apply_parser = subparsers.add_parser(
        "snapshot-apply",
        help="reconstruct a target snapshot from base + FTCS-D delta "
             "(digest-verified, fail-closed)")
    apply_parser.add_argument("--base", required=True,
                              help="base snapshot the delta was diffed against")
    apply_parser.add_argument("--delta", required=True,
                              help="FTCS-D delta file from snapshot-diff")
    apply_parser.add_argument("--output", required=True,
                              help="path of the reconstructed snapshot to write")
    apply_parser.set_defaults(handler=cmd_snapshot_apply)

    serve_parser = subparsers.add_parser(
        "serve", help="serve a snapshot's oracle over the newline-JSON TCP protocol")
    serve_parser.add_argument("--snapshot", required=True,
                              help="FTCS snapshot to load at startup (the server "
                                   "never constructs a labeling)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7421,
                              help="TCP port (0 picks an ephemeral port, "
                                   "reported in the startup line)")
    serve_parser.add_argument("--max-sessions", type=int, default=32,
                              help="batch sessions kept alive in the LRU "
                                   "(one per concurrent fault set)")
    serve_parser.add_argument("--max-request-bytes", type=int,
                              default=1 << 20,
                              help="cap on one request line; longer lines get a "
                                   "structured oversized-request error")
    serve_parser.add_argument("--jobs", type=int, default=None,
                              help="worker threads building batch sessions "
                                   "(default: the executor's own sizing)")
    serve_parser.add_argument("--metrics-port", type=int, default=None,
                              help="also serve GET /metrics (Prometheus text) "
                                   "and GET /healthz on this HTTP port "
                                   "(0 picks an ephemeral port, reported in "
                                   "the startup line; default: disabled; with "
                                   "--workers, worker i uses this port + i, "
                                   "or 0 gives every worker an ephemeral port)")
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="serve from this many processes sharing the "
                                   "port via SO_REUSEPORT (default: one "
                                   "in-process server)")
    serve_parser.add_argument("--reload-token", default=None,
                              help="enable the authenticated 'reload' wire op "
                                   "with this shared secret (SIGHUP reloads "
                                   "always work; default: wire op disabled)")
    serve_parser.add_argument("--rewarm-interval", type=float, default=None,
                              help="re-warm the hottest live fault-set "
                                   "sessions every this many seconds "
                                   "(default: only at startup and after a "
                                   "reload)")
    serve_parser.set_defaults(handler=cmd_serve)

    client_parser = subparsers.add_parser(
        "client-query", help="query a running server (connected_many/stats/ping)")
    client_parser.add_argument("--host", default="127.0.0.1")
    client_parser.add_argument("--port", type=int, required=True)
    client_parser.add_argument("--op", default="connected-many",
                               choices=["connected-many", "stats", "ping"],
                               help="request type (default: connected-many)")
    client_parser.add_argument("--fault", action="append", default=[],
                               help="faulty edge as u-v (repeatable, shared by all pairs)")
    client_parser.add_argument("--pair", action="append", default=[],
                               help="query pair as s-t (repeatable)")
    client_parser.add_argument("--pairs-file", default=None,
                               help="file with one whitespace-separated s t pair per line")
    client_parser.add_argument("--timeout", type=float, default=30.0,
                               help="socket timeout in seconds")
    client_parser.add_argument("--prometheus", action="store_true",
                               help="print the server's stats in Prometheus text "
                                    "exposition format (implies --op stats)")
    add_json_flag(client_parser)
    client_parser.set_defaults(handler=cmd_client_query)

    lint_parser = subparsers.add_parser(
        "lint", help="run the repo's AST invariant linter (repro.analysis)")
    lint_parser.add_argument("paths", nargs="*",
                             help="specific files to analyze (default: all of "
                                  "src/repro and benchmarks)")
    lint_parser.add_argument("--root", default="",
                             help="repository root (default: auto-detect)")
    lint_parser.add_argument("--format", choices=["text", "json"],
                             default="text", help="output format")
    lint_parser.add_argument("--rules", default="",
                             help="comma-separated rule codes (default: all)")
    lint_parser.add_argument("--baseline", default="",
                             help="baseline file (default: "
                                  "<root>/analysis-baseline.json)")
    lint_parser.add_argument("--no-baseline", action="store_true",
                             help="ignore any baseline; every finding is new")
    lint_parser.add_argument("--write-baseline", action="store_true",
                             help="record current findings as the baseline")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="list rule codes and exit")
    lint_parser.set_defaults(handler=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
