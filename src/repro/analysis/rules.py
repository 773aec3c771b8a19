"""The repo-specific invariant rules (``RPL001``...``RPL007``).

Each rule encodes one seam contract of this codebase as an AST check — the
invariants that used to live only in reviewers' heads and one-off tests:

======= ==================== =====================================================
Code    Name                 Invariant
======= ==================== =====================================================
RPL001  seam-discipline      Entry points (``cli.py``, ``benchmarks/``) construct
                             oracles only via :mod:`repro.api`.
RPL002  error-discipline     API-boundary modules raise only the shared
                             :mod:`repro.errors` hierarchy; nothing in ``src/``
                             swallows exceptions blindly.
RPL003  async-safety         No blocking calls lexically inside ``async def``
                             bodies of :mod:`repro.server` — oracle work routes
                             through the executor offload.
RPL004  lock-discipline      Attributes registered as lock-guarded are only
                             mutated under ``with self.<lock>:`` (checked
                             intraprocedurally).
RPL005  bulk-scalar-parity   Every public ``*_many`` op in ``repro.coding`` /
                             ``repro.outdetect`` is registered in
                             :mod:`repro.analysis.parity` with its scalar twin.
RPL006  determinism          Build/decode modules use no wall-clock, unseeded
                             randomness, or set-iteration ordering — snapshot
                             bytes must be reproducible.
RPL007  swap-discipline      The serving oracle pointer is replaced only through
                             the hot-swap seam
                             (:meth:`SessionManager.swap_oracle`) — never by a
                             bare ``<obj>.oracle = ...`` assignment elsewhere in
                             :mod:`repro.server`.
======= ==================== =====================================================

All checks are lexical and intraprocedural on purpose: they are approximations
a contributor can predict, suppress inline with a justification
(``# repro: allow[RPLxxx] why``), and never wait on a type checker for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.parity import pairs_for_module, registered_bulk_names

#: Reserved code for files the engine cannot parse at all.
PARSE_ERROR_CODE = "RPL000"


@dataclass
class ModuleFile:
    """One parsed source file as the rules see it."""

    path: Path
    relpath: str          #: repo-root-relative POSIX path
    source: str
    tree: ast.Module
    module_name: str | None = None  #: dotted name for ``src/`` files, else None


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attribute_root(node: ast.AST) -> str | None:
    """The first attribute name of a ``self.<attr>...`` chain, else ``None``.

    Subscripts and further attribute hops are peeled: ``self._cache[k].x``
    roots at ``_cache``.
    """
    root: str | None = None
    while True:
        if isinstance(node, ast.Attribute):
            root = node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name) and node.id == "self":
        return root
    return None


class Rule:
    """Base interface: one stable code, one scope predicate, one AST check."""

    code: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, relpath: str) -> bool:
        raise NotImplementedError

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, module: ModuleFile, node: ast.AST, message: str) -> Finding:
        return Finding(path=module.relpath, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0), code=self.code,
                       message=message)


# --------------------------------------------------------------------- RPL001

class SeamDisciplineRule(Rule):
    """Entry points construct oracles only through the :mod:`repro.api` facade.

    Generalizes (and replaces) the old test that grepped ``cli.py`` for
    transport-specific class names: any import of a transport implementation
    module, or any reference to a transport class/factory, is a finding.
    The sanctioned spellings are ``open_oracle(...)``, ``Oracle.build/load/
    connect``, and — for serving — ``repro.server.server.run_server`` /
    ``BackgroundServer``.
    """

    code = "RPL001"
    name = "seam-discipline"
    description = ("entry points (cli.py, benchmarks/) must construct oracles "
                   "via repro.api, never transport classes directly")

    FORBIDDEN_MODULES = frozenset({
        "repro.core.ftc", "repro.core.oracle", "repro.core.snapshot",
        "repro.server.client",
    })
    FORBIDDEN_NAMES = frozenset({
        "FTConnectivityOracle", "FTCLabeling", "RehydratedOracle",
        "load_snapshot", "QueryClient", "AsyncQueryClient",
    })

    def applies_to(self, relpath: str) -> bool:
        return relpath == "src/repro/cli.py" or relpath.startswith("benchmarks/")

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.FORBIDDEN_MODULES:
                        yield self._finding(module, node,
                                            self._import_message(alias.name))
            elif isinstance(node, ast.ImportFrom):
                from_module = node.module or ""
                if from_module in self.FORBIDDEN_MODULES:
                    yield self._finding(module, node,
                                        self._import_message(from_module))
                else:
                    for alias in node.names:
                        if alias.name in self.FORBIDDEN_NAMES:
                            yield self._finding(module, node,
                                                self._name_message(alias.name))
            elif isinstance(node, ast.Name) and node.id in self.FORBIDDEN_NAMES:
                yield self._finding(module, node, self._name_message(node.id))
            elif isinstance(node, ast.Attribute) and \
                    node.attr in self.FORBIDDEN_NAMES:
                yield self._finding(module, node, self._name_message(node.attr))

    def _import_message(self, module_name: str) -> str:
        return ("imports transport module %s; entry points go through "
                "repro.api (open_oracle / Oracle.build|load|connect)"
                % module_name)

    def _name_message(self, name: str) -> str:
        return ("references transport symbol %s; entry points go through "
                "repro.api (open_oracle / Oracle.build|load|connect)" % name)


# --------------------------------------------------------------------- RPL002

class ErrorDisciplineRule(Rule):
    """API boundaries raise the shared hierarchy; nothing swallows blindly.

    Two checks share the code:

    * everywhere under ``src/repro``: no bare ``except:``, no ``except
      Exception/BaseException:`` whose body is only ``pass``/``...``, and no
      ``contextlib.suppress(Exception)`` — the silent-swallow patterns;
    * in the API-boundary modules (``api.py``, ``errors.py``, ``server/*``):
      every ``raise SomeClass(...)`` names either the shared hierarchy
      (:mod:`repro.errors` plus the documented ``QueryFailure`` /
      ``LabelDecodeError`` / ``ProtocolError``), a class defined in the same
      module (boundary modules may extend the hierarchy locally), or one of
      the builtins the oracle contract documents (``KeyError``, ``ValueError``,
      ...).  Re-raises and dynamically computed exceptions are not judged.
    """

    code = "RPL002"
    name = "error-discipline"
    description = ("API-boundary modules raise only the repro.errors "
                   "hierarchy; no bare/except-Exception-pass swallowing "
                   "in src/")

    RAISE_SCOPES = ("src/repro/api.py", "src/repro/errors.py")
    RAISE_PREFIXES = ("src/repro/server/",)

    #: The shared hierarchy plus the documented per-layer error types.
    ALLOWED_SHARED = frozenset({
        "OracleError", "TransportError", "QueryFailure", "LabelDecodeError",
        "ProtocolError", "RemoteOracleError", "DeltaError",
    })
    #: Builtins the oracle contract documents (unknown ids, over-budget
    #: faults, misuse) plus the interpreter-level types no hierarchy owns.
    ALLOWED_BUILTINS = frozenset({
        "KeyError", "ValueError", "TypeError", "RuntimeError",
        "NotImplementedError", "OSError", "FileNotFoundError",
        "TimeoutError", "ConnectionError", "StopIteration",
        "StopAsyncIteration", "KeyboardInterrupt", "AssertionError",
    })
    BROAD = frozenset({"Exception", "BaseException"})

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def _raise_checked(self, relpath: str) -> bool:
        return relpath in self.RAISE_SCOPES or \
            relpath.startswith(self.RAISE_PREFIXES)

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        local_classes = {node.name for node in ast.walk(module.tree)
                         if isinstance(node, ast.ClassDef)}
        check_raises = self._raise_checked(module.relpath)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(module, node)
            elif isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                if name in ("contextlib.suppress", "suppress"):
                    for argument in node.args:
                        arg_name = _dotted_name(argument)
                        if arg_name in self.BROAD:
                            yield self._finding(
                                module, node,
                                "contextlib.suppress(%s) swallows every error; "
                                "suppress the specific types instead" % arg_name)
            elif check_raises and isinstance(node, ast.Raise):
                yield from self._check_raise(module, node, local_classes)

    def _check_handler(self, module: ModuleFile,
                       node: ast.ExceptHandler) -> Iterator[Finding]:
        if node.type is None:
            yield self._finding(module, node,
                                "bare except: catches everything including "
                                "KeyboardInterrupt; name the exception types")
            return
        caught = [node.type] if not isinstance(node.type, ast.Tuple) \
            else list(node.type.elts)
        broad = [name for name in map(_dotted_name, caught) if name in self.BROAD]
        if broad and self._body_swallows(node.body):
            yield self._finding(
                module, node,
                "except %s with a pass-only body swallows every error; "
                "narrow the type or handle it" % broad[0])

    @staticmethod
    def _body_swallows(body: list) -> bool:
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and \
                    isinstance(statement.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True

    def _check_raise(self, module: ModuleFile, node: ast.Raise,
                     local_classes: set) -> Iterator[Finding]:
        exc = node.exc
        if exc is None:  # bare re-raise
            return
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = _dotted_name(exc)
        if name is None:
            return
        terminal = name.rsplit(".", 1)[-1]
        # Lowercase terminals are variables or factory calls (``raise error``,
        # ``raise map_server_error(e)``) — not statically judgeable.
        if not terminal[:1].isupper():
            return
        if terminal in self.ALLOWED_SHARED or \
                terminal in self.ALLOWED_BUILTINS or \
                terminal in local_classes:
            return
        yield self._finding(
            module, node,
            "raises %s at an API boundary; raise the shared repro.errors "
            "hierarchy (or a documented builtin) so all transports agree"
            % terminal)


# --------------------------------------------------------------------- RPL003

class AsyncSafetyRule(Rule):
    """No blocking work lexically inside ``async def`` bodies of the server.

    Flags (i) calls to known-blocking stdlib entry points (``time.sleep``,
    ``open``, synchronous socket construction, ``subprocess``), (ii)
    non-awaited calls of the oracle's expensive session/query methods —
    those must ride ``loop.run_in_executor(...)`` as function references —
    and (iii) direct ``BatchQuerySession(...)`` construction.  Nested
    synchronous ``def``/``lambda`` bodies reset the context: a lambda handed
    to the executor *is* the offload pattern.
    """

    code = "RPL003"
    name = "async-safety"
    description = ("no blocking calls inside async def bodies of "
                   "repro.server; oracle work goes through the executor")

    BLOCKING_CALLS = frozenset({
        "time.sleep", "socket.socket", "socket.create_connection",
        "socket.socketpair", "open", "subprocess.run", "subprocess.Popen",
        "subprocess.check_output", "subprocess.check_call", "os.system",
    })
    OFFLOAD_METHODS = frozenset({
        "batch_session", "build_sessions", "connected", "connected_many",
    })

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/server/")

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        findings: list[Finding] = []
        self._visit(module, module.tree, in_async=False, findings=findings)
        yield from findings

    def _visit(self, module: ModuleFile, node: ast.AST, in_async: bool,
               findings: list) -> None:
        if isinstance(node, ast.AsyncFunctionDef):
            for child in node.decorator_list:
                self._visit(module, child, in_async, findings)
            for child in node.body:
                self._visit(module, child, True, findings)
            return
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                self._visit(module, child, False, findings)
            return
        if isinstance(node, ast.Await):
            # An awaited call is a sanctioned coroutine; its arguments are
            # still inspected (a blocking call nested in them stays flagged).
            if isinstance(node.value, ast.Call):
                for child in ast.iter_child_nodes(node.value):
                    if child is not node.value.func:
                        self._visit(module, child, in_async, findings)
                return
            self._visit(module, node.value, in_async, findings)
            return
        if isinstance(node, ast.Call) and in_async:
            self._check_call(module, node, findings)
        for child in ast.iter_child_nodes(node):
            self._visit(module, child, in_async, findings)

    def _check_call(self, module: ModuleFile, node: ast.Call,
                    findings: list) -> None:
        name = _dotted_name(node.func)
        if name in self.BLOCKING_CALLS:
            findings.append(self._finding(
                module, node,
                "blocking call %s() inside async def; offload it via "
                "loop.run_in_executor" % name))
        elif name == "BatchQuerySession":
            findings.append(self._finding(
                module, node,
                "constructs BatchQuerySession on the event loop; session "
                "construction must run on the executor"))
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr in self.OFFLOAD_METHODS:
            findings.append(self._finding(
                module, node,
                "calls .%s() synchronously inside async def; pass it to "
                "loop.run_in_executor (or await the SessionManager coroutine)"
                % node.func.attr))


# --------------------------------------------------------------------- RPL004

@dataclass(frozen=True)
class LockContract:
    """One class whose registered attributes may only mutate under its lock."""

    relpath: str
    class_name: str
    lock_attr: str
    guarded: frozenset
    #: Methods that run before the instance is shared (no lock needed).
    exempt_methods: frozenset = dataclass_field(
        default_factory=lambda: frozenset({"__init__"}))


#: The race-detector-lite registry.  ``ServerMetrics`` itself now holds
#: only registry metric objects (each thread-safe under its own lock, the
#: ``repro.obs.registry`` contracts below); its legacy entry stays so any
#: reintroduction of bare counters on the class is caught.
LOCK_CONTRACTS: tuple[LockContract, ...] = (
    LockContract("src/repro/server/metrics.py", "ServerMetrics", "_lock",
                 frozenset({
                     "_requests", "_errors", "_latency_sum", "_latency_max",
                     "_connections_opened", "_connections_active",
                     "_session_hits", "_session_misses", "_session_coalesced",
                     "_session_failures", "_queries_answered",
                 })),
    LockContract("src/repro/server/session_manager.py", "SessionManager",
                 "_hot_lock", frozenset({"_hot_keys", "_hot_key_names",
                                         "_hot_key_faults"})),
    # The hot-swap quadruple: the oracle pointer, its epoch, the per-epoch
    # lease counts, and the retired-but-leased oracles move together or the
    # swap races a request pinning the pointer (reads are epoch-tolerant by
    # design; every *mutation* must be atomic with the epoch bump).
    LockContract("src/repro/server/session_manager.py", "SessionManager",
                 "_swap_lock", frozenset({"oracle", "_epoch", "_leases",
                                          "_retired"})),
    LockContract("src/repro/core/ftc.py", "LabelBackedQueries",
                 "_session_lock",
                 frozenset({"_session_cache", "_session_builds",
                            "_session_evictions"}),
                 exempt_methods=frozenset({"__init__", "_init_session_cache"})),
    LockContract("src/repro/obs/registry.py", "Counter", "_lock",
                 frozenset({"_values"})),
    LockContract("src/repro/obs/registry.py", "Gauge", "_lock",
                 frozenset({"_values"})),
    LockContract("src/repro/obs/registry.py", "Histogram", "_lock",
                 frozenset({"_children"})),
    LockContract("src/repro/obs/registry.py", "MetricsRegistry", "_lock",
                 frozenset({"_metrics"})),
    LockContract("src/repro/obs/tracing.py", "Tracer", "_lock",
                 frozenset({"_spans_emitted", "_slow_spans"})),
)

#: Method names that mutate their receiver.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "move_to_end", "subtract",
})


class LockDisciplineRule(Rule):
    """Registered lock-guarded attributes mutate only under their lock."""

    code = "RPL004"
    name = "lock-discipline"
    description = ("attributes registered in LOCK_CONTRACTS may only be "
                   "mutated inside `with self.<lock>:` blocks")

    def applies_to(self, relpath: str) -> bool:
        return any(contract.relpath == relpath for contract in LOCK_CONTRACTS)

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        contracts = {contract.class_name: contract
                     for contract in LOCK_CONTRACTS
                     if contract.relpath == module.relpath}
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name in contracts:
                contract = contracts[node.name]
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) and \
                            method.name not in contract.exempt_methods:
                        findings: list[Finding] = []
                        self._visit(module, contract, method, method.body,
                                    locked=False, findings=findings)
                        yield from findings

    def _visit(self, module: ModuleFile, contract: LockContract,
               method: ast.FunctionDef | ast.AsyncFunctionDef,
               body: list, locked: bool, findings: list) -> None:
        for node in body:
            node_locked = locked
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(_self_attribute_root(item.context_expr) ==
                       contract.lock_attr for item in node.items):
                    node_locked = True
            if not node_locked:
                self._check_statement(module, contract, method, node, findings)
            # Recurse into compound statement bodies, preserving lock context.
            # ExceptHandler and match_case are not statements themselves; their
            # bodies are flattened into the visited statement list.
            for field_name in ("body", "orelse", "finalbody", "handlers",
                               "cases"):
                children = getattr(node, field_name, None)
                if children:
                    nested: list[ast.stmt] = []
                    for child in children:
                        if isinstance(child, (ast.ExceptHandler,
                                              ast.match_case)):
                            nested.extend(child.body)
                        else:
                            nested.append(child)
                    self._visit(module, contract, method, nested, node_locked,
                                findings)

    def _check_statement(self, module: ModuleFile, contract: LockContract,
                         method: ast.FunctionDef | ast.AsyncFunctionDef,
                         node: ast.stmt, findings: list) -> None:
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                root = _self_attribute_root(func.value)
                if root is not None and root in contract.guarded:
                    findings.append(self._mutation_finding(
                        module, node, contract, method, root,
                        ".%s()" % func.attr))
            return
        for target in targets:
            root = _self_attribute_root(target)
            if root is not None and root in contract.guarded:
                findings.append(self._mutation_finding(
                    module, node, contract, method, root, "assignment"))

    def _mutation_finding(self, module: ModuleFile, node: ast.stmt,
                          contract: LockContract,
                          method: ast.FunctionDef | ast.AsyncFunctionDef,
                          attr: str, how: str) -> Finding:
        return self._finding(
            module, node,
            "%s.%s mutated (%s) in %s() outside `with self.%s:`"
            % (contract.class_name, attr, how, method.name, contract.lock_attr))


# --------------------------------------------------------------------- RPL005

class BulkScalarParityRule(Rule):
    """Public ``*_many`` ops must be registered with their scalar twin.

    Checked both ways against :data:`repro.analysis.parity.PARITY_TABLE`:
    an unregistered public ``*_many`` definition is a finding, and a
    registered pair whose scalar or bulk member is missing from the module
    that declares it is a finding (the table must never drift from the
    code — the bit-identity tests consume the same table).
    """

    code = "RPL005"
    name = "bulk-scalar-parity"
    description = ("every public *_many op in repro.coding / repro.outdetect "
                   "is registered in repro.analysis.parity with its scalar "
                   "twin")

    SCOPES = ("src/repro/coding/", "src/repro/outdetect/")

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(self.SCOPES)

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        if module.module_name is None:
            return
        defs = self._collect_defs(module.tree)
        registered = registered_bulk_names()
        for qualname, node in sorted(defs.items()):
            terminal = qualname.rsplit(".", 1)[-1]
            if terminal.startswith("_") or not terminal.endswith("_many"):
                continue
            pair = registered.get((module.module_name, qualname))
            if pair is None:
                yield self._finding(
                    module, node,
                    "public bulk op %s is not registered in "
                    "repro.analysis.parity.PARITY_TABLE; pair it with its "
                    "scalar twin so the bit-identity tests drive it"
                    % qualname)
            elif pair.scalar not in defs:
                yield self._finding(
                    module, node,
                    "registered scalar twin %s of %s does not exist in %s"
                    % (pair.scalar, qualname, module.module_name))
        for pair in pairs_for_module(module.module_name):
            for member in (pair.scalar, pair.bulk):
                if member not in defs:
                    yield self._finding(
                        module, module.tree,
                        "PARITY_TABLE entry (%s, %s) no longer resolves: "
                        "%s is not defined in %s"
                        % (pair.scalar, pair.bulk, member, module.module_name))

    @staticmethod
    def _collect_defs(tree: ast.Module) -> dict[str, ast.AST]:
        defs: dict[str, ast.AST] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        defs["%s.%s" % (node.name, method.name)] = method
        return defs


# --------------------------------------------------------------------- RPL006

class DeterminismRule(Rule):
    """Build/decode modules must produce byte-identical artifacts.

    Flags the ambient-nondeterminism sources a reproducible labeling cannot
    contain: module-level ``random.*`` (the sanctioned seam is a seeded
    ``random.Random(seed)`` instance), ``os.urandom`` / ``secrets`` /
    ``uuid``, wall-clock reads (``time.time``; ``time.perf_counter`` is fine
    — it only feeds build reports), builtin ``hash()`` outside ``__hash__``
    (PYTHONHASHSEED-dependent for strings), and direct iteration over a set
    literal / ``set(...)`` call (iteration order is ambient; sort first).
    """

    code = "RPL006"
    name = "determinism"
    description = ("no unseeded randomness, wall-clock, or set-iteration "
                   "ordering in build/decode modules")

    SCOPES = tuple("src/repro/%s/" % package for package in
                   ("coding", "outdetect", "gf2", "core", "build", "graphs",
                    "hierarchy", "labeling"))
    FORBIDDEN_CALLS = frozenset({
        "os.urandom", "time.time", "time.time_ns", "uuid.uuid1", "uuid.uuid4",
    })

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(self.SCOPES)

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        findings: list[Finding] = []
        self._visit(module, module.tree, in_hash=False, findings=findings)
        yield from findings

    def _visit(self, module: ModuleFile, node: ast.AST, in_hash: bool,
               findings: list) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_hash = node.name == "__hash__"
        elif isinstance(node, ast.ImportFrom):
            self._check_import(module, node, findings)
        elif isinstance(node, ast.Call):
            self._check_call(module, node, in_hash, findings)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_iterable(module, node.iter, findings)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                self._check_iterable(module, generator.iter, findings)
        for child in ast.iter_child_nodes(node):
            self._visit(module, child, in_hash, findings)

    def _check_import(self, module: ModuleFile, node: ast.ImportFrom,
                      findings: list) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    findings.append(self._finding(
                        module, node,
                        "imports random.%s; only seeded random.Random "
                        "instances are deterministic" % alias.name))
        elif node.module == "secrets":
            findings.append(self._finding(
                module, node, "imports secrets; build/decode modules must "
                              "be deterministic"))

    def _check_call(self, module: ModuleFile, node: ast.Call, in_hash: bool,
                    findings: list) -> None:
        name = _dotted_name(node.func)
        if name is None:
            return
        if name.startswith("random.") and name != "random.Random":
            findings.append(self._finding(
                module, node,
                "calls %s(); use a seeded random.Random instance (the "
                "config's random_seed seam)" % name))
        elif name in self.FORBIDDEN_CALLS or name.startswith("secrets."):
            findings.append(self._finding(
                module, node,
                "calls %s(); snapshot bytes must not depend on ambient "
                "entropy or wall-clock time" % name))
        elif name == "hash" and not in_hash:
            findings.append(self._finding(
                module, node,
                "calls builtin hash() outside __hash__; string hashes vary "
                "with PYTHONHASHSEED — use hashlib or a stable key"))

    def _check_iterable(self, module: ModuleFile, iterable: ast.AST,
                        findings: list) -> None:
        flagged = isinstance(iterable, ast.Set)
        if isinstance(iterable, ast.Call):
            flagged = _dotted_name(iterable.func) in ("set", "frozenset")
        if flagged:
            findings.append(self._finding(
                module, iterable,
                "iterates a set directly; set order is ambient — sort it "
                "(sorted(...)) before iterating in a build/decode path"))


# --------------------------------------------------------------------- RPL007

class SwapDisciplineRule(Rule):
    """The serving oracle is replaced only through the hot-swap seam.

    Zero-downtime reload works because exactly one code path —
    :meth:`SessionManager.swap_oracle` — flips the oracle pointer, under
    ``_swap_lock``, atomically with the epoch bump and the lease bookkeeping.
    A bare ``server.oracle = new`` / ``self.oracle = new`` anywhere else in
    :mod:`repro.server` would bypass the lease protocol: in-flight requests
    pinned to the old epoch could close an oracle still being read, or the
    epoch gauge would lie.  This rule flags every assignment whose target is
    an ``.oracle`` attribute in server code, outside the two sanctioned
    sites (``SessionManager.__init__`` and ``SessionManager.swap_oracle``).

    Lexical and intraprocedural like the other rules: any attribute named
    ``oracle`` counts, whatever the receiver — over-approximate on purpose,
    suppressible inline with ``# repro: allow[RPL007] why``.
    """

    code = "RPL007"
    name = "swap-discipline"
    description = ("the serving oracle pointer is assigned only inside "
                   "SessionManager.__init__ / SessionManager.swap_oracle")

    SCOPE = "src/repro/server/"
    ALLOWED_SITES = frozenset({("SessionManager", "__init__"),
                               ("SessionManager", "swap_oracle")})

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(self.SCOPE)

    def check(self, module: ModuleFile) -> Iterator[Finding]:
        findings: list[Finding] = []
        self._visit(module, module.tree, class_name=None, method_name=None,
                    findings=findings)
        yield from findings

    def _visit(self, module: ModuleFile, node: ast.AST,
               class_name: str | None, method_name: str | None,
               findings: list) -> None:
        if isinstance(node, ast.ClassDef):
            class_name, method_name = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if method_name is None:
                method_name = node.name
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        target.attr == "oracle" and \
                        (class_name, method_name) not in self.ALLOWED_SITES:
                    findings.append(self._finding(
                        module, node,
                        "assigns %s in %s — the serving oracle is replaced "
                        "only via SessionManager.swap_oracle (the lease-"
                        "protocol seam)"
                        % (ast.unparse(target),
                           "%s.%s()" % (class_name, method_name)
                           if class_name and method_name
                           else (method_name or "module scope"))))
        for child in ast.iter_child_nodes(node):
            self._visit(module, child, class_name, method_name, findings)


#: Registry in code order; the engine runs them all unless ``--rules`` picks.
RULES: tuple[Rule, ...] = (
    SeamDisciplineRule(),
    ErrorDisciplineRule(),
    AsyncSafetyRule(),
    LockDisciplineRule(),
    BulkScalarParityRule(),
    DeterminismRule(),
    SwapDisciplineRule(),
)


def rules_by_code() -> dict[str, Rule]:
    return {rule.code: rule for rule in RULES}


__all__ = ["ModuleFile", "Rule", "RULES", "rules_by_code", "LOCK_CONTRACTS",
           "LockContract", "PARSE_ERROR_CODE", "SeamDisciplineRule",
           "ErrorDisciplineRule", "AsyncSafetyRule", "LockDisciplineRule",
           "BulkScalarParityRule", "DeterminismRule", "SwapDisciplineRule"]
