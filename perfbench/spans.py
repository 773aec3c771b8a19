"""In-memory spans for the benchmark's traced runs.

One :class:`Recorder` lives in each traced process: the load generator
records spans around its calls into the build, delta and snapshot layers,
and the server launcher (``serve.py``) installs wrappers around the server
and decode layers.  Spans stay in memory and are written once, when the
process ends.  A span carries its name, start, end, parent span and request
id; the parent comes from a context variable, so it follows the call stack
within a thread or an asyncio task.

Nothing here is imported by the program under test.  The wrappers replace
module and class attributes at the names the callers look up, before the
server starts, and only in traced runs.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_CURRENT_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)
_REQUEST_ID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None)
_LEVEL_SCHEMES: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_levels", default=None)
#: The field-arithmetic counters of the session build running in this context.
_BUILD_COUNTS: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_build_counts", default=None)


class Recorder:
    """The spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """Time the body as one span.

        Yields the span's record: the body may add attributes to it, and
        once the block has exited it also holds ``start`` and ``end``.
        """
        record = dict(attrs, id=next(self._ids), name=name,
                      parent=_CURRENT_SPAN.get(), request=_REQUEST_ID.get())
        token = _CURRENT_SPAN.set(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            _CURRENT_SPAN.reset(token)
            self.spans.append(record)

    def new_request(self) -> None:
        """Start a request: later spans in this task carry its id."""
        _REQUEST_ID.set(next(self._requests))

    def timed(self, function: Callable, name: str,
              after: Callable | None = None) -> Callable:
        """``function`` wrapped in a span; ``after(attrs, args, result)`` may
        annotate the span from the call's arguments and result."""
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name) as attrs:
                    result = await function(*args, **kwargs)
                    if after is not None:
                        after(attrs, args, result)
                    return result
            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as attrs:
                result = function(*args, **kwargs)
                if after is not None:
                    after(attrs, args, result)
                return result
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def seconds(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda item: item["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


# ------------------------------------------------------- server-side wrappers

def _patch(owner: Any, attribute: str, wrap: Callable, undo: list) -> None:
    original = inspect.getattr_static(owner, attribute)
    undo.append((owner, attribute, original))
    if isinstance(original, staticmethod):
        setattr(owner, attribute, staticmethod(wrap(original.__func__)))
    else:
        setattr(owner, attribute, wrap(original))


def _in_submitters_context(submit: Callable) -> Callable:
    """Run executor jobs inside the submitter's context, so spans opened on a
    worker thread keep their parent span and request id."""
    @functools.wraps(submit)
    def submit_in_context(self: Any, fn: Callable, /, *args: Any,
                          **kwargs: Any) -> Any:
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)
    return submit_in_context


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap the wire, session, decode and snapshot layers in spans, and count
    field arithmetic per session build.  Returns a function that removes
    the wrappers again."""
    from concurrent.futures import ThreadPoolExecutor

    import repro.api
    import repro.coding.rootfind as rootfind
    import repro.coding.rs_decoder as rs_decoder
    from repro.coding.rs_decoder import SparseRecoveryDecoder
    from repro.coding.syndrome import SyndromeEncoder
    from repro.core.batch import BatchQuerySession
    from repro.core.query import FragmentStructure
    from repro.core.snapshot import RehydratedOracle
    from repro.gf2 import bulk
    from repro.gf2.field import GF2m
    from repro.outdetect.layered import LayeredOutdetect
    from repro.outdetect.rs_threshold import RSThresholdOutdetect
    import repro.server.server as server_module
    from repro.server.session_manager import SessionManager

    undo: list = []

    def patch(owner: Any, attribute: str, wrap: Callable) -> None:
        _patch(owner, attribute, wrap, undo)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    patch(ThreadPoolExecutor, "submit", _in_submitters_context)

    def dispatch(function: Callable) -> Callable:
        timed = recorder.timed(function, "wire.dispatch")

        @functools.wraps(function)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            # Left set after the call: the response is encoded next, in the
            # same task, and belongs to the same request.
            recorder.new_request()
            return await timed(*args, **kwargs)
        return wrapper

    def note_labels(attrs: dict, args: tuple, result: Any) -> None:
        attrs["labels"] = len(result)

    def note_locators(attrs: dict, args: tuple, result: Any) -> None:
        attrs["locators"] = len(result)
        attrs["degree_sum"] = sum(max(poly.degree, 0) for poly in result)

    def note_rooted(attrs: dict, args: tuple, result: Any) -> None:
        attrs["rooted"] = len(result)

    def note_verified(attrs: dict, args: tuple, result: Any) -> None:
        attrs["verified"] = sum(1 for entry in result
                                if isinstance(entry, list) and entry)

    def layered(function: Callable) -> Callable:
        timed = recorder.timed(function, "outdetect.decode_many", note_labels)

        @functools.wraps(function)
        def wrapper(self: Any, labels: Any) -> Any:
            token = _LEVEL_SCHEMES.set(self.level_schemes)
            try:
                return timed(self, labels)
            finally:
                _LEVEL_SCHEMES.reset(token)
        return wrapper

    def level(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self: Any, labels: Any) -> Any:
            labels = list(labels)
            schemes = _LEVEL_SCHEMES.get() or ()
            index = next((position for position, scheme in enumerate(schemes)
                          if scheme is self), -1)
            with recorder.span("outdetect.level", level=index, labels=len(labels)):
                return function(self, labels)
        return wrapper

    def named(name: str, after: Callable | None = None) -> Callable:
        return lambda function: recorder.timed(function, name, after)

    def session_build(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            with recorder.span("session.build") as attrs:
                attrs.update({"gf2.mul_calls": 0, "gf2.mul_lanes": 0,
                              "gf2.chien_calls": 0})
                token = _BUILD_COUNTS.set(attrs)
                try:
                    function(self, *args, **kwargs)
                finally:
                    _BUILD_COUNTS.reset(token)
                attrs["fragments"] = self.num_fragments()
        return wrapper

    def count_calls(name: str) -> Callable:
        def wrap(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts = _BUILD_COUNTS.get()
                if counts is not None:
                    counts[name] += 1
                return function(*args, **kwargs)
            return wrapper
        return wrap

    def count_lanes(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self: Any, elements: Any, multiplier: Any) -> Any:
            counts = _BUILD_COUNTS.get()
            if counts is not None:
                counts["gf2.mul_lanes"] += len(elements)
            return function(self, elements, multiplier)
        return wrapper

    patch(server_module.QueryServer, "_dispatch", dispatch)
    patch(server_module, "parse_request", named("wire.parse"))
    patch(server_module, "encode_line", named("wire.encode"))
    patch(SessionManager, "connected_many", named("session.connected_many"))
    patch(RehydratedOracle, "connected_many", named("session.answer"))
    patch(BatchQuerySession, "__init__", session_build)
    patch(FragmentStructure, "__init__", named("query.fragment"))
    patch(FragmentStructure, "fragment_outdetect_label", named("query.fragment"))
    patch(LayeredOutdetect, "decode_many", layered)
    patch(RSThresholdOutdetect, "decode_many", level)
    patch(SparseRecoveryDecoder, "decode_many_deferred",
          named("coding.decode_many", note_verified))
    patch(rs_decoder, "berlekamp_massey_many", named("coding.bm", note_locators))
    patch(rs_decoder, "find_roots_many", named("coding.roots", note_rooted))
    patch(SyndromeEncoder, "syndrome_of_many", named("coding.verify"))
    patch(repro.api.Oracle, "load", named("snapshot.load"))
    # Field arithmetic is counted per session build, not timed.  overhead.py
    # measures what all these wrappers together cost a decode.
    patch(GF2m, "mul", count_calls("gf2.mul_calls"))
    patch(rootfind, "chien_roots", count_calls("gf2.chien_calls"))
    for backend in (bulk.PyBulkOps, bulk.NumpyBulkOps):
        patch(backend, "mul_many", count_lanes)
    return uninstall
