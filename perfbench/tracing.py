"""In-memory spans around the program's public entry points.

A span is one call of a wrapped function: its name, its start and end, and
the span that was open on the same thread when it began (its parent).  Spans
are folded into per-name aggregates the moment they close -- calls, busy
seconds, self seconds (the span minus the time its child spans cover) and a
per-name work count -- so a traced run holds a few hundred numbers however
many calls it makes, and dumps them when it ends.

Coroutine functions get a span that measures wall time only: coroutines
interleave on one event-loop thread, so they take no part in parent/child
accounting (their self time is reported equal to their busy time).

Nothing here changes what a wrapped function computes; :class:`Patches`
restores every replaced attribute on ``undo()``.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter
from typing import Any, Callable

_MISSING = object()

#: The six ``BulkOps`` operations, traced per phase and backend.
GF2_OPS = ("mul_many", "pow_range", "pow_range_many", "xor_accumulate",
           "scatter_xor_rows", "scatter_xor")

#: ``BulkOps`` class name -> backend tag used in ``gf2.<phase>.<backend>.<op>``.
GF2_BACKENDS = {"PyBulkOps": "py", "NumpyBulkOps": "numpy"}


class Recorder:
    """Per-name span aggregates plus plain counters, safe across threads."""

    def __init__(self, phase: str = "decode"):
        #: ``build`` while a labeling is constructed, ``decode`` otherwise.
        self.phase = phase
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_span(self, name: str, busy: float, self_seconds: float,
                 items: int) -> None:
        with self._lock:
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += busy
            entry[2] += self_seconds
            entry[3] += items

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self) -> dict:
        """JSON-ready aggregates: ``{"spans": {name: {...}}, "counts": {...}}``."""
        with self._lock:
            return {
                "spans": {name: {"calls": calls, "busy_s": busy,
                                 "self_s": self_seconds, "items": items}
                          for name, (calls, busy, self_seconds, items)
                          in sorted(self.spans.items())},
                "counts": dict(sorted(self.counts.items())),
            }


def span_sync(recorder: Recorder, name: Any, func: Callable,
              items: Callable | None = None, outermost: bool = False,
              root_only: bool = False,
              after: Callable | None = None) -> Callable:
    """Wrap a plain function in a span.

    ``name`` is a string or a zero-argument callable evaluated per call (the
    gf2 spans read the recorder's current phase).  ``items(args, result)``
    gives the work count of one call.  With ``outermost`` a call made
    directly inside a span of the same name is not traced again, so a
    wrapper delegating to a wrapped sibling counts once; with ``root_only``
    only calls made outside every other span are traced.  ``after(args,
    result)`` runs after a successful call (extra counters).
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span_name = name() if callable(name) else name
        stack = recorder.stack()
        if stack and (root_only or (outermost and stack[-1][0] == span_name)):
            return func(*args, **kwargs)
        frame = [span_name, 0.0]
        stack.append(frame)
        start = perf_counter()
        result, ok = None, False
        try:
            result = func(*args, **kwargs)
            ok = True
            return result
        finally:
            busy = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += busy
            count = items(args, result) if ok and items is not None else 0
            recorder.add_span(span_name, busy, busy - frame[1], count)
            if ok and after is not None:
                after(args, result)

    return wrapper


def span_async(recorder: Recorder, name: str, func: Callable,
               items: Callable | None = None) -> Callable:
    """Wrap a coroutine function in a wall-time span."""

    @functools.wraps(func)
    async def wrapper(*args, **kwargs):
        start = perf_counter()
        result, ok = None, False
        try:
            result = await func(*args, **kwargs)
            ok = True
            return result
        finally:
            busy = perf_counter() - start
            count = items(args, result) if ok and items is not None else 0
            recorder.add_span(name, busy, busy, count)

    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def replace(self, owner: Any, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(current_function)``."""
        raw = vars(owner).get(attr, _MISSING)
        replacement = make(getattr(owner, attr))
        if isinstance(raw, staticmethod):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def _subclasses(root: type) -> list:
    found, pending = [], [root]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            pending.append(sub)
    return found


def _gf2_items(op: str) -> Callable:
    """Elements one ``BulkOps`` call produced: its row or its matrix cells."""
    if op in ("pow_range_many", "scatter_xor_rows", "scatter_xor"):
        return lambda args, result: sum(len(row) for row in result)
    return lambda args, result: len(result)


def install_decode_stack(recorder: Recorder, patches: Patches,
                         oracle_type: type | None = None) -> None:
    """Trace the layers under a query: sessions, outdetect, coding, gf2.

    ``oracle_type`` is the class of the serving oracle (whatever
    ``Oracle.load`` returned); its ``connected_many`` becomes the
    ``query.answer`` span.
    """
    from repro.coding import rs_decoder
    from repro.coding.syndrome import SyndromeEncoder
    from repro.core.batch import BatchQuerySession
    from repro.gf2 import bulk
    from repro.outdetect import layered, rs_threshold, sketch  # noqa: F401
    from repro.outdetect.base import OutdetectScheme

    patches.replace(BatchQuerySession, "__init__", lambda f: span_sync(
        recorder, "session.build", f, after=lambda args, _: recorder.count(
            "session.fragments", args[0].num_fragments())))
    for cls in _subclasses(OutdetectScheme):
        if "decode_many" in vars(cls):
            patches.replace(cls, "decode_many", lambda f: span_sync(
                recorder, "outdetect.decode_many", f, outermost=True,
                items=lambda args, result: len(result),
                after=lambda args, result: recorder.count(
                    "outdetect.decoded",
                    sum(1 for entry in result
                        if isinstance(entry, list) and entry))))
        if "combine" in vars(cls):
            patches.replace(cls, "combine", lambda f: span_sync(
                recorder, "outdetect.combine", f, outermost=True))
    patches.replace(rs_decoder, "berlekamp_massey_many", lambda f: span_sync(
        recorder, "coding.berlekamp_massey_many", f,
        items=lambda args, result: len(result)))
    patches.replace(rs_decoder, "find_roots_many", lambda f: span_sync(
        recorder, "coding.find_roots_many", f,
        items=lambda args, result: len(result)))
    patches.replace(SyndromeEncoder, "syndrome_of_many", lambda f: span_sync(
        recorder, "coding.syndrome_of_many", f,
        items=lambda args, result: len(result)))
    for cls in (bulk.PyBulkOps, bulk.NumpyBulkOps):
        backend = GF2_BACKENDS[cls.__name__]
        for op in GF2_OPS:
            if op not in vars(cls):
                continue
            namer = (lambda backend=backend, op=op:
                     "gf2.%s.%s.%s" % (recorder.phase, backend, op))
            patches.replace(cls, op, lambda f, namer=namer, op=op: span_sync(
                recorder, namer, f, items=_gf2_items(op)))
    if oracle_type is not None:
        patches.replace(oracle_type, "connected_many", lambda f: span_sync(
            recorder, "query.answer", f,
            items=lambda args, result: len(result)))


def install_server(recorder: Recorder, patches: Patches,
                   oracle_type: type) -> None:
    """Trace the request path of ``repro.server`` and the hot swap.

    The decode stack under it is traced by :func:`install_decode_stack`;
    this adds the wire codec, the session manager, the oracle calls the
    manager makes on its executor, the snapshot reload and the re-warm.
    """
    from repro import api
    from repro.server import server
    from repro.server.session_manager import SessionManager

    patches.replace(server, "parse_request", lambda f: span_sync(
        recorder, "server.parse", f))
    patches.replace(server, "encode_line", lambda f: span_sync(
        recorder, "server.encode", f))
    patches.replace(SessionManager, "connected_many", lambda f: span_async(
        recorder, "server.session_manager", f))
    # Only the manager's own session lookups: the one inside the oracle's
    # connected_many runs under the query.answer span and is skipped.
    patches.replace(oracle_type, "batch_session", lambda f: span_sync(
        recorder, "server.oracle_session", f, root_only=True))
    patches.replace(server.QueryServer, "rewarm_hot_sessions",
                    lambda f: span_async(recorder, "swap.rewarm", f,
                                         items=lambda args, result: result))
    patches.replace(api.Oracle, "load", lambda f: span_sync(
        recorder, "swap.load", f))
