"""Span tracing from outside the program: wrappers on public entry points.

A :class:`Tracer` replaces chosen methods and functions of the program
with wrappers that record one span per call: name, start, end, parent
span and the request (root span) it belongs to.  Nothing inside the
program changes; uninstalling restores the originals.

Parents are found two ways.  A call made on the thread that opened a
span nests under that thread's innermost open span.  A call on another
thread (a shard call on a worker-pool thread) is linked to its request
through the sketch object it receives: :meth:`Tracer.request`
registers the sketch of every traced request.

Whether a request is traced is decided once, when it starts, so spans
never come from half a request; the benchmark traces requests that
start in alternate windows, which measures the tracing overhead
inside one run.

Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request",
                 "attrs")

    def __init__(self, span_id, name, start, parent, request):
        self.id = span_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.request = request
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request,
                "attrs": {key: value for key, value in self.attrs.items()
                          if isinstance(value, (int, float, str, bool,
                                                list, dict, type(None)))}}


def self_time(span: Span, children: List[Span]) -> float:
    """``span``'s duration minus the part of it its children cover
    (overlapping children count once)."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, cursor)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._by_sketch: Dict[int, Span] = {}
        self._restore: List[Callable[[], None]] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name: str, parent: Optional[Span]) -> Span:
        span = Span(next(self._ids), name, self.clock(),
                    parent.id if parent is not None else None,
                    parent.request if parent is not None else None)
        if span.request is None:
            span.request = span.id
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def request(self, name: str, sketch=None,
                traced: bool = True) -> Iterator[Optional[Span]]:
        """A root span around one client request, or ``None`` (and no
        tracing below it) when ``traced`` is false."""
        if not traced:
            yield None
            return
        span = self._open(name, None)
        if sketch is not None:
            with self._lock:
                self._by_sketch[id(sketch)] = span
        try:
            yield span
        finally:
            if sketch is not None:
                with self._lock:
                    self._by_sketch.pop(id(sketch), None)
            self._close(span)

    def _linked(self, sketch) -> Optional[Span]:
        with self._lock:
            return self._by_sketch.get(id(sketch))

    # -- wrappers -----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *,
             link: Optional[Callable[[tuple], Any]] = None,
             record: Optional[Callable[[Span, tuple, Any], None]] = None,
             outermost: bool = False) -> None:
        """Trace every call of ``owner.attr`` (a class or module member).

        ``link(args)`` returns the sketch that ties a call on a foreign
        thread to its request.  ``record(span, args, result)`` stores
        counts on the span.  ``outermost`` skips calls nested in a span
        of the same name (a composite index delegating to its parts).
        Calls with no traced parent run untouched.
        """
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        original = raw.__func__ if is_static else raw
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current()
            if parent is None and link is not None:
                parent = tracer._linked(link(args))
            if parent is None or (outermost and parent.name == name):
                return original(*args, **kwargs)
            span = tracer._open(name, parent)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if record is not None:
                record(span, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, staticmethod(traced) if is_static else traced)
        self._restore.append(lambda: setattr(owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output -------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)

    def by_request(self) -> Dict[int, List[Span]]:
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.request, []).append(span)
        return grouped
