"""Span-based tracing for the compilation pipeline and service.

A **trace** is one end-to-end story (a compile request, a benchmark
run), identified by a ``trace_id``.  It is made of **spans** — named,
timed intervals with parent/child nesting — and point-in-time
**events** attached to spans.  The model maps onto the paper's phase
structure directly: a ``compile`` span contains ``fe``/``ipa``/``be``
phase spans, which contain per-pass spans (``legality``,
``legality[a.c]``, ``apply``, ...), and in the service a ``request``
span contains one ``attempt`` span per execution attempt with the
worker's sub-spans stitched underneath.

Design constraints:

- **Explicit clock injection.**  Every :class:`Tracer` takes a
  ``clock`` callable; tests drive it with a scripted clock and assert
  exact timings.  The default is :func:`time.perf_counter`, which on
  Linux is ``CLOCK_MONOTONIC`` — shared across processes, so worker
  spans stitched into a supervisor trace stay on one timeline.
- **Zero overhead when disabled.**  A disabled tracer's
  :meth:`Tracer.span` returns a module-level no-op context-manager
  singleton: no allocation, no clock read, no lock.  The pipeline's
  per-pass hooks additionally gate on the (empty) observer registry,
  so a compile with tracing off does one falsy check per pass.
- **Serializable.**  Spans cross the service process boundary as plain
  dicts (:meth:`Span.to_dict` / :meth:`Span.from_dict`); the
  supervisor re-parents and re-ids worker spans when stitching.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: span categories used by the built-in instrumentation
CAT_COMPILE = "compile"      # whole-compilation roots
CAT_PHASE = "phase"          # fe / ipa / be
CAT_PASS = "pass"            # individual guarded passes
CAT_SERVICE = "service"      # request / attempt / job spans


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id."""
    return int.from_bytes(os.urandom(8), "big").to_bytes(8, "big").hex()


@dataclass
class Span:
    """One named, timed interval in a trace."""

    name: str
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None
    category: str = ""
    start: float = 0.0                 # clock seconds
    end: float | None = None           # None while the span is open
    status: str = "ok"                 # ok | error
    attrs: dict[str, Any] = field(default_factory=dict)
    #: point events: (clock seconds, name, attrs)
    events: list[tuple[float, str, dict]] = field(default_factory=list)
    pid: int = 0
    tid: int = 0

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def add_event(self, name: str, clock_now: float,
                  **attrs: Any) -> None:
        self.events.append((clock_now, name, attrs))

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "trace_id": self.trace_id,
            "span_id": self.span_id, "parent_id": self.parent_id,
            "category": self.category, "start": self.start,
            "end": self.end, "status": self.status,
            "attrs": dict(self.attrs),
            "events": [[t, n, dict(a)] for t, n, a in self.events],
            "pid": self.pid, "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=str(d.get("name", "")),
            trace_id=str(d.get("trace_id", "")),
            span_id=str(d.get("span_id", "")),
            parent_id=d.get("parent_id"),
            category=str(d.get("category", "")),
            start=float(d.get("start", 0.0)),
            end=None if d.get("end") is None else float(d["end"]),
            status=str(d.get("status", "ok")),
            attrs=dict(d.get("attrs") or {}),
            events=[(float(t), str(n), dict(a))
                    for t, n, a in (d.get("events") or [])],
            pid=int(d.get("pid", 0)), tid=int(d.get("tid", 0)))


class _NullSpan:
    """The do-nothing span a disabled tracer hands out."""

    __slots__ = ()
    status = "ok"
    #: readable so call sites can hand a span's id onward (e.g. as an
    #: explicit parent) without guarding on the tracer being enabled
    span_id = None
    parent_id = None

    def add_event(self, *a: Any, **kw: Any) -> None:
        pass

    def set(self, **kw: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


#: the singleton no-op span/context-manager (shared, never allocated)
NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager closing one live span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.span.status == "ok":
            self.span.status = "error"
            self.span.attrs.setdefault(
                "error", f"{type(exc).__name__}: {exc}")
        self._tracer.finish(self.span)


class Tracer:
    """Collects spans for one trace.

    Thread-safe: the current-span stack is thread-local, so spans
    started on different threads nest independently; the finished-span
    list is guarded by a lock.
    """

    def __init__(self, *, clock: Callable[[], float] | None = None,
                 enabled: bool = True, trace_id: str | None = None,
                 id_prefix: str = ""):
        self.clock = clock or time.perf_counter
        self.enabled = enabled
        self.trace_id = trace_id or (new_trace_id() if enabled else "")
        self._id_prefix = id_prefix
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: finished spans, in finish order
        self.spans: list[Span] = []

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def start(self, name: str, *, category: str = "",
              parent_id: str | None = None,
              attrs: dict | None = None) -> Span:
        """Open a span as a child of the thread's current span (or of
        ``parent_id`` when given) and make it current."""
        if not self.enabled:
            return NULL_SPAN            # type: ignore[return-value]
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        with self._lock:
            span_id = f"{self._id_prefix}{next(self._ids)}"
        span = Span(name=name, trace_id=self.trace_id, span_id=span_id,
                    parent_id=parent_id, category=category,
                    start=self.clock(), attrs=dict(attrs or {}),
                    pid=os.getpid(), tid=threading.get_ident())
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close ``span`` and every span opened under it since."""
        if not self.enabled or span is NULL_SPAN:
            return
        stack = self._stack()
        if span.end is None:
            span.end = self.clock()
        if span in stack:
            # pop through any children left open (error unwinds)
            while stack:
                top = stack.pop()
                if top is span:
                    break
                if top.end is None:
                    top.end = span.end
                    with self._lock:
                        self.spans.append(top)
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, *, category: str = "",
             attrs: dict | None = None):
        """``with tracer.span("fe"): ...`` — the common form."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, self.start(name, category=category,
                                             attrs=attrs))

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point event to the current span (no-op without one)."""
        if not self.enabled:
            return
        cur = self.current()
        if cur is not None:
            cur.add_event(name, self.clock(), **attrs)

    # -- assembled / foreign spans ----------------------------------------

    def add_finished(self, name: str, start: float, end: float, *,
                     category: str = "", parent_id: str | None = None,
                     attrs: dict | None = None, tid: int = 0) -> Span:
        """Record a span whose interval was measured elsewhere (e.g.
        the admission-queue wait before dispatch, or a front end
        restored from the summary cache)."""
        if not self.enabled:
            return NULL_SPAN            # type: ignore[return-value]
        if parent_id is None:
            cur = self.current()
            parent_id = cur.span_id if cur is not None else None
        with self._lock:
            span_id = f"{self._id_prefix}{next(self._ids)}"
        span = Span(name=name, trace_id=self.trace_id, span_id=span_id,
                    parent_id=parent_id, category=category, start=start,
                    end=end, attrs=dict(attrs or {}),
                    pid=os.getpid(),
                    tid=tid or threading.get_ident())
        with self._lock:
            self.spans.append(span)
        return span

    def adopt(self, span_dicts: list[dict], *,
              parent_id: str | None = None,
              id_prefix: str = "") -> list[Span]:
        """Stitch foreign (serialized) spans into this trace.

        Re-ids every span with ``id_prefix`` to avoid collisions,
        rewrites the trace id, and re-parents orphan roots under
        ``parent_id``.  Returns the adopted spans.
        """
        if not self.enabled:
            return []
        adopted = [Span.from_dict(d) for d in span_dicts]
        local_ids = {s.span_id for s in adopted}
        for s in adopted:
            s.trace_id = self.trace_id
            s.span_id = f"{id_prefix}{s.span_id}"
            if s.parent_id is not None and s.parent_id in local_ids:
                s.parent_id = f"{id_prefix}{s.parent_id}"
            elif parent_id is not None:
                s.parent_id = parent_id
        with self._lock:
            self.spans.extend(adopted)
        return adopted

    # -- inspection --------------------------------------------------------

    def finished(self) -> list[Span]:
        with self._lock:
            return list(self.spans)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.finished() if s.name == name]


#: the shared disabled tracer — the default everywhere tracing is off
NULL_TRACER = Tracer(enabled=False)
