"""The pass-event observer registry.

Fault injection, crash-report attribution, tracing and metrics all
watch the same passes.  Any number of subscribers receive structured
:class:`PassEvent`\\ s (``enter`` / ``exit`` / ``fail``) from every
guarded pass, and the built-in consumers (tracing, metrics, per-pass
profiling) are ordinary subscribers instead of privileged globals.

Contract:

- ``enter`` is published **before** the containment boundary, so a
  subscriber that raises a :class:`BaseException` (the service's
  simulated-OOM process fault) escapes containment; ordinary
  :class:`Exception`\\ s from subscribers are swallowed —
  observability must never change compilation results.
- ``exit`` / ``fail`` are published after the pass body with its
  elapsed wall clock and the diagnostic count at that point, letting
  subscribers compute per-pass diagnostic deltas.
- The registry's truthiness gates the hot path: with no subscribers
  the pipeline pays one falsy check per pass and nothing else.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from .metrics import MetricsRegistry
from .trace import CAT_PASS, Span, Tracer

#: event kinds, in lifecycle order
EVENT_KINDS = ("enter", "exit", "fail")


@dataclass
class PassEvent:
    """One structured pass-lifecycle notification."""

    name: str                         # pass name, e.g. "legality[a.c]"
    kind: str                         # enter | exit | fail
    elapsed: float = 0.0              # seconds (exit/fail only)
    error: str | None = None          # "Type: message" (fail only)
    #: diagnostics recorded in the compile so far at publish time
    diags: int = 0
    #: opaque owning-compilation token: DAG nodes run on scheduler
    #: worker threads, so thread identity no longer attributes an
    #: event to a compile — this does
    ctx: Any = None

    @property
    def base_name(self) -> str:
        """The parent pass of a per-unit sub-pass (``legality[a.c]``
        -> ``legality``)."""
        return self.name.split("[", 1)[0]


class PassObserverRegistry:
    """Thread-safe fan-out of :class:`PassEvent`\\ s to subscribers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._subs: tuple[Callable[[PassEvent], Any], ...] = ()

    def __bool__(self) -> bool:
        return bool(self._subs)

    def __len__(self) -> int:
        return len(self._subs)

    def subscribe(self, fn: Callable[[PassEvent], Any]
                  ) -> Callable[[PassEvent], Any]:
        with self._lock:
            self._subs = self._subs + (fn,)
        return fn

    def unsubscribe(self, fn: Callable[[PassEvent], Any]) -> None:
        with self._lock:
            self._subs = tuple(s for s in self._subs if s is not fn)

    @contextmanager
    def subscribed(self, *fns: Callable[[PassEvent], Any]):
        """Subscribe ``fns`` for the duration of a ``with`` block —
        the leak-proof form every consumer should use."""
        for fn in fns:
            self.subscribe(fn)
        try:
            yield self
        finally:
            for fn in fns:
                self.unsubscribe(fn)

    def publish(self, event: PassEvent) -> None:
        for fn in self._subs:
            try:
                fn(event)
            except Exception:
                # observability must never change compilation results;
                # BaseException (process faults) deliberately escapes
                pass


#: the process-global registry the pipeline publishes into
PASS_EVENTS = PassObserverRegistry()


# ---------------------------------------------------------------------------
# Built-in subscribers
# ---------------------------------------------------------------------------

class TracingPassObserver:
    """Opens one child span per guarded pass.

    Events from other compiles are ignored: when ``ctx`` is set, only
    events carrying the same token are accepted (DAG nodes may run on
    any scheduler worker thread); without a token, thread identity is
    the filter, as before — a concurrent compile must not graft its
    passes into this trace.  ``created`` keeps every span this observer
    opened so the pipeline can re-parent spans that were started on
    worker threads where no phase span was current.
    """

    def __init__(self, tracer: Tracer, ctx: Any = None):
        self.tracer = tracer
        self.ctx = ctx
        self._thread = threading.get_ident()
        self._lock = threading.Lock()
        self._open: dict[str, Span] = {}
        self.created: list[Span] = []

    def _mine(self, ev: PassEvent) -> bool:
        if self.ctx is not None:
            return ev.ctx is self.ctx
        return threading.get_ident() == self._thread

    def __call__(self, ev: PassEvent) -> None:
        if not self._mine(ev):
            return
        if ev.kind == "enter":
            span = self.tracer.start(ev.name, category=CAT_PASS)
            with self._lock:
                self._open[ev.name] = span
                self.created.append(span)
            return
        with self._lock:
            span = self._open.pop(ev.name, None)
        if span is None:
            return
        if ev.kind == "fail":
            span.status = "error"
            span.attrs["error"] = ev.error
        self.tracer.finish(span)


class MetricsPassObserver:
    """Feeds per-pass wall time and failure counts into a registry."""

    def __init__(self, metrics: MetricsRegistry):
        self.metrics = metrics

    def __call__(self, ev: PassEvent) -> None:
        if ev.kind == "enter":
            return
        base = ev.base_name
        self.metrics.histogram(
            "pass.wall_ms", **{"pass": base}).observe(ev.elapsed * 1e3)
        if ev.kind == "fail":
            self.metrics.counter("pass.fail", **{"pass": base}).inc()


class PassProfiler:
    """Per-pass profiling: wall time, peak-RSS growth, diagnostics.

    ``ru_maxrss`` is a high-water mark, so the recorded delta is the
    *growth of the process peak* during the pass — zero for passes
    that stay under an earlier peak, which is the honest number.  With
    concurrent passes the peak's growth is additionally attributed at
    most once: each pass measures against the highest baseline any
    pass has seen, so overlapping nodes cannot double-count the same
    RSS growth into the phase totals.

    Like :class:`TracingPassObserver`, a ``ctx`` token scopes the
    profiler to one compile across scheduler worker threads; without
    one it falls back to thread-identity filtering.
    """

    def __init__(self, ctx: Any = None):
        self.ctx = ctx
        self._thread = threading.get_ident()
        self._lock = threading.Lock()
        self._entered: dict[str, tuple[int, int]] = {}
        self._high = 0                # highest baseline handed out
        #: pass name -> {wall_ms, rss_kb_delta, diags, failed}
        self.profile: dict[str, dict] = {}

    @staticmethod
    def _peak_rss_kb() -> int:
        try:
            import resource
            return int(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss)
        except Exception:               # pragma: no cover - non-POSIX
            return 0

    def _mine(self, ev: PassEvent) -> bool:
        if self.ctx is not None:
            return ev.ctx is self.ctx
        return threading.get_ident() == self._thread

    def __call__(self, ev: PassEvent) -> None:
        if not self._mine(ev):
            return
        if ev.kind == "enter":
            with self._lock:
                self._entered[ev.name] = (self._peak_rss_kb(),
                                          ev.diags)
            return
        peak = self._peak_rss_kb()
        with self._lock:
            rss0, diags0 = self._entered.pop(ev.name, (0, 0))
            base = max(rss0, self._high)
            delta = max(0, peak - base)
            self._high = max(self._high, peak)
            self.profile[ev.name] = {
                "wall_ms": round(ev.elapsed * 1e3, 3),
                "rss_kb_delta": delta,
                "diags": max(0, ev.diags - diags0),
                "failed": ev.kind == "fail",
            }


@dataclass
class PassEventRecorder:
    """Test helper: keeps every published event, in order."""

    events: list[PassEvent] = field(default_factory=list)

    def __call__(self, ev: PassEvent) -> None:
        self.events.append(ev)

    def names(self, kind: str | None = None) -> list[str]:
        return [e.name for e in self.events
                if kind is None or e.kind == kind]
