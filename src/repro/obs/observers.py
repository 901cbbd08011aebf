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
    """Opens one child span per guarded pass on the subscribing thread.

    Events from other threads are ignored: a concurrent compile on a
    different thread must not graft its passes into this trace.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._thread = threading.get_ident()
        self._open: dict[str, Span] = {}

    def __call__(self, ev: PassEvent) -> None:
        if threading.get_ident() != self._thread:
            return
        if ev.kind == "enter":
            self._open[ev.name] = self.tracer.start(
                ev.name, category=CAT_PASS)
            return
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
    that stay under an earlier peak, which is the honest number.  Like
    :class:`TracingPassObserver`, it only counts passes run on the
    subscribing thread.
    """

    def __init__(self):
        self._thread = threading.get_ident()
        self._entered: dict[str, tuple[int, int]] = {}
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

    def __call__(self, ev: PassEvent) -> None:
        if threading.get_ident() != self._thread:
            return
        if ev.kind == "enter":
            self._entered[ev.name] = (self._peak_rss_kb(), ev.diags)
            return
        rss0, diags0 = self._entered.pop(ev.name, (0, 0))
        self.profile[ev.name] = {
            "wall_ms": round(ev.elapsed * 1e3, 3),
            "rss_kb_delta": max(0, self._peak_rss_kb() - rss0),
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
