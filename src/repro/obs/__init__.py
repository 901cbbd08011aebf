"""Observability: span tracing, metrics, and per-pass profiling.

The instrumentation layer for the whole toolchain — the pipeline's
guarded passes publish structured events into :data:`PASS_EVENTS`,
tracers collect phase/pass spans (stitched across the service boundary
by the supervisor), the metrics registry keeps counters/gauges/
histograms, and the exporters emit Chrome ``trace_event`` JSON (for
``about:tracing`` / Perfetto) and flat JSONL (for the bench harness).

Everything here is opt-in and pay-for-what-you-use: with no tracer
and no subscribers, the pipeline's only observability cost is one
falsy check per guarded pass.
"""

from .trace import (
    CAT_COMPILE, CAT_PASS, CAT_PHASE, CAT_SERVICE,
    NULL_SPAN, NULL_TRACER, Span, Tracer, new_trace_id,
)
from .metrics import (
    METRICS, Counter, Gauge, Histogram, MetricsRegistry, render_key,
)
from .observers import (
    EVENT_KINDS, PASS_EVENTS, MetricsPassObserver, PassEvent,
    PassEventRecorder, PassObserverRegistry, PassProfiler,
    TracingPassObserver,
)
from .export import (
    chrome_trace, jsonl_lines, validate_chrome_trace, write_chrome_trace,
    write_jsonl, write_trace,
)

__all__ = [
    "CAT_COMPILE", "CAT_PASS", "CAT_PHASE",
    "CAT_SERVICE", "NULL_SPAN", "NULL_TRACER", "Span", "Tracer",
    "new_trace_id",
    "METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "render_key",
    "EVENT_KINDS", "PASS_EVENTS", "MetricsPassObserver", "PassEvent",
    "PassEventRecorder", "PassObserverRegistry", "PassProfiler",
    "TracingPassObserver",
    "chrome_trace", "jsonl_lines", "validate_chrome_trace",
    "write_chrome_trace", "write_jsonl", "write_trace",
]
