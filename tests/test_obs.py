"""Observability layer tests: span tracer, metrics registry, the pass
event observer registry (``PASS_EVENTS``), pipeline span
nesting, metrics accuracy against a
scripted compile, Chrome/JSONL export, the ``repro.api`` facade, and
trace-id propagation through a live daemon with a killed-and-retried
worker."""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.api import (
    ApiError, CompileOptions, CompileReply, CompileRequest, Session,
)
from repro.core import Compiler, CompilerOptions
from repro.core.pipeline import PASS_EVENTS
from repro.obs import (
    CAT_PASS, CAT_PHASE, CAT_SERVICE, MetricsRegistry, NULL_SPAN,
    NULL_TRACER, PassEvent, PassEventRecorder, PassProfiler, Tracer,
    chrome_trace, jsonl_lines, render_key, validate_chrome_trace,
    write_trace,
)
from repro.service import (
    CompileServer, ProtocolError, Supervisor, SupervisorConfig,
    parse_compile, single_request, wait_ready,
)
from repro.service.worker import execute_job

from .test_cli import UNRUNNABLE

DEMO = """
struct item { long key; long val; long rare1; long rare2; double dead; };
struct item *tab;
int main() {
    int i; int it; long s = 0;
    tab = (struct item*) malloc(300 * sizeof(struct item));
    for (i = 0; i < 300; i++) { tab[i].key = i; tab[i].val = 2 * i;
        tab[i].rare1 = i; tab[i].rare2 = -i; tab[i].dead = 0.1; }
    for (it = 0; it < 10; it++)
        for (i = 0; i < 300; i++) s += tab[i].key + tab[i].val;
    for (i = 0; i < 300; i++) s += tab[i].rare1 - tab[i].rare2;
    printf("s=%ld\\n", s);
    return 0;
}
"""

UNIT_TMPL = """
struct rec%(i)d { int a; int b; long c; };
int touch%(i)d(int n) {
  struct rec%(i)d *p = (struct rec%(i)d*)malloc(sizeof(struct rec%(i)d));
  int i; int acc = 0;
  for (i = 0; i < n; i = i + 1) { p->a = i; acc = acc + p->a; }
  free(p);
  return acc;
}
"""


def multi_unit(n: int = 4) -> list[tuple[str, str]]:
    units = [(f"u{i}.c", UNIT_TMPL % {"i": i}) for i in range(1, n)]
    main = 'int main() { printf("%d\\n", touch0(3)); return 0; }\n'
    return [("u0.c", UNIT_TMPL % {"i": 0} + main)] + units


# ---------------------------------------------------------------------------
# Tracer primitives
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_parentage(self):
        tr = Tracer()
        with tr.span("a") as a:
            with tr.span("b") as b:
                with tr.span("c") as c:
                    pass
        assert a.parent_id is None
        assert b.parent_id == a.span_id
        assert c.parent_id == b.span_id
        assert [s.name for s in tr.finished()] == ["c", "b", "a"]
        assert len({s.trace_id for s in tr.finished()}) == 1

    def test_explicit_clock(self):
        now = [10.0]
        tr = Tracer(clock=lambda: now[0])
        s = tr.start("x")
        now[0] = 12.5
        tr.finish(s)
        assert s.duration == pytest.approx(2.5)

    def test_exception_marks_error_status(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("no")
        (span,) = tr.finished()
        assert span.status == "error"
        assert "ValueError" in span.attrs["error"]

    def test_disabled_tracer_is_null(self):
        tr = Tracer(enabled=False)
        with tr.span("a") as s:
            s.set(k=1)
            s.add_event("e", 0.0)
        assert s is NULL_SPAN
        assert tr.finished() == []
        assert NULL_TRACER.finished() == []

    def test_span_dict_round_trip(self):
        tr = Tracer()
        with tr.span("a", category=CAT_PHASE) as s:
            s.set(answer=42)
            tr.event("tick", detail="x")
        d = tr.finished()[-1].to_dict()
        from repro.obs import Span
        back = Span.from_dict(d)
        assert back.name == "a" and back.attrs["answer"] == 42
        assert back.events and back.events[0][1] == "tick"

    def test_adopt_reparents_and_prefixes(self):
        worker = Tracer(trace_id="t1", id_prefix="w9.")
        with worker.span("job"):
            with worker.span("inner"):
                pass
        sup = Tracer(trace_id="t1", id_prefix="s.")
        with sup.span("attempt") as att:
            sup.adopt([s.to_dict() for s in worker.finished()],
                      parent_id=att.span_id)
        spans = {s.name: s for s in sup.finished()}
        assert spans["job"].parent_id == att.span_id
        assert spans["inner"].parent_id == spans["job"].span_id
        assert {s.trace_id for s in sup.finished()} == {"t1"}
        assert len({s.span_id for s in sup.finished()}) == 3

    def test_add_finished_retro_span(self):
        tr = Tracer()
        with tr.span("fe") as fe:
            tr.add_finished("parse[u0.c]", 1.0, 2.0,
                            parent_id=fe.span_id, tid=7)
        retro = tr.by_name("parse[u0.c]")[0]
        assert retro.parent_id == fe.span_id
        assert retro.duration == pytest.approx(1.0)
        assert retro.tid == 7


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.counter("hits").inc()
        m.counter("hits").inc(2)
        m.gauge("depth").set(3)
        h = m.histogram("wall_ms")
        for v in (1.0, 3.0, 5.0):
            h.observe(v)
        snap = m.snapshot()
        assert snap["hits"] == 3
        assert snap["depth"] == 3
        assert snap["wall_ms"]["count"] == 3
        assert snap["wall_ms"]["min"] == 1.0
        assert snap["wall_ms"]["max"] == 5.0
        assert snap["wall_ms"]["mean"] == pytest.approx(3.0)

    def test_labels_are_distinct_series(self):
        m = MetricsRegistry()
        m.counter("served", op="advise").inc()
        m.counter("served", op="compare").inc(4)
        snap = m.snapshot()
        assert snap[render_key("served", {"op": "advise"})] == 1
        assert snap[render_key("served", {"op": "compare"})] == 4

    def test_type_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ValueError):
            m.gauge("x")

    def test_threaded_counter_accuracy(self):
        m = MetricsRegistry()
        c = m.counter("n")
        threads = [threading.Thread(
            target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.snapshot() == 4000

    def test_total_and_split_read_counters(self):
        m = MetricsRegistry()
        m.counter("served", op="advise", status="ok").inc()
        m.counter("served", op="compare", status="ok").inc(4)
        m.counter("served", op="compare", status="degraded").inc()
        m.histogram("served_ms", op="advise").observe(3.0)
        assert m.total("served") == 6
        assert m.total("served", status="ok") == 5
        assert m.total("never_counted") == 0
        assert m.split("served", "op") == {"advise": 1, "compare": 5}
        assert m.split("served", "op", status="degraded") == \
            {"compare": 1}

    def test_threaded_labelled_series_accuracy(self):
        """Servers look a labelled series up on every increment, from
        many threads at once; no increment may be lost."""
        m = MetricsRegistry()

        def work(i: int) -> None:
            for _ in range(2000):
                m.counter("req", tenant=f"t{i % 2}").inc()

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert m.total("req") == 16000
        assert m.split("req", "tenant") == {"t0": 8000, "t1": 8000}


# ---------------------------------------------------------------------------
# The pass-event observer registry (PASS_EVENTS)
# ---------------------------------------------------------------------------

class TestObserverRegistry:
    def test_subscribed_context_restores(self):
        rec = PassEventRecorder()
        before = len(PASS_EVENTS)
        with PASS_EVENTS.subscribed(rec):
            assert len(PASS_EVENTS) == before + 1
            PASS_EVENTS.publish(PassEvent("p", "enter"))
        assert len(PASS_EVENTS) == before
        assert rec.names("enter") == ["p"]

    def test_exceptions_swallowed_base_exceptions_escape(self):
        def bad(ev):
            raise RuntimeError("ordinary")

        def fatal(ev):
            raise KeyboardInterrupt

        with PASS_EVENTS.subscribed(bad):
            PASS_EVENTS.publish(PassEvent("p", "enter"))  # no raise
        with PASS_EVENTS.subscribed(fatal):
            with pytest.raises(KeyboardInterrupt):
                PASS_EVENTS.publish(PassEvent("p", "enter"))

    def test_compile_leaves_no_subscribers(self):
        before = len(PASS_EVENTS)
        tracer = Tracer()
        Compiler(CompilerOptions(), tracer=tracer) \
            .compile_sources([("demo.c", DEMO)])
        assert len(PASS_EVENTS) == before

    def test_base_name(self):
        assert PassEvent("legality[a.c]", "exit").base_name == "legality"
        assert PassEvent("weights", "exit").base_name == "weights"


# ---------------------------------------------------------------------------
# Pipeline tracing: nesting, metrics accuracy, profiling
# ---------------------------------------------------------------------------

class TestPipelineTracing:
    def test_span_tree_shape(self):
        tracer = Tracer()
        result = Compiler(CompilerOptions(), tracer=tracer) \
            .compile_sources([("demo.c", DEMO)])
        assert not result.diagnostics.has_errors
        spans = {s.name: s for s in tracer.finished()}
        root = spans["compile"]
        assert root.parent_id is None
        for phase in ("fe", "ipa", "be"):
            assert spans[phase].parent_id == root.span_id, phase
        assert spans["fe.parse"].parent_id == spans["fe"].span_id
        # guarded passes hang off the phase that ran them: the FE
        # analyses (legality, deadfields) under fe, the whole-program
        # passes under ipa, the transform under be
        assert spans["legality"].parent_id == spans["fe"].span_id
        assert spans["weights"].parent_id == spans["ipa"].span_id
        assert spans["apply"].parent_id == spans["be"].span_id
        assert result.trace_id == tracer.trace_id

    def test_concurrent_compiles_keep_separate_traces(self):
        """Observers keep the events published on the thread that
        subscribed them: two compiles on two threads never graft their
        passes into each other's trace or profile."""
        tracers = [Tracer(), Tracer()]
        results: list = [None, None]

        def run(i):
            results[i] = Compiler(CompilerOptions(), tracer=tracers[i]) \
                .compile_sources(multi_unit(3))

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for tracer, result in zip(tracers, results):
            assert result is not None and result.ok
            spans = tracer.finished()
            ids = {s.span_id for s in spans}
            assert [s.name for s in spans
                    if s.parent_id not in ids] == ["compile"]
            passes = [s.name for s in spans if s.category == CAT_PASS]
            assert len(passes) == len(set(passes))
            assert set(passes) == set(result.pass_profile)

    def test_metrics_accuracy_cache_and_passes(self):
        sources = multi_unit(3)
        with tempfile.TemporaryDirectory() as cache:
            m1 = MetricsRegistry()
            r1 = Compiler(CompilerOptions(cache_dir=cache),
                          metrics=m1).compile_sources(sources)
            assert not r1.diagnostics.has_errors
            m2 = MetricsRegistry()
            r2 = Compiler(CompilerOptions(cache_dir=cache),
                          metrics=m2).compile_sources(sources)
            assert not r2.diagnostics.has_errors
        s1, s2 = m1.snapshot(), m2.snapshot()
        # cold run: every per-TU summary lookup (legality and
        # deadfields per unit) misses; warm run: every one hits
        assert s1.get("fe.cache.hit", 0) == 0
        assert s1["fe.cache.miss"] == 2 * len(sources)
        assert s2["fe.cache.hit"] == 2 * len(sources)
        assert s2.get("fe.cache.miss", 0) == 0
        # one pass.wall_ms observation per guarded pass execution
        ran = sum(v["count"] for k, v in s1.items()
                  if k.startswith("pass.wall_ms"))
        assert ran == len(r1.pass_timings)
        assert not any(k.startswith("pass.fail") for k in s1)

    def test_pass_profile_populated_when_traced(self):
        tracer = Tracer()
        result = Compiler(CompilerOptions(), tracer=tracer) \
            .compile_sources([("demo.c", DEMO)])
        assert result.pass_profile
        for name, prof in result.pass_profile.items():
            assert prof["wall_ms"] >= 0.0
            assert prof["rss_kb_delta"] >= 0
            assert prof["failed"] is False

    def test_disabled_is_inert(self):
        before = len(PASS_EVENTS)
        result = Compiler(CompilerOptions()) \
            .compile_sources([("demo.c", DEMO)])
        assert result.trace_id is None
        assert result.pass_profile == {}
        assert len(PASS_EVENTS) == before
        # an explicitly disabled tracer behaves like none at all
        result = Compiler(CompilerOptions(),
                          tracer=Tracer(enabled=False)) \
            .compile_sources([("demo.c", DEMO)])
        assert result.trace_id is None
        assert result.pass_profile == {}


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

class TestExport:
    def _spans(self):
        tr = Tracer()
        with tr.span("outer", category=CAT_PHASE):
            tr.event("marker")
            with tr.span("inner", category=CAT_PASS):
                pass
        return tr.finished()

    def test_chrome_trace_valid(self):
        obj = chrome_trace(self._spans())
        assert validate_chrome_trace(obj) == []
        kinds = {e["ph"] for e in obj["traceEvents"]}
        assert kinds == {"X", "i"}

    def test_validator_catches_corruption(self):
        obj = chrome_trace(self._spans())
        obj["traceEvents"][0].pop("ts")
        obj["traceEvents"].append({"ph": "X", "name": 3})
        assert validate_chrome_trace(obj)

    def test_jsonl_round_trip(self):
        lines = jsonl_lines(self._spans())
        parsed = [json.loads(ln) for ln in lines]
        assert {p["name"] for p in parsed} == {"outer", "inner"}

    def test_write_trace_picks_format(self, tmp_path):
        spans = self._spans()
        chrome = write_trace(tmp_path / "t.json", spans)
        assert validate_chrome_trace(
            json.loads(Path(chrome).read_text())) == []
        jsonl = write_trace(tmp_path / "t.jsonl", spans)
        lines = Path(jsonl).read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["name"]


# ---------------------------------------------------------------------------
# The repro.api facade
# ---------------------------------------------------------------------------

class TestApiFacade:
    def test_options_reject_unknown_field(self):
        with pytest.raises(ApiError) as exc:
            CompileOptions.from_dict({"scheme": "ISPBO", "spede": 9})
        assert "spede" in str(exc.value)
        assert exc.value.detail["unknown_fields"] == ["spede"]

    def test_request_round_trip(self):
        req = CompileRequest(
            op="analyze", sources=[("a.c", DEMO)],
            options=CompileOptions(relax=True, jobs=2),
            deadline=5.0, trace=True)
        back = CompileRequest.from_dict(req.to_wire())
        assert back.op == "analyze"
        assert back.options.relax is True
        assert back.options.jobs == 2
        assert back.deadline == 5.0
        assert back.trace is True

    def test_request_rejects_unknown_op_and_fields(self):
        with pytest.raises(ApiError):
            CompileRequest(op="frobnicate")
        with pytest.raises(ApiError) as exc:
            CompileRequest.from_dict(
                {"op": "advise", "sources": [["a.c", "int x;"]],
                 "tracing": True})
        assert exc.value.detail["unknown_fields"] == ["tracing"]

    def test_options_reject_unknown_peel_mode(self):
        with pytest.raises(ApiError) as exc:
            CompileOptions.from_dict({"peel_mode": "weird"})
        assert "weird" in str(exc.value)
        assert exc.value.detail["where"] == "options.peel_mode"
        assert exc.value.detail["known_modes"] == [
            "auto", "per-field", "hot-cold", "affinity"]
        # the daemon's request parser answers with the same detail
        with pytest.raises(ProtocolError) as exc:
            parse_compile(
                {"op": "transform", "sources": [["a.c", "int x;"]],
                 "options": {"peel_mode": "weird"}})
        assert exc.value.detail["where"] == "options.peel_mode"
        assert CompileOptions.from_dict(
            {"peel_mode": "hot-cold"}).peel_mode == "hot-cold"

    @pytest.mark.parametrize("where, fields", [
        ("options.relax", {"options": {"relax": "false"}}),
        ("options.verify", {"options": {"verify": "no"}}),
        ("options.cache", {"options": {"cache": "false"}}),
        ("options.relax", {"options": {"relax": 0}}),
        ("options.jobs", {"options": {"jobs": -1}}),
        ("trace", {"trace": "false"}),
    ], ids=["relax", "verify", "cache", "relax-int", "jobs", "trace"])
    def test_wire_flags_take_only_booleans(self, where, fields):
        """A flag's string ``"false"`` is refused, never read as true,
        and so is a negative ``jobs`` (validated, though it has no
        effect)."""
        wire = {"op": "analyze", "sources": [["a.c", DEMO]], **fields}
        with pytest.raises(ApiError) as exc:
            CompileRequest.from_dict(wire)
        assert exc.value.detail["where"] == where

    @pytest.mark.parametrize("value", [0, -5, True, 4.7],
                             ids=["zero", "negative", "bool", "fraction"])
    def test_wire_cycle_limit_takes_only_positive_integers(self, value):
        """``options.cycle_limit`` is a count: zero, a negative, a
        boolean or a fraction is refused, never truncated or run."""
        wire = {"op": "compare", "sources": [["a.c", DEMO]],
                "options": {"cycle_limit": value}}
        with pytest.raises(ApiError) as exc:
            CompileRequest.from_dict(wire)
        assert exc.value.detail["where"] == "options.cycle_limit"
        with pytest.raises(ApiError):
            CompileOptions(cycle_limit=value)

    @pytest.mark.parametrize("value", [True, 4.7, "2", -1],
                             ids=["bool", "fraction", "string",
                                  "negative"])
    def test_wire_jobs_takes_only_non_negative_integers(self, value):
        """``options.jobs`` has no effect, but it is a count all the
        same: refused, never coerced."""
        wire = {"op": "analyze", "sources": [["a.c", DEMO]],
                "options": {"jobs": value}}
        with pytest.raises(ApiError) as exc:
            CompileRequest.from_dict(wire)
        assert exc.value.detail["where"] == "options.jobs"
        with pytest.raises(ApiError):
            CompileOptions(jobs=value)

    @pytest.mark.parametrize("path", ["session", "worker"])
    def test_compare_past_cycle_limit_is_a_diagnostic(self, path):
        """A valid ``cycle_limit`` that the program outruns is an
        answer with an error diagnostic, in process and in a worker."""
        req = CompileRequest(op="compare", sources=[("a.c", DEMO)],
                             options=CompileOptions(cycle_limit=100))
        if path == "session":
            reply = Session().execute(req)
            assert reply.status == "ok"
            payload, diagnostics = reply.payload, reply.diagnostics
        else:
            payload, diagnostics = execute_job(
                {"request": req, "tier": "full"}, None)
        assert "compare" not in payload
        errors = [d for d in diagnostics if d["severity"] == "error"]
        assert [(d["phase"], d["code"]) for d in errors] == \
            [("compare", "budget-overrun")]
        assert "cycle_limit (100 cycles)" in errors[0]["message"]

    @pytest.mark.parametrize("path", ["session", "worker"])
    @pytest.mark.parametrize("program", sorted(UNRUNNABLE))
    def test_compare_of_a_program_that_cannot_run_is_a_diagnostic(
            self, program, path):
        """A program with no ``main``, or one that traps, is an answer
        with one error diagnostic and no compare block, in process and
        in a worker — never a raise that a daemon would retry."""
        source, reason = UNRUNNABLE[program]
        req = CompileRequest(op="compare", sources=[("a.c", source)])
        if path == "session":
            reply = Session().execute(req)
            assert reply.status == "ok"
            payload, diagnostics = reply.payload, reply.diagnostics
        else:
            payload, diagnostics = execute_job(
                {"request": req, "tier": "full"}, None)
        assert "compare" not in payload
        errors = [d for d in diagnostics if d["severity"] == "error"]
        assert [(d["phase"], d["message"]) for d in errors] == \
            [("compare", reason)]

    def test_wire_cycle_limit_accepts_integral_numbers(self):
        for value in (1, 2e9):
            opts = CompileOptions.from_dict({"cycle_limit": value})
            assert opts.cycle_limit == int(value)
            assert isinstance(opts.cycle_limit, int)

    def test_wire_request_unknown_field_structured_error(self):
        with pytest.raises(ProtocolError) as exc:
            parse_compile(
                {"op": "advise", "sources": [["a.c", "int x;"]],
                 "optionz": {}})
        assert exc.value.detail["unknown_fields"] == ["optionz"]

    def test_session_execute_reply(self):
        tracer = Tracer()
        session = Session(tracer=tracer)
        reply = session.execute(CompileRequest(
            op="analyze", sources=[("demo.c", DEMO)], id=7))
        assert isinstance(reply, CompileReply)
        assert reply.ok and reply.id == 7 and reply.tier == "advisory"
        assert reply.payload["table1"] == [1, 1, 1]
        assert reply.trace_id == tracer.trace_id
        assert any(s["name"] == "compile" for s in reply.spans)


# ---------------------------------------------------------------------------
# Distributed tracing through a live daemon
# ---------------------------------------------------------------------------

@contextmanager
def service(**cfg_kw):
    tmp = tempfile.mkdtemp(prefix="repro-obs-")
    cfg_kw.setdefault("pool_size", 1)
    cfg_kw.setdefault("cache_dir", os.path.join(tmp, "cache"))
    supervisor = Supervisor(SupervisorConfig(**cfg_kw))
    sock = os.path.join(tmp, "repro.sock")
    server = CompileServer(sock, supervisor)
    server.start()
    assert wait_ready(sock, timeout=30), "daemon failed to become ready"
    try:
        yield sock, supervisor
    finally:
        server.shutdown()


def traced_request(op: str = "advise", **extra) -> dict:
    return {"id": 1, "op": op, "trace": True,
            "sources": [["demo.c", DEMO]], **extra}


class TestDaemonTracing:
    def test_trace_propagates_and_stitches(self):
        with service() as (sock, _):
            resp = single_request(sock, traced_request(), timeout=120)
            assert resp["status"] == "ok"
            spans = resp["spans"]
            assert spans and resp["trace_id"]
            assert {s["trace_id"] for s in spans} == {resp["trace_id"]}
            by_name = {s["name"]: s for s in spans}
            req_span = by_name["request"]
            att = by_name["attempt"]
            job = by_name["job"]
            assert req_span["parent_id"] is None
            assert att["parent_id"] == req_span["span_id"]
            assert job["parent_id"] == att["span_id"]
            assert by_name["compile"]["parent_id"] == job["span_id"]
            # worker span ids are pid-prefixed; supervisor's are not
            assert job["span_id"].startswith("w")
            assert att["span_id"].startswith("s.")
            assert validate_chrome_trace(chrome_trace(spans)) == []
            # the daemon serves the same trace back afterwards
            stored = single_request(
                sock, {"op": "trace", "trace_id": resp["trace_id"]})
            assert stored["status"] == "ok"
            assert len(stored["spans"]) == len(spans)

    def test_untraced_request_carries_no_spans(self):
        with service() as (sock, _):
            resp = single_request(
                sock, {"id": 1, "op": "advise",
                       "sources": [["demo.c", DEMO]]}, timeout=120)
            assert resp["status"] == "ok"
            assert "spans" not in resp and "trace_id" not in resp

    def test_killed_worker_retry_is_second_attempt_span(self):
        with service(deadline=60.0, max_retries=2) as (sock, _):
            resp = single_request(sock, traced_request(
                op="transform",
                faults=[{"stage": "apply", "mode": "kill",
                         "times": 1}]), timeout=120)
            assert resp["status"] == "ok"
            assert resp["attempts"] == 2
            spans = resp["spans"]
            attempts = sorted(
                (s for s in spans if s["name"] == "attempt"),
                key=lambda s: s["attrs"]["attempt"])
            assert [s["attrs"]["attempt"] for s in attempts] == [1, 2]
            assert attempts[0]["status"] == "error"
            assert attempts[1]["status"] == "ok"
            # both attempts belong to the one request span
            req_span = next(s for s in spans if s["name"] == "request")
            assert {s["parent_id"] for s in attempts} == \
                {req_span["span_id"]}
            # the killed attempt has no surviving worker sub-spans;
            # the retry ran the full pipeline on a fresh worker
            retry_children = {s["name"] for s in spans
                              if s["parent_id"] ==
                              attempts[1]["span_id"]}
            assert "job" in retry_children
            assert validate_chrome_trace(chrome_trace(spans)) == []

    def test_trace_op_unknown_id_is_error(self):
        with service() as (sock, _):
            resp = single_request(
                sock, {"op": "trace", "trace_id": "nope"})
            assert resp["status"] == "error"

    def test_stats_carries_service_metrics(self):
        with service() as (sock, _):
            single_request(sock, traced_request(), timeout=120)
            stats = single_request(sock, {"op": "stats"})["stats"]
            metrics = stats["metrics"]
            assert metrics[render_key("service.requests",
                                      {"op": "advise"})] == 1
            assert render_key("service.request_wall_ms",
                              {"op": "advise"}) in metrics
