"""A compile's step order and containment, and the parse pool.

Contract under test (DESIGN.md, "Step order" and "Reporting"):

- a compile runs one straight line of named steps: FE (``fe.parse``,
  ``fe.assemble``, ``lower``, ``loops``, each unit family and its
  merge, ``fe.finish``), then IPA, then BE (one ``apply[T]`` per
  transformed decision, ``apply``, ``verify``);
- a warm compile restored from the whole-FE cache entry runs only the
  IPA and BE steps, and same-named units run as distinct steps;
- an uncontained failure (strict mode) aborts the compile at once,
  with no later step run and no span left open;
- ``CompilationResult.scheduler`` reports the step log: one chain, so
  the critical path is every step and its length their sum;
- the ``fe.parse`` step puts every unit's parse in flight on the
  process pool before it waits on any, and pool parsing (``jobs=4``)
  gives results identical to inline parsing (``jobs=1``);
- PhaseGuard containment stays per step at either width: an injected
  pass fault demotes conservatively and the compile still finishes.
"""

import pytest

from repro.core import Compiler, CompilerOptions, FatalCompilerError
from repro.core import fe
from repro.core.dag import effective_cores, process_pool
from repro.core.faults import inject_fault
from repro.frontend import Program
from repro.obs import CAT_PASS, Tracer
from repro.transform import program_sources
from repro.workloads import ALL_WORKLOADS


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def result_fingerprint(result):
    """Everything user-visible about one compilation."""
    return (
        [(d.type_name, d.action, sorted(d.cold_fields),
          sorted(d.dead_fields), sorted(map(tuple, d.groups or [])))
         for d in result.decisions],
        result.diagnostics.render("warning"),
        program_sources(result.transformed),
    )


def steps(result) -> list[str]:
    """The compile's steps in run order."""
    return result.scheduler["critical_path"]


@pytest.fixture
def many_cores(monkeypatch):
    """Defeat the core-count clamp so the parse pool path runs even on
    a single-core machine."""
    monkeypatch.setattr(fe, "effective_cores", lambda: 4)


def add_pair(pair: tuple[int, int]) -> int:
    """Pool-side work of :func:`fan_out` (module level, so the fork
    pool can pickle it)."""
    return pair[0] + pair[1]


def fan_out(jobs: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Sum each pair the way ``fe.parse`` parses units: every task goes
    on the shared process pool of width ``jobs`` before any result is
    awaited, or runs inline when the width is 1."""
    pool = process_pool(jobs)
    if pool is None:
        return [add_pair(p) for p in pairs]
    futures = [pool.submit(add_pair, p) for p in pairs]
    return [f.result() for f in futures]


#: two structs with dead fields: the heuristics transform both
TWO_TYPES = """
struct hot { long a; long b; long c; long d; };
struct warm { int k; int v; int w; };
int main() {
  struct hot *h = (struct hot*)malloc(64 * sizeof(struct hot));
  struct warm *w = (struct warm*)malloc(64 * sizeof(struct warm));
  int i; long s = 0;
  for (i = 0; i < 64; i = i + 1) { h[i].a = i; w[i].k = i; }
  for (i = 0; i < 64; i = i + 1) { s = s + h[i].a + w[i].k; }
  printf("%ld\\n", s);
  return 0;
}
"""

FE_STEPS = ("fe.parse", "fe.assemble", "fe.finish", "lower", "loops",
            "legality", "deadfields")
IPA_STEPS = ("callgraph", "escape", "pointsto", "weights", "profiles",
             "heuristics")


def phase_of(step: str) -> str:
    base = step.split("[", 1)[0]
    if base in FE_STEPS:
        return "fe"
    return "ipa" if base in IPA_STEPS else "be"


def transform_units() -> list[tuple[str, str]]:
    """Three units, two transformable types in the first."""
    return [("m.c", TWO_TYPES)] + THREE_UNITS[1:]


# ---------------------------------------------------------------------------
# step order
# ---------------------------------------------------------------------------

class TestTopology:
    def test_duplicate_node_rejected(self):
        """Two units with one name (the CLI names both ``a/x.c`` and
        ``b/x.c`` ``x.c``) run as two distinct summarize steps, and the
        merges see both units' types."""
        res = Compiler(CompilerOptions()).compile_sources([
            ("x.c", "struct pa { long a; long b; };\n"
                    "long get(struct pa *p) { return p->a; }\n"),
            ("x.c", "struct pb { int k; int v; };\n"
                    "int main() { return 0; }\n"),
        ])
        names = steps(res)
        assert len(names) == len(set(names))
        for kind in ("legality", "deadfields"):
            assert names.count(f"{kind}[x.c]") == 1
            assert names.count(f"{kind}[x.c#1]") == 1
        assert set(res.legality.types) == {"pa", "pb"}
        assert set(res.usage.types) == {"pa", "pb"}

    def test_seeded_names_satisfy_dependencies(self, tmp_path):
        """A warm compile restored from the whole-FE cache entry runs
        only the IPA and BE steps, and matches the cold compile."""
        opts = CompilerOptions(cache_dir=str(tmp_path))
        cold = Compiler(opts).compile_sources(transform_units())
        warm = Compiler(opts).compile_sources(transform_units())
        assert cold.scheduler["restored_fe"] is False
        assert warm.scheduler["restored_fe"] is True
        cold_steps = steps(cold)
        assert steps(warm) == \
            cold_steps[cold_steps.index("fe.finish") + 1:]
        assert steps(warm)[0] == "callgraph"
        assert {phase_of(s) for s in steps(warm)} == {"ipa", "be"}
        assert result_fingerprint(warm) == result_fingerprint(cold)

    def test_topo_order_respects_deps_and_insertion(self):
        """FE steps run before IPA steps, IPA before BE, and each merge
        after all of its unit steps."""
        res = Compiler(CompilerOptions(
            relax_legality=True, verify_transforms=True)
        ).compile_sources(transform_units())
        names = steps(res)
        phases = [phase_of(s) for s in names]
        assert phases == sorted(phases, key=("fe", "ipa", "be").index)
        assert {"pointsto", "verify"} <= set(names)
        for kind in ("legality", "deadfields"):
            units = [i for i, s in enumerate(names)
                     if s.startswith(f"{kind}[")]
            assert len(units) == 3
            assert names.index(kind) == max(units) + 1


# ---------------------------------------------------------------------------
# execution: the step list, barriers, failures
# ---------------------------------------------------------------------------

class TestExecution:
    def test_serial_executes_in_builder_order(self):
        res = Compiler(CompilerOptions(verify_transforms=True)) \
            .compile_sources(transform_units())
        assert steps(res) == [
            "fe.parse", "fe.assemble", "lower", "loops",
            "legality[m.c]", "legality[n.c]", "legality[o.c]",
            "legality",
            "deadfields[m.c]", "deadfields[n.c]", "deadfields[o.c]",
            "deadfields",
            "callgraph", "escape", "weights", "profiles", "heuristics",
            "apply[hot]", "apply[warm]", "apply", "verify",
        ]
        # every step but the parse and assembly is a guarded pass
        assert list(res.pass_timings) == steps(res)[2:]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_diamond_results_identical_across_jobs(self, jobs):
        """Work does not depend on whether it runs inline (jobs=1) or
        on the process pool (jobs>1): the diamond a -> (b, c) -> d
        through :func:`fan_out`."""
        a = 1
        b, c = fan_out(jobs, [(a, 10), (a, 100)])
        d = fan_out(jobs, [(b, c)])[0]
        assert (a, b, c, d) == (1, 11, 101, 112)
        pairs = [(i, i * i) for i in range(9)]
        assert fan_out(jobs, pairs) == fan_out(1, pairs)

    def test_barrier_waits_for_every_unit(self):
        """The ``legality`` merge of a 12-unit program covers every
        unit's types."""
        n = 12
        units = [(f"u{i}.c",
                  f"struct r{i} {{ long a; long b; }};\n"
                  f"long get{i}(struct r{i} *p) {{ return p->a; }}\n")
                 for i in range(n)]
        units.append(("main.c", "int main() { return 0; }\n"))
        res = Compiler(CompilerOptions()).compile_sources(units)
        assert set(res.legality.types) == {f"r{i}" for i in range(n)}
        names = steps(res)
        assert names.index("legality") == names.index(
            f"legality[main.c]") + 1

    def test_node_exception_aborts_without_wedging(self):
        """An uncontained failure (strict mode) propagates to the
        caller: no later step runs and no span is left open."""
        tracer = Tracer()
        with inject_fault("escape", mode="raise"):
            with pytest.raises(FatalCompilerError):
                Compiler(CompilerOptions(strict=True), tracer=tracer) \
                    .compile_sources(transform_units())
        spans = tracer.finished()
        passes = [s.name for s in sorted(spans, key=lambda s: s.start)
                  if s.category == CAT_PASS]
        assert passes[-2:] == ["callgraph", "escape"]
        assert "be" not in {s.name for s in spans}
        assert tracer.current() is None
        assert all(s.end is not None for s in spans)
        by_name = {s.name: s for s in spans}
        assert by_name["escape"].status == "error"
        assert by_name["compile"].status == "error"


class TestDynamicGrowth:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_planner_appends_chained_nodes(self, jobs, many_cores):
        """One ``apply[T]`` step per transformed decision, in decision
        order and right before ``apply``, at either parse width."""
        res = Compiler(CompilerOptions(jobs=jobs)).compile_sources(
            transform_units())
        applied = [f"apply[{d.type_name}]"
                   for d in res.transformed_types()]
        assert applied == ["apply[hot]", "apply[warm]"]
        names = steps(res)
        assert names[-len(applied) - 1:] == applied + ["apply"]
        want = Compiler(CompilerOptions(jobs=1)).compile_sources(
            transform_units())
        assert result_fingerprint(res) == result_fingerprint(want)


class TestReport:
    def test_phase_window_and_critical_path(self):
        """The ``scheduler`` block over the step log."""
        res = Compiler(CompilerOptions(verify_transforms=True)) \
            .compile_sources(transform_units())
        sched = res.scheduler
        names = sched["critical_path"]
        assert sched["nodes"] == len(names) == len(set(names))
        assert names[0] == "fe.parse" and names[-1] == "verify"
        # one chain: the critical path is every step and its length
        # their sum, inside the wall, which also covers the time
        # between steps
        assert 0.0 < sched["critical_path_ms"] <= sched["wall_ms"]
        # phase windows are disjoint slices of the same wall
        assert all(res.timings[p] > 0.0 for p in ("fe", "ipa", "be"))
        assert sum(res.timings.values()) \
            <= sched["wall_ms"] / 1e3 + 1e-6

    def test_effective_cores_positive(self):
        assert effective_cores() >= 1


# ---------------------------------------------------------------------------
# pipeline integration
# ---------------------------------------------------------------------------

SRC = """
struct pt { int x; int y; char tag; };
int main() {
  struct pt *p = (struct pt*)malloc(sizeof(struct pt));
  int i;
  int acc = 0;
  for (i = 0; i < 8; i = i + 1) { p->x = i; acc = acc + p->x; }
  free(p);
  printf("%d\\n", acc);
  return 0;
}
"""


THREE_UNITS = [
    ("m.c", SRC),
    ("n.c", "struct q { long a; long b; };\n"
            "int touch(struct q *p) { return (int)p->a; }\n"),
    ("o.c", "int twice(int x) { return x + x; }\n"),
]


class TestPipelineIntegration:
    def test_scheduler_section_reported(self):
        res = Compiler(CompilerOptions(jobs=1)).compile_sources(
            [("m.c", SRC)])
        sched = res.scheduler
        assert set(sched) == {"jobs", "nodes", "wall_ms",
                              "critical_path_ms", "critical_path",
                              "restored_fe"}
        assert sched["jobs"] == 1
        assert sched["nodes"] >= 10
        assert sched["wall_ms"] > 0.0
        assert sched["critical_path_ms"] > 0.0
        assert sched["restored_fe"] is False
        # the parse fan-out heads the critical path, the per-decision
        # apply chain feeds its tail
        assert sched["critical_path"][0] == "fe.parse"

    def test_fe_parse_submits_every_unit_before_waiting(
            self, monkeypatch, many_cores):
        """The parallelism that remains: ``fe.parse`` at jobs=2 puts
        every unit's parse on the pool before it waits on any, then
        gathers in unit order."""
        log: list[tuple[str, str]] = []
        widths: list[int] = []

        class Done:
            def __init__(self, name, value):
                self.name, self.value = name, value

            def result(self):
                log.append(("wait", self.name))
                return self.value

        class FakePool:
            def submit(self, fn, task):
                log.append(("submit", task[0]))
                return Done(task[0], fn(task))

        def fake_process_pool(width):
            widths.append(width)
            return FakePool() if width > 1 else None

        monkeypatch.setattr(fe, "process_pool", fake_process_pool)
        res = Compiler(CompilerOptions(jobs=2)).compile_sources(
            THREE_UNITS)
        names = [name for name, _ in THREE_UNITS]
        assert widths == [2]
        assert log == [("submit", n) for n in names] \
            + [("wait", n) for n in names]
        assert res.fe_report.mode == "unified"
        assert res.ok

    def test_fe_parse_pool_failure_parses_inline(self, monkeypatch,
                                                 many_cores):
        """A failing pool is torn down and the affected units parse
        inline: the compile matches a jobs=1 compile."""
        want = result_fingerprint(
            Compiler(CompilerOptions(jobs=1)).compile_sources(THREE_UNITS))
        torn_down: list[int] = []

        class Broken:
            def result(self):
                raise RuntimeError("pool worker died")

        class BrokenPool:
            def submit(self, fn, task):
                return Broken()

        monkeypatch.setattr(fe, "process_pool", lambda width: BrokenPool())
        monkeypatch.setattr(fe, "shutdown_process_pool",
                            lambda: torn_down.append(1))
        res = Compiler(CompilerOptions(jobs=2)).compile_sources(
            THREE_UNITS)
        assert torn_down
        assert res.fe_report.mode == "unified"
        assert result_fingerprint(res) == want

    @pytest.mark.parametrize("workload", ALL_WORKLOADS,
                             ids=[w.name for w in ALL_WORKLOADS])
    def test_workloads_serial_equals_parallel_dag(self, workload,
                                                  many_cores):
        """The acceptance bar: the whole compile byte-identical between
        jobs=1 (inline parses) and jobs=4 (parses on the process pool)
        on all 12 workloads."""
        sources = workload.sources("train")
        want = result_fingerprint(
            Compiler(CompilerOptions(jobs=1)).compile_sources(sources))
        got = result_fingerprint(
            Compiler(CompilerOptions(jobs=4)).compile_sources(sources))
        assert got == want

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_contained_fault_does_not_wedge(self, jobs, many_cores):
        """PhaseGuard demotion inside a node must leave the ready
        queue healthy: the compile finishes, conservatively."""
        with inject_fault("legality", mode="raise") as spec:
            res = Compiler(CompilerOptions(jobs=jobs)).compile_sources(
                [("m.c", SRC)])
        assert spec.fired == 1            # merge barrier fired it once
        assert res.ok                     # contained, not failed
        assert res.degraded
        assert any(d.phase == "legality"
                   for d in res.diagnostics.contained())
        assert "FAULT" in res.legality.types["pt"].invalid_reasons
        # every decision demoted; nothing transformed
        assert not res.transformed_types()

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_per_unit_fault_contained_per_node(self, jobs, many_cores):
        """A fault in one unit's summarize node demotes that unit's
        slice only; the sibling unit still contributes."""
        other = ("n.c", "struct q { long a; long b; };\n"
                        "int touch(struct q *p) { return (int)p->a; }\n")
        with inject_fault("legality[m.c]", mode="raise"):
            res = Compiler(CompilerOptions(jobs=jobs)).compile_sources(
                [("m.c", SRC), other])
        assert res.ok
        assert any(d.phase == "legality[m.c]"
                   for d in res.diagnostics.contained())

    def test_program_path_uses_dag_too(self):
        res = Compiler().compile(Program.from_source(SRC))
        assert res.scheduler["nodes"] >= 8
