"""A compile's step order and containment.

Contract under test (DESIGN.md, "Step order" and "Reporting"):

- a compile runs one straight line of named steps: FE (``fe.parse``,
  ``lower``, ``loops``, each unit family and its merge,
  ``fe.finish``), then IPA, then BE (one ``apply[T]`` per transformed
  decision, ``apply``, ``verify``);
- a warm compile restored from the whole-FE cache entry runs only the
  IPA and BE steps, and same-named units run as distinct steps;
- an uncontained failure (strict mode) aborts the compile at once,
  with no later step run and no span left open;
- ``CompilationResult.scheduler`` reports the step log: one chain, so
  the critical path is every step and its length their sum;
- on the 12 workloads an uncached compile, the cold compile that fills
  the summary cache and the warm compile restored from it agree;
- PhaseGuard containment stays per step for any number of units: an
  injected pass fault demotes conservatively and the compile still
  finishes.
"""

import pytest

from repro.core import Compiler, CompilerOptions, FatalCompilerError
from repro.core.dag import effective_cores
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

FE_STEPS = ("fe.parse", "fe.finish", "lower", "loops", "legality",
            "deadfields")
IPA_STEPS = ("callgraph", "escape", "pointsto", "weights", "profiles",
             "heuristics")


def phase_of(step: str) -> str:
    base = step.split("[", 1)[0]
    if base in FE_STEPS:
        return "fe"
    return "ipa" if base in IPA_STEPS else "be"


def transform_units(n: int = 3) -> list[tuple[str, str]]:
    """The first ``n`` of three units, two transformable types in the
    first."""
    return ([("m.c", TWO_TYPES)] + THREE_UNITS[1:])[:n]


def sibling_units(n: int) -> list[tuple[str, str]]:
    """``n`` units, each with a struct of its own."""
    return [(f"s{i}.c", f"struct q{i} {{ long a; long b; }};\n"
                        f"int touch{i}(struct q{i} *p) "
                        f"{{ return (int)p->a; }}\n")
            for i in range(n)]


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
            "fe.parse", "lower", "loops",
            "legality[m.c]", "legality[n.c]", "legality[o.c]",
            "legality",
            "deadfields[m.c]", "deadfields[n.c]", "deadfields[o.c]",
            "deadfields",
            "callgraph", "escape", "weights", "profiles", "heuristics",
            "apply[hot]", "apply[warm]", "apply", "verify",
        ]
        # every step but the parse is a guarded pass
        assert list(res.pass_timings) == steps(res)[1:]

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
    @pytest.mark.parametrize("units", [1, 3])
    def test_planner_appends_chained_nodes(self, units):
        """One ``apply[T]`` step per transformed decision, in decision
        order and right before ``apply``, for one unit or three."""
        sources = transform_units(units)
        res = Compiler(CompilerOptions()).compile_sources(sources)
        applied = [f"apply[{d.type_name}]"
                   for d in res.transformed_types()]
        assert applied == ["apply[hot]", "apply[warm]"]
        names = steps(res)
        assert names[-len(applied) - 1:] == applied + ["apply"]
        want = Compiler().compile(Program.from_sources(sources))
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
        res = Compiler(CompilerOptions()).compile_sources([("m.c", SRC)])
        sched = res.scheduler
        assert set(sched) == {"nodes", "wall_ms", "critical_path_ms",
                              "critical_path", "restored_fe"}
        assert sched["nodes"] >= 10
        assert sched["wall_ms"] > 0.0
        assert sched["critical_path_ms"] > 0.0
        assert sched["restored_fe"] is False
        # the parse heads the critical path, the per-decision apply
        # chain feeds its tail
        assert sched["critical_path"][0] == "fe.parse"

    @pytest.mark.parametrize("workload", ALL_WORKLOADS,
                             ids=[w.name for w in ALL_WORKLOADS])
    def test_workloads_serial_equals_parallel_dag(self, workload,
                                                  tmp_path):
        """The acceptance bar: the whole compile byte-identical between
        an uncached compile, the cold compile that fills the summary
        cache and the warm compile restored from it, on all 12
        workloads."""
        sources = workload.sources("train")
        want = result_fingerprint(
            Compiler(CompilerOptions()).compile_sources(sources))
        cached = CompilerOptions(cache_dir=str(tmp_path))
        cold = Compiler(cached).compile_sources(sources)
        warm = Compiler(cached).compile_sources(sources)
        assert warm.scheduler["restored_fe"]
        assert result_fingerprint(cold) == want
        assert result_fingerprint(warm) == want

    @pytest.mark.parametrize("units", [1, 4])
    def test_contained_fault_does_not_wedge(self, units):
        """PhaseGuard demotion inside a step must leave the rest of
        the line healthy: the compile finishes, conservatively, for
        one unit or four."""
        sources = [("m.c", SRC)] + sibling_units(units - 1)
        with inject_fault("legality", mode="raise") as spec:
            res = Compiler(CompilerOptions()).compile_sources(sources)
        assert spec.fired == 1            # the merge fired it once
        assert res.ok                     # contained, not failed
        assert res.degraded
        assert any(d.phase == "legality"
                   for d in res.diagnostics.contained())
        assert "FAULT" in res.legality.types["pt"].invalid_reasons
        # every decision demoted; nothing transformed
        assert not res.transformed_types()

    @pytest.mark.parametrize("siblings", [1, 4])
    def test_per_unit_fault_contained_per_node(self, siblings):
        """A fault in one unit's summarize step is contained in that
        step; every sibling unit's step still runs and its types reach
        the merge."""
        others = sibling_units(siblings)
        with inject_fault("legality[m.c]", mode="raise"):
            res = Compiler(CompilerOptions()).compile_sources(
                [("m.c", SRC)] + others)
        assert res.ok
        assert [d.phase for d in res.diagnostics.contained()] == \
            ["legality[m.c]"]
        assert {f"legality[{name}]" for name, _ in others} \
            <= set(res.pass_timings)
        assert {f"q{i}" for i in range(siblings)} <= set(res.legality.types)

    def test_program_path_uses_dag_too(self):
        res = Compiler().compile(Program.from_source(SRC))
        assert res.scheduler["nodes"] >= 8
