"""The pass-DAG scheduler engine and its pipeline integration.

Contract under test (DESIGN.md "The pass DAG"):

- the graph validates before anything runs — duplicates, unknown
  dependency edges, and cycles are :class:`DagError`s with a witness;
- nodes execute inline in deterministic insertion order;
- merge barriers observe every unit node's result, dynamic nodes
  (the BE planner's per-decision applies) obey the same validation,
  and a failing node aborts cleanly instead of wedging the queue;
- the ``fe.parse`` node puts every unit's parse in flight on the
  process pool before it waits on any, and pool parsing (``jobs=4``)
  gives results identical to inline parsing (``jobs=1``);
- PhaseGuard containment stays per-node at either width: an injected
  pass fault demotes conservatively and the compile still finishes.
"""

import pytest

from repro.core import Compiler, CompilerOptions
from repro.core import fe
from repro.core.dag import (
    DagError, DagScheduler, PassDAG, effective_cores, process_pool,
)
from repro.core.faults import inject_fault
from repro.frontend import Program
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


@pytest.fixture
def many_cores(monkeypatch):
    """Defeat the core-count clamp so the parse pool path runs even on
    a single-core machine."""
    monkeypatch.setattr(fe.os, "cpu_count", lambda: 4)


def diamond() -> PassDAG:
    """a -> (b, c) -> d: the smallest graph with independent nodes."""
    dag = PassDAG()
    dag.add("a", lambda ctx: 1, phase="fe")
    dag.add("b", lambda ctx: ctx["a"] + 10, deps=("a",), phase="ipa")
    dag.add("c", lambda ctx: ctx["a"] + 100, deps=("a",), phase="ipa")
    dag.add("d", lambda ctx: ctx["b"] + ctx["c"], deps=("b", "c"),
            phase="be")
    return dag


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


def pooled_diamond(jobs: int) -> PassDAG:
    """:func:`diamond` whose independent nodes do their work on the
    process pool of width ``jobs``."""
    dag = PassDAG()
    dag.add("a", lambda ctx: 1, phase="fe")
    dag.add("b", lambda ctx: fan_out(jobs, [(ctx["a"], 10)])[0],
            deps=("a",), phase="ipa")
    dag.add("c", lambda ctx: fan_out(jobs, [(ctx["a"], 100)])[0],
            deps=("a",), phase="ipa")
    dag.add("d", lambda ctx: ctx["b"] + ctx["c"], deps=("b", "c"),
            phase="be")
    return dag


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

class TestTopology:
    def test_duplicate_node_rejected(self):
        dag = PassDAG()
        dag.add("a", lambda ctx: 1)
        with pytest.raises(DagError, match="duplicate node 'a'"):
            dag.add("a", lambda ctx: 2)

    def test_unknown_dependency_rejected(self):
        dag = PassDAG()
        dag.add("a", lambda ctx: 1, deps=("ghost",))
        with pytest.raises(DagError, match="unknown node 'ghost'"):
            dag.validate()

    def test_seeded_names_satisfy_dependencies(self):
        dag = PassDAG()
        dag.add("a", lambda ctx: ctx["seeded"], deps=("seeded",))
        dag.validate({"seeded"})          # must not raise
        results, _ = DagScheduler().run(dag, seeded={"seeded": 7})
        assert results["a"] == 7

    def test_cycle_detected_with_witness(self):
        dag = PassDAG()
        dag.add("a", lambda ctx: 1, deps=("c",))
        dag.add("b", lambda ctx: 1, deps=("a",))
        dag.add("c", lambda ctx: 1, deps=("b",))
        with pytest.raises(DagError) as exc:
            dag.validate()
        msg = str(exc.value)
        assert "dependency cycle" in msg
        # the witness walk names every member of the cycle
        assert all(n in msg for n in ("a", "b", "c"))

    def test_self_cycle_detected(self):
        dag = PassDAG()
        dag.add("a", lambda ctx: 1, deps=("a",))
        with pytest.raises(DagError, match="cycle"):
            dag.validate()

    def test_topo_order_respects_deps_and_insertion(self):
        dag = diamond()
        order = dag.topo_order()
        assert order == ["a", "b", "c", "d"]
        assert order.index("a") < order.index("b")
        assert order.index("b") < order.index("d")

    def test_cycle_raises_before_any_node_runs(self):
        ran = []
        dag = PassDAG()
        dag.add("a", lambda ctx: ran.append("a"), deps=("b",))
        dag.add("b", lambda ctx: ran.append("b"), deps=("a",))
        with pytest.raises(DagError):
            DagScheduler().run(dag)
        assert ran == []


# ---------------------------------------------------------------------------
# execution: insertion order, barriers, failures
# ---------------------------------------------------------------------------

class TestExecution:
    def test_serial_executes_in_builder_order(self):
        ran = []
        dag = PassDAG()
        for name in ("n0", "n1", "n2"):
            dag.add(name, lambda ctx, n=name: ran.append(n) or n)
        results, report = DagScheduler().run(dag)
        assert ran == ["n0", "n1", "n2"]
        assert results["n2"] == "n2"

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_diamond_results_identical_across_jobs(self, jobs):
        """Node results do not depend on whether the nodes' work runs
        inline (jobs=1) or on the process pool (jobs>1)."""
        for dag in (diamond(), pooled_diamond(jobs)):
            results, report = DagScheduler().run(dag)
            assert results == {"a": 1, "b": 11, "c": 101, "d": 112}
            assert report.node_count == 4

    def test_barrier_waits_for_every_unit(self):
        """A merge node must observe all N unit results."""
        n = 12
        dag = PassDAG()
        for i in range(n):
            dag.add(f"unit{i}", lambda ctx, i=i: i, phase="fe")
        dag.add("merge",
                lambda ctx: sum(ctx[f"unit{i}"] for i in range(n)),
                deps=tuple(f"unit{i}" for i in range(n)), phase="fe")
        results, _ = DagScheduler().run(dag)
        assert results["merge"] == sum(range(n))

    def test_node_exception_aborts_without_wedging(self):
        """An exception escaping a node (i.e. *not* contained by a
        guard) re-raises in the caller; undispatched nodes are skipped
        and the scheduler does not hang on its queue."""
        dag = PassDAG()
        dag.add("ok", lambda ctx: 1)
        dag.add("boom", lambda ctx: 1 / 0, deps=("ok",))
        dag.add("after", lambda ctx: 2, deps=("boom",))
        with pytest.raises(ZeroDivisionError):
            DagScheduler().run(dag)

    def test_missing_dependency_edge_is_a_loud_error(self):
        """Reading an undeclared dependency raises KeyError instead of
        silently returning a stale value."""
        dag = PassDAG()
        dag.add("a", lambda ctx: 1)
        dag.add("b", lambda ctx: ctx["zzz_never_declared"], deps=("a",))
        with pytest.raises(KeyError, match="missing"):
            DagScheduler().run(dag)


class TestDynamicGrowth:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_planner_appends_chained_nodes(self, jobs):
        """Dynamically appended nodes chain correctly, also when their
        work runs on the process pool of width ``jobs``."""
        dag = PassDAG()
        dag.add("base", lambda ctx: 10)

        def plan(ctx):
            ctx.add_nodes([
                {"name": "apply[x]",
                 "fn": lambda c: fan_out(jobs, [(c["base"], 1)])[0],
                 "deps": ("base",)},
                {"name": "apply[y]",
                 "fn": lambda c: fan_out(
                     jobs, [(c["apply[x]"], c["apply[x]"])])[0],
                 "deps": ("apply[x]",)},
            ])
            return None

        dag.add("plan", plan, deps=("base",))
        results, report = DagScheduler().run(dag)
        assert results["apply[y]"] == 22
        assert report.node_count == 4     # base, plan, apply[x|y]

    def test_dynamic_duplicate_rejected(self):
        dag = PassDAG()
        dag.add("base", lambda ctx: 1)
        dag.add("plan", lambda ctx: ctx.add_nodes(
            [{"name": "base", "fn": lambda c: 2}]), deps=("base",))
        with pytest.raises(DagError, match="duplicate"):
            DagScheduler().run(dag)

    def test_dynamic_unknown_dep_rejected(self):
        dag = PassDAG()
        dag.add("plan", lambda ctx: ctx.add_nodes(
            [{"name": "n", "fn": lambda c: 1, "deps": ("ghost",)}]))
        with pytest.raises(DagError, match="unknown"):
            DagScheduler().run(dag)


class TestReport:
    def test_phase_window_and_critical_path(self):
        _, report = DagScheduler().run(diamond())
        assert report.phase_window("fe") > 0.0
        assert report.phase_window("nonesuch") == 0.0
        seconds, path = report.critical_path()
        assert seconds > 0.0
        # any critical path through the diamond starts at a, ends at d
        assert path[0] == "a" and path[-1] == "d"
        d = report.to_dict()
        assert d["nodes"] == 4
        assert d["wall_ms"] >= d["critical_path_ms"] * 0.0
        assert d["critical_path"] == path

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
