"""Global layout search: SA, exact B&B, batched replay oracle, API."""

import random

import pytest

from repro.api import ApiError, CompileOptions, CompileRequest, \
    SearchOptions
from repro.core import Compiler, CompilerOptions
from repro.core.summarycache import SummaryCache
from repro.frontend import Program
from repro.runtime import run_program
from repro.runtime.replay import (
    capture_trace, plan_layout, precompile, replay_batch,
    replay_reference,
)
from repro.transform.heuristics import TransformDecision
from repro.transform.search import (
    Layout, LayoutOracle, bb_order, decision_from_layout,
    exhaustive_order, search_layouts, search_mode,
)
from repro.workloads import ALL_WORKLOADS, get_workload

MCF = get_workload("181.mcf")

#: cycle budget that truncates every workload's trace to a fast prefix
SHORT = 1_000_000


def _analysis(workload, input_set="train"):
    res = Compiler(CompilerOptions(transform=False)) \
        .compile_sources(workload.sources(input_set))
    assert not res.program.frontend_errors
    return res


@pytest.fixture(scope="module")
def mcf_res():
    return _analysis(MCF)


@pytest.fixture(scope="module")
def mcf_trace(mcf_res):
    return capture_trace(mcf_res.program, cycle_limit=SHORT)


def _search(res, trace, **kw):
    opts = SearchOptions(**{"engine": "sa", "seed": 3, "sa_iters": 6,
                            "sa_restarts": 1, "budget_s": 60.0, **kw})
    return search_layouts(res.program, res.decisions, res.legality,
                          res.profiles, opts, trace)


class TestTraceCapture:
    def test_traced_cycles_match_plain_run(self, mcf_res):
        # recording wrappers must not perturb the machine's accounting
        full = capture_trace(mcf_res.program)
        plain = run_program(mcf_res.program)
        assert full.cycles == plain.cycles
        assert full.stdout == plain.stdout
        assert not full.truncated
        assert len(full) > 0

    def test_truncated_prefix(self, mcf_trace):
        assert mcf_trace.truncated
        # the in-flight instruction finishes, so allow a short tail
        assert mcf_trace.cycles <= SHORT + 1_000
        assert len(mcf_trace) > 0


class TestReplayParity:
    def test_fast_path_matches_reference(self, mcf_trace):
        # the exec-specialized replayer is an optimization of the
        # real CacheHierarchy walk — cycle-exact, layout by layout
        compiled = precompile(mcf_trace, "node")
        live = [f.name for f in compiled.fields]
        layouts = [
            Layout((tuple(live),)),
            Layout((tuple(reversed(live)),)),
            Layout((tuple(live[:3]), tuple(live[3:])), linked=True),
            Layout((tuple(live[::2]), tuple(live[1::2]))),
        ]
        plans = [plan_layout(compiled, l.groups, l.linked, l.dead)
                 for l in layouts]
        fast = replay_batch(compiled, plans)
        # replay_reference already includes base_cycles
        ref = [replay_reference(compiled, p) for p in plans]
        assert fast == ref


class TestSeededDeterminism:
    def test_same_seed_same_result(self, mcf_res, mcf_trace):
        # iteration-bounded with an ample budget: wall clock never
        # decides, so two runs are byte-identical
        runs = [_search(mcf_res, mcf_trace) for _ in range(2)]
        (d1, s1), (d2, s2) = runs
        strip = [{k: v for k, v in s.items()
                  if not isinstance(v, dict) or k == "_trace"}
                 for s in (s1, s2)]
        for t in s1:
            if t.startswith("_"):
                continue
            assert s1[t]["best_fingerprint"] == \
                s2[t]["best_fingerprint"]
            assert s1[t]["best_cycles"] == s2[t]["best_cycles"]
            assert s1[t]["evals"] == s2[t]["evals"]
        assert [(d.type_name, d.action, d.hot_order, d.cold_fields)
                for d in d1] == \
            [(d.type_name, d.action, d.hot_order, d.cold_fields)
             for d in d2]
        assert strip[0]["_trace"] == strip[1]["_trace"]

    def test_different_seed_may_differ_but_never_worse(
            self, mcf_res, mcf_trace):
        for seed in (1, 2):
            _, stats = _search(mcf_res, mcf_trace, seed=seed)
            for t, s in stats.items():
                if t.startswith("_"):
                    continue
                assert s["best_cycles"] <= s["greedy_cycles"]


class TestNeverWorseThanGreedy:
    @pytest.mark.parametrize(
        "workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_sa_floor_on_workload(self, workload):
        res = _analysis(workload)
        trace = capture_trace(res.program, cycle_limit=SHORT)
        refined, stats = _search(res, trace, sa_iters=4)
        searched = [t for t in stats if not t.startswith("_")]
        for t in searched:
            assert stats[t]["best_cycles"] <= stats[t]["greedy_cycles"]
        # refined decisions keep the original order and cover every
        # original decision
        assert [d.type_name for d in refined] == \
            [d.type_name for d in res.decisions]


class TestExactSolver:
    def _random_instance(self, rng, nfields):
        fields = [f"f{i}" for i in range(nfields)]
        spec = {f: (rng.choice([1, 2, 4, 8]), rng.choice([1, 2, 4, 8]))
                for f in fields}
        groups = []
        for _ in range(rng.randint(1, 3)):
            members = rng.sample(fields, rng.randint(1, nfields))
            groups.append((rng.uniform(0.1, 10.0), tuple(members)))
        line = rng.choice([16, 32, 64, 128])
        return fields, spec, groups, line

    def test_bb_matches_exhaustive_small(self):
        rng = random.Random(12345)
        for _ in range(120):
            fields, spec, groups, line = self._random_instance(
                rng, rng.randint(2, 6))
            got = bb_order(fields, spec, groups, line)
            want = exhaustive_order(fields, spec, groups, line)
            assert got == want, (fields, spec, groups, line)

    def test_ilp_never_worse_on_mcf(self, mcf_res, mcf_trace):
        _, stats = _search(mcf_res, mcf_trace, engine="ilp")
        for t, s in stats.items():
            if t.startswith("_"):
                continue
            assert s["engine"] == "ilp"
            assert s["best_cycles"] <= s["greedy_cycles"]

    def test_auto_picks_exact_for_small_structs(
            self, mcf_res, mcf_trace):
        _, stats = _search(mcf_res, mcf_trace, engine="auto",
                           ilp_max_fields=64)
        for t, s in stats.items():
            if not t.startswith("_"):
                assert s["engine"] == "ilp"


class TestAnytimeBudget:
    def test_expired_budget_returns_greedy_floor(
            self, mcf_res, mcf_trace):
        # a deadline in the past: SA must stop after its first batch
        # check and still answer with the best layout seen so far
        refined, stats = _search(mcf_res, mcf_trace, budget_s=1e-9)
        searched = [t for t in stats if not t.startswith("_")]
        assert searched
        for t in searched:
            s = stats[t]
            assert s["best_cycles"] <= s["greedy_cycles"]
            assert s["sa"]["budget_expired"]

    def test_zero_budget_means_unbounded(self, mcf_res, mcf_trace):
        _, stats = _search(mcf_res, mcf_trace, budget_s=0.0,
                           sa_iters=2, sa_restarts=0)
        for t, s in stats.items():
            if not t.startswith("_"):
                assert not s["sa"]["budget_expired"]


class TestScoreMemoization:
    def test_repeat_search_hits_summary_cache(
            self, mcf_res, mcf_trace, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        opts = SearchOptions(engine="sa", seed=3, sa_iters=4,
                             sa_restarts=0, budget_s=60.0)

        def once():
            _, stats = search_layouts(
                mcf_res.program, mcf_res.decisions, mcf_res.legality,
                mcf_res.profiles, opts, mcf_trace, cache=cache)
            return {t: s for t, s in stats.items()
                    if not t.startswith("_")}

        first = once()
        second = once()
        for t in first:
            assert second[t]["best_cycles"] == first[t]["best_cycles"]
            # every score the second run needed was already stored
            assert second[t]["evals"] == 0
            assert second[t]["cache_hits"] > 0

    def test_in_process_memo(self, mcf_trace):
        compiled = precompile(mcf_trace, "node")
        oracle = LayoutOracle(compiled)
        live = tuple(f.name for f in compiled.fields)
        a = oracle.score(Layout((live,)))
        b = oracle.score(Layout((live,)))
        assert a == b
        assert oracle.evals == 1
        assert oracle.memo_hits == 1


class TestSearchedDecisionNotes:
    """A searched decision's note describes the searched layout, not
    the greedy layout it replaced."""

    GREEDY = TransformDecision(
        type_name="t", action="peel", pointer="p",
        groups=[["a"], ["b"], ["c"], ["d"]],
        notes=["peel via global pointer 'p' into 4 pieces"])

    def test_peel_note_counts_the_searched_pieces(self):
        d = decision_from_layout(
            self.GREEDY, Layout((("a", "b"), ("c", "d"))), "peel", "p",
            ["a", "b", "c", "d"])
        assert d.groups == [["a", "b"], ["c", "d"]]
        assert d.notes == ["peel via global pointer 'p' into 2 pieces"]

    def test_split_and_reorder_notes(self):
        live = ["a", "b", "c", "d"]
        split = decision_from_layout(
            self.GREEDY, Layout((("a", "b", "c"), ("d",)), True),
            "split", None, live)
        assert split.notes == ["split out 1 fields"]
        reorder = decision_from_layout(
            self.GREEDY, Layout((("d", "c", "b", "a"),)), "peel", "p",
            live)
        assert (reorder.action, reorder.notes) == \
            ("reorder", ["reorder fields"])

    def test_art_searched_peel_note(self):
        sopts = SearchOptions(engine="sa", seed=1, sa_batch=4,
                              sa_iters=6, sa_restarts=0, budget_s=0)
        res = Compiler(CompilerOptions(search=sopts)) \
            .compile_sources(get_workload("179.art").sources("train"))
        d = next(d for d in res.decisions if d.type_name == "f1_neuron")
        assert d.action == "peel"
        assert d.notes[0] == (f"peel via global pointer {d.pointer!r} "
                              f"into {len(d.groups)} pieces")
        assert d.notes[1].startswith("search[sa]: ")


class TestPipelineIntegration:
    def test_search_nodes_refine_decisions(self, mcf_res):
        sopts = SearchOptions(engine="sa", seed=3, sa_iters=6,
                              sa_restarts=1, budget_s=60.0)
        res = Compiler(CompilerOptions(search=sopts)) \
            .compile_sources(MCF.sources("train"))
        assert res.ok
        assert "_trace" in res.search
        searched = [t for t in res.search if not t.startswith("_")]
        assert "node" in searched
        for t in searched:
            s = res.search[t]
            assert s["best_cycles"] <= s["greedy_cycles"]
            # the gather popped the decision into the ordinary list
            assert "decision" not in s
        # transformed program still behaves identically
        assert run_program(res.program).stdout == \
            run_program(res.transformed).stdout

    def test_search_off_by_default(self, mcf_res):
        assert mcf_res.search == {}

    def test_greedy_engine_is_decision_identical(self):
        sopts = SearchOptions(engine="greedy")
        res = Compiler(CompilerOptions(search=sopts)) \
            .compile_sources(MCF.sources("train"))
        base = Compiler(CompilerOptions()) \
            .compile_sources(MCF.sources("train"))
        assert [(d.type_name, d.action, d.hot_order, d.cold_fields)
                for d in res.decisions] == \
            [(d.type_name, d.action, d.hot_order, d.cold_fields)
             for d in base.decisions]
        assert res.search  # ... but the report stats are there

    def test_search_excluded_from_options_fingerprint(self):
        plain = CompilerOptions()
        searching = CompilerOptions(search=SearchOptions())
        assert plain.fingerprint() == searching.fingerprint()

    def test_bad_engine_rejected(self):
        class Bogus:
            engine = "magic"
        with pytest.raises(ValueError):
            CompilerOptions(search=Bogus())


class TestSearchOptionsApi:
    def test_frozen(self):
        s = SearchOptions()
        with pytest.raises(Exception):
            s.engine = "ilp"

    def test_wire_round_trip(self):
        s = SearchOptions(engine="auto", budget_s=2.5, seed=9,
                          sa_restarts=0, sa_iters=5)
        d = s.to_dict()
        assert SearchOptions.from_dict(d) == s
        # defaults stay off the wire
        assert "sa_alpha" not in d

    def test_nested_in_compile_options(self):
        opts = CompileOptions(search=SearchOptions(engine="ilp"))
        req = CompileRequest(op="transform",
                             sources=[("a.c", "int main(){return 0;}")],
                             options=opts)
        wire = req.to_wire()
        back = CompileRequest.from_dict(wire)
        assert back.options.search == opts.search
        copts = back.options.compiler_options("full")
        assert copts.search == opts.search

    def test_unknown_field_rejected(self):
        with pytest.raises(ApiError) as ei:
            SearchOptions.from_dict({"engine": "sa", "wat": 1})
        assert "wat" in ei.value.detail["unknown_fields"]
        with pytest.raises(ApiError):
            CompileOptions.from_dict({"search": {"turbo": True}})

    def test_greedy_floor_knobs_are_not_search_fields(self):
        # ts / peel_mode live on CompileOptions only: on the wire they
        # are unknown inside ``search``
        for key, value in (("ts", 5), ("peel_mode", "hot-cold")):
            with pytest.raises(ApiError) as ei:
                CompileOptions.from_dict({"search": {key: value}})
            assert ei.value.detail["unknown_fields"] == [key]
            assert ei.value.detail["where"] == "search"

    def test_validation(self):
        with pytest.raises(ApiError):
            SearchOptions(engine="bogus")
        with pytest.raises(ApiError):
            SearchOptions(budget_s=-1.0)
        with pytest.raises(ApiError):
            SearchOptions(sa_alpha=1.5)

    def test_from_cli(self):
        s = SearchOptions.from_cli("engine=sa,budget=10s,seed=7")
        assert (s.engine, s.budget_s, s.seed) == ("sa", 10.0, 7)
        assert SearchOptions.from_cli("ilp").engine == "ilp"
        s2 = SearchOptions.from_cli("iters=3,alpha=0.5")
        assert (s2.sa_iters, s2.sa_alpha) == (3, 0.5)
        with pytest.raises(ApiError):
            SearchOptions.from_cli("warp=9")
        for spec in ("ts=5", "peel=hot-cold", "peel_mode=affinity"):
            with pytest.raises(ApiError, match="unknown --search key"):
                SearchOptions.from_cli(spec)

    def test_search_type_respects_greedy_legality(self, mcf_res):
        # search_mode applies the same pre-checks as the greedy
        # heuristics: a blocked type is not searchable
        for name, info in mcf_res.legality.types.items():
            mode, _ = search_mode(mcf_res.program, info, info.record)
            if not info.is_legal():
                assert mode is None
