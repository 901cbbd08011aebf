"""Global layout search: SA, the batched replay oracle, the API."""

import random
from dataclasses import replace

import pytest

from repro.api import ApiError, CompileOptions, CompileRequest, \
    SearchOptions, Session
from repro.core import Compiler, CompilerOptions
from repro.core.summarycache import SummaryCache
from repro.frontend import Program
from repro.runtime import ITANIUM2_SCALED, run_program
from repro.runtime.replay import (
    capture_trace, plan_layout, precompile, replay_batch,
    replay_reference,
)
from repro.transform.heuristics import TransformDecision
from repro.transform.search import (
    Layout, LayoutOracle, decision_from_layout, search_layouts,
    search_mode,
)
from repro.workloads import ALL_WORKLOADS, get_workload

from .test_cli import DEMO

MCF = get_workload("181.mcf")

#: cycle budget that truncates every workload's trace to a fast prefix
SHORT = 1_000_000

#: a longer prefix, in which a split field and its link load meet in
#: one set of a direct-mapped L1 (no SHORT prefix has that meeting)
LONG = 3_000_000

_L1, _L2, _L3 = ITANIUM2_SCALED.levels

#: replay configs, with the prefix each is checked on and whether
#: precompile may fold accesses under it
REPLAY_CONFIGS = {
    "scaled": (ITANIUM2_SCALED, SHORT, True),
    "scaled/2": (ITANIUM2_SCALED.scaled(2), SHORT, True),
    "direct-mapped-l1": (
        replace(ITANIUM2_SCALED, levels=(replace(_L1, ways=1), _L2, _L3)),
        LONG, False),
    "prefetch": (replace(ITANIUM2_SCALED, prefetch=True), SHORT, False),
}

#: each focus workload's searched record
FOCUS = {"181.mcf": "node", "179.art": "f1_neuron", "moldyn": "particle"}


def _analysis(workload, input_set="train"):
    res = Compiler(CompilerOptions(transform=False)) \
        .compile_sources(workload.sources(input_set))
    assert not res.program.frontend_errors
    return res


@pytest.fixture(scope="module")
def mcf_res():
    return _analysis(MCF)


@pytest.fixture(scope="module")
def focus_programs():
    return {w: _analysis(get_workload(w)).program for w in FOCUS}


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
        assert replay_batch(compiled, plans) == \
            replay_reference(mcf_trace, "node", plans)

    @pytest.mark.parametrize("config", REPLAY_CONFIGS)
    @pytest.mark.parametrize("workload", FOCUS)
    def test_folded_replay_matches_reference(self, workload, config,
                                            focus_programs):
        """``precompile`` folds the accesses that cannot miss; replay
        of what is left, plus the folded latency, must score seeded
        random layouts — multi-piece, linked, peeled, with dead fields
        — exactly as the reference replay of every access.  A config
        with a direct-mapped level or a prefetcher folds nothing."""
        cfg, limit, folds = REPLAY_CONFIGS[config]
        trace = capture_trace(focus_programs[workload], cache_config=cfg,
                              cycle_limit=limit)
        compiled = precompile(trace, FOCUS[workload])
        assert (len(compiled.ops) < len(trace)) == folds
        if not folds:
            assert compiled.repeats == []
            assert compiled.base_cycles == trace.base_cycles
        rng = random.Random(f"{workload}:{config}")
        plans = [plan_layout(compiled, l.groups, l.linked, l.dead)
                 for l in _random_layouts(compiled, rng)]
        assert replay_batch(compiled, plans) == \
            replay_reference(trace, FOCUS[workload], plans)


def _random_layouts(compiled, rng, n: int = 8) -> list:
    """``n`` seeded layouts of the record: every other one a linked
    split into two or three pieces, the rest peeled into up to three;
    about one field in six dead."""
    out = []
    for k in range(n):
        names = [f.name for f in compiled.fields]
        rng.shuffle(names)
        dead = tuple(x for x in names[2:] if rng.random() < 1 / 6)
        live = [x for x in names if x not in dead]
        linked = k % 2 == 0
        pieces = rng.randint(2 if linked else 1, min(3, len(live)))
        cuts = sorted(rng.sample(range(1, len(live)), pieces - 1))
        groups = tuple(tuple(live[a:b]) for a, b in
                       zip([0] + cuts, cuts + [len(live)]))
        out.append(Layout(groups, linked, dead))
    return out


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

    def test_searched_payload_repeats_outside_timings(self):
        """A search's wall clock is timed in ``timings``, the payload's
        one wall-clock block; the rest of a seeded search's payload is
        the same on every run."""
        search = SearchOptions(engine="sa", budget_s=0, seed=7,
                               sa_batch=2, sa_iters=2, sa_restarts=0)
        request = CompileRequest(
            op="advise", sources=[("demo.c", DEMO)],
            options=CompileOptions(search=search))
        first, second = (Session().execute(request).payload
                         for _ in range(2))
        assert "search[item]" in first["timings"]
        assert "elapsed_s" not in first["search"]["item"]
        first.pop("timings")
        second.pop("timings")
        assert first == second

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


class TestSearchOptionsApi:
    def test_frozen(self):
        s = SearchOptions()
        with pytest.raises(Exception):
            s.engine = "greedy"

    def test_wire_round_trip(self):
        s = SearchOptions(engine="greedy", budget_s=2.5, seed=9,
                          sa_restarts=0, sa_iters=5)
        d = s.to_dict()
        assert SearchOptions.from_dict(d) == s
        # defaults stay off the wire
        assert "sa_batch" not in d

    def test_nested_in_compile_options(self):
        opts = CompileOptions(search=SearchOptions(engine="greedy"))
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
            SearchOptions(sa_batch=0)

    @pytest.mark.parametrize("name, value", [
        ("seed", True), ("seed", "7"), ("sa_batch", 4.7),
        ("sa_iters", 2.9), ("sa_restarts", "1"), ("budget_s", True),
        ("budget_s", "10"), ("budget_s", float("nan")),
        ("budget_s", float("inf")), ("budget_s", 10 ** 400),
    ], ids=["seed-bool", "seed-string", "batch-fraction",
            "iters-fraction", "restarts-string", "budget-bool",
            "budget-string", "budget-nan", "budget-inf",
            "budget-beyond-float"])
    def test_wire_values_are_checked_not_coerced(self, name, value):
        """A count takes only an integer and ``budget_s`` only a finite
        number: a boolean, a fraction, a string, a non-finite budget or
        one past a float's range is refused with ``where`` naming the
        field, never read as a nearby number or raised as another
        error.  (Python's ``json`` reads a bare ``NaN`` or ``Infinity``
        in a request line as a float.)"""
        wire = {"op": "advise", "sources": [["demo.c", DEMO]],
                "options": {"search": {name: value}}}
        with pytest.raises(ApiError) as ei:
            CompileRequest.from_dict(wire)
        assert ei.value.detail["where"] == f"search.{name}"
        with pytest.raises(ApiError):
            SearchOptions(**{name: value})

    def test_wire_numbers_that_stay_valid(self):
        # an integer budget (perfbench passes budget_s=0) and an
        # integral float count are what they say
        s = SearchOptions.from_dict({"budget_s": 0, "sa_batch": 4.0,
                                     "seed": -3})
        assert (s.budget_s, s.sa_batch, s.seed) == (0, 4, -3)
        assert type(s.sa_batch) is int

    @pytest.mark.parametrize("engine", ["ilp", "auto"])
    def test_retired_engines_are_refused(self, engine):
        with pytest.raises(ApiError) as ei:
            CompileOptions.from_dict({"search": {"engine": engine}})
        assert ei.value.detail["where"] == "search.engine"
        assert ei.value.detail["known_engines"] == ["greedy", "sa"]

    #: the retired exact engine's field threshold and the three
    #: schedule knobs, now module constants of ``anneal``
    RETIRED_KNOBS = [f"{prefix}_{knob}" for prefix, knob in (
        ("ilp", "max_fields"), ("sa", "alpha"), ("sa", "tmax"),
        ("sa", "tmin"))]

    @pytest.mark.parametrize("key", RETIRED_KNOBS)
    def test_retired_knobs_are_unknown_fields(self, key):
        with pytest.raises(ApiError) as ei:
            CompileOptions.from_dict({"search": {key: 1}})
        assert ei.value.detail["unknown_fields"] == [key]
        assert ei.value.detail["where"] == "search"

    def test_from_cli(self):
        s = SearchOptions.from_cli("engine=sa,budget=10s,seed=7")
        assert (s.engine, s.budget_s, s.seed) == ("sa", 10.0, 7)
        assert SearchOptions.from_cli("greedy").engine == "greedy"
        s2 = SearchOptions.from_cli("iters=3,batch=4")
        assert (s2.sa_iters, s2.sa_batch) == (3, 4)
        with pytest.raises(ApiError):
            SearchOptions.from_cli("warp=9")
        for spec in ("ts=5", "peel=hot-cold", "peel_mode=affinity",
                     "alpha=0.5"):
            with pytest.raises(ApiError, match="unknown --search key"):
                SearchOptions.from_cli(spec)
        for spec, where in (("iters=2.5", "search.sa_iters"),
                            ("seed=x", "search.seed"),
                            ("budget=infs", "search.budget_s")):
            with pytest.raises(ApiError) as ei:
                SearchOptions.from_cli(spec)
            assert ei.value.detail["where"] == where

    def test_search_type_respects_greedy_legality(self, mcf_res):
        # search_mode applies the same pre-checks as the greedy
        # heuristics: a blocked type is not searchable
        for name, info in mcf_res.legality.types.items():
            mode, _ = search_mode(mcf_res.program, info, info.record)
            if not info.is_legal():
                assert mode is None
