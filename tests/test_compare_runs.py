"""A compare simulates each program once per request.

The compile records the runs it completed (the search trace's run of
the original, the runs verification ends with), and the compare
reuses them: counting :meth:`CompiledProgram.run` calls through
:meth:`repro.api.Session.execute` and ``repro compare`` pins how many
full simulations one request costs.
"""

import pytest

from repro.api import CompileOptions, CompileRequest, SearchOptions, \
    Session, compare_result
from repro.cli import main
from repro.core import Compiler, CompilerOptions, inject_fault, pipeline
from repro.frontend import Program
from repro.runtime.codegen import CompiledProgram

from .test_cli import DEMO

#: a record the heuristics leave alone: the transformed program is the
#: original itself
UNTRANSFORMED = """
struct pair { long a; long b; };
struct pair g;
int main() { g.a = 1; g.b = 2; printf("%ld\\n", g.a + g.b); return 0; }
"""

SEEDED_SA = SearchOptions(engine="sa", budget_s=0, seed=1, sa_batch=2,
                          sa_iters=2, sa_restarts=0)
SEEDED_SA_FLAG = "engine=sa,budget=0,seed=1,batch=2,iters=2,restarts=0"

#: case -> (source, request options, CLI flags, full simulations)
CASES = {
    "verified-greedy": (DEMO, CompileOptions(), [], 2),
    "verified-searched": (DEMO, CompileOptions(search=SEEDED_SA),
                          ["--search", SEEDED_SA_FLAG], 2),
    "untransformed": (UNTRANSFORMED, CompileOptions(), [], 1),
    "no-verify": (DEMO, CompileOptions(verify=False), ["--no-verify"], 2),
}


@pytest.fixture
def runs(monkeypatch):
    """Every program the simulator runs, in order."""
    ran = []
    original = CompiledProgram.run

    def counted(self, *args, **kwargs):
        ran.append(self.program)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CompiledProgram, "run", counted)
    return ran


@pytest.mark.parametrize("case", sorted(CASES))
def test_session_compare_runs_each_program_once(case, runs):
    source, options, _flags, expected = CASES[case]
    reply = Session().execute(CompileRequest(
        op="compare", sources=[("a.c", source)], options=options))
    assert reply.ok
    assert not reply.payload["compare"]["mismatch"]
    assert len(runs) == expected
    assert len({id(p) for p in runs}) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_compare_runs_each_program_once(case, runs, tmp_path,
                                            capsys):
    source, _options, flags, expected = CASES[case]
    path = tmp_path / "a.c"
    path.write_text(source)
    assert main(["compare", *flags, str(path)]) == 0
    assert "effect   :" in capsys.readouterr().out
    assert len(runs) == expected


def test_trace_past_the_verify_budget_is_not_a_baseline(runs,
                                                        monkeypatch):
    """The search trace stands in for verify's run of the original only
    within verify's budget; past it, verify runs the original under the
    budget itself (here the run overruns it)."""
    monkeypatch.setattr(pipeline, "VERIFY_CYCLE_BASE", 1_000)
    opts = CompilerOptions(verify_transforms=True, search=SEEDED_SA)
    result = Compiler(opts).compile_sources([("a.c", DEMO)])
    assert [d.message for d in result.diagnostics
            if d.phase == "verify"] == [
        "original program exceeds the 1,000-cycle verification budget; "
        "verification inconclusive, transforms kept"]
    assert len(runs) == 2


class TestRecordedRunsFollowTheProgram:
    """A recorded run belongs to the program object it ran: a guard
    fallback or a corrupted ``verify`` result cannot lend it to
    another program."""

    LIMIT = 2_000_000_000

    def test_guard_fallback_compares_the_original(self, runs):
        # verify runs both programs, then overruns its budget: the
        # fallback emits the original, whose recorded run the compare
        # reuses for both sides
        opts = CompilerOptions(verify_transforms=True, phase_budget=2.0)
        with inject_fault("verify", "stall", seconds=2.5):
            result = Compiler(opts).compile_sources([("a.c", DEMO)])
        assert result.transformed is result.program
        compared, failed = compare_result(result, self.LIMIT)
        assert failed is None
        assert compared["after_cycles"] == compared["before_cycles"]
        assert len(runs) == 2

    def test_corrupted_verify_result_is_simulated(self, runs):
        other = Program.from_source(UNTRANSFORMED)
        opts = CompilerOptions(verify_transforms=True)
        with inject_fault("verify", "corrupt", corrupter=lambda _: other):
            result = Compiler(opts).compile_sources([("a.c", DEMO)])
        assert result.transformed is other
        compared, failed = compare_result(result, self.LIMIT)
        assert failed is None
        assert compared["mismatch"]
        assert runs[-1] is other and len(runs) == 3
