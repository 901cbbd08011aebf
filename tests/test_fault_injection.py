"""Fault-injection harness: every single-point pass failure must be
contained.

Each test arms the global :data:`repro.core.FAULTS` registry (via the
``inject_fault`` context manager) so that one named pass crashes,
stalls past its wall-clock budget, or returns a corrupted summary, then
asserts that compilation still yields a complete
:class:`CompilationResult` whose transformed program is
output-equivalent to the original, with a diagnostic naming the
failure."""

import pytest

from repro.api import Session
from repro.core import (
    CODE_BUDGET, CODE_CONTAINED, CODE_CORRUPT, CODE_ROLLBACK, Compiler,
    CompilerOptions, FatalCompilerError, FAULTS, INJECTABLE_PASSES,
    FaultSpec, InjectedFault, inject_fault,
)
from repro.core.faults import CACHE_FAULTS, PROC_FAULTS, \
    ProcessFaultSpec, inject_cache_fault
from repro.frontend import Program
from repro.runtime import run_program
from repro.transform import HeuristicParams
from repro.workloads import ALL_WORKLOADS, MCF

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

# the ISSUE's acceptance list: every pass here must be containable
FAULT_PASSES = ["legality", "deadfields", "escape", "pointsto",
                "profiles", "heuristics"]


def _options(pass_name, **kw):
    # points-to only runs when legality relaxation is requested
    return CompilerOptions(relax_legality=(pass_name == "pointsto"),
                           **kw)


def _assert_equivalent(res):
    before = run_program(res.program)
    after = run_program(res.transformed)
    assert before.stdout == after.stdout
    assert before.exit_code == after.exit_code


class TestRegistry:
    def test_inject_fault_arms_and_disarms(self):
        assert FAULTS.spec("legality") is None
        with inject_fault("legality", "raise") as spec:
            assert isinstance(spec, FaultSpec)
            assert FAULTS.spec("legality") is spec
        assert FAULTS.spec("legality") is None

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("frobnicate", "raise")

    def test_every_registry_is_truthy_only_while_armed(self):
        """The reply memo's bypass is one truthiness test over the
        three registries."""
        assert not FAULTS and not PROC_FAULTS and not CACHE_FAULTS
        with inject_fault("legality", "raise"):
            assert FAULTS
        with inject_cache_fault("eio"):
            assert CACHE_FAULTS
        PROC_FAULTS.arm([ProcessFaultSpec("apply", "kill")], attempt=2)
        try:
            # armed even when this attempt is past the spec's ``times``
            assert PROC_FAULTS
        finally:
            PROC_FAULTS.disarm()
        assert not FAULTS and not PROC_FAULTS and not CACHE_FAULTS

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("legality", "explode")

    def test_fired_counts(self):
        with inject_fault("legality", "raise") as spec:
            Session().compile_source(DEMO)
        assert spec.fired == 1

    def test_all_issue_passes_injectable(self):
        for name in FAULT_PASSES:
            assert name in INJECTABLE_PASSES


class TestCrashContainment:
    @pytest.mark.parametrize("pass_name", FAULT_PASSES)
    def test_pass_crash_is_contained(self, pass_name):
        with inject_fault(pass_name, "raise") as spec:
            res = Session(_options(pass_name)).compile_source(DEMO)
        assert spec.fired >= 1
        assert res.transformed is not None
        contained = res.diagnostics.contained()
        assert any(d.phase == pass_name for d in contained), \
            res.diagnostics.render()
        _assert_equivalent(res)

    def test_clean_compile_has_no_fault_diagnostics(self):
        res = Session().compile_source(DEMO)
        assert res.diagnostics.contained() == []
        assert res.rolled_back == []
        assert res.transformed_types()          # still optimizes

    def test_crash_outside_registry_also_contained(self):
        """Containment guards real bugs, not just injected ones."""
        res = Session(CompilerOptions(
            pointsto_max_sweeps=10_000,
            relax_legality=True)).compile_source(DEMO)
        assert res.transformed is not None

    def test_strict_mode_promotes_to_fatal(self):
        with inject_fault("legality", "raise"):
            with pytest.raises(FatalCompilerError) as exc:
                Session(CompilerOptions(strict=True)).compile_source(DEMO)
        assert exc.value.phase == "legality"


class TestBudgetContainment:
    @pytest.mark.parametrize("pass_name", FAULT_PASSES)
    def test_stall_past_budget_is_contained(self, pass_name):
        opts = _options(pass_name, phase_budget=0.02)
        with inject_fault(pass_name, "stall", seconds=0.15):
            res = Session(opts).compile_source(DEMO)
        assert res.transformed is not None
        budget = res.diagnostics.by_code(CODE_BUDGET)
        assert any(d.phase == pass_name for d in budget), \
            res.diagnostics.render()
        _assert_equivalent(res)

    def test_pointsto_iteration_cap(self):
        res = Session(CompilerOptions(
            relax_legality=True, pointsto_max_sweeps=1)).compile_source(DEMO)
        assert res.transformed is not None
        assert any(d.phase == "pointsto"
                   for d in res.diagnostics.contained())
        _assert_equivalent(res)

    def test_no_budget_means_no_overrun(self):
        with inject_fault("legality", "stall", seconds=0.01):
            res = Session().compile_source(DEMO)
        assert res.diagnostics.by_code(CODE_BUDGET) == []


class TestCorruptSummaries:
    def test_corrupt_profiles_detected_structurally(self):
        """NaN hotness counts fail validation; the profile is dropped."""
        with inject_fault("profiles", "corrupt"):
            res = Session().compile_source(DEMO)
        assert res.diagnostics.by_code(CODE_CORRUPT), \
            res.diagnostics.render()
        _assert_equivalent(res)

    def test_corrupt_deadfields_caught_at_apply(self):
        """A summary that wrongly marks live fields dead must not make
        it into emitted code."""
        with inject_fault("deadfields", "corrupt"):
            res = Session().compile_source(DEMO)
        assert res.diagnostics.contained() or res.rolled_back
        _assert_equivalent(res)

    def test_corrupt_heuristics_caught(self):
        with inject_fault("heuristics", "corrupt"):
            res = Session().compile_source(DEMO)
        _assert_equivalent(res)


# A program whose layout is observable through a raw pointer cast:
# raw[2] reads field ``c``'s slot, so splitting c/d out changes the
# answer.  Legality correctly flags the cast (CSTF); corrupting the
# legality summary erases that flag and lets the bad split through.
CSTF_TRAP = """
struct pt { long a; long b; long c; long d; };
struct pt *P;
int main() {
    long *raw; long s = 0; int i; int it;
    P = (struct pt*) malloc(16 * sizeof(struct pt));
    for (i = 0; i < 16; i++) {
        P[i].a = i; P[i].b = 2 * i; P[i].c = 100 + i; P[i].d = 200 + i;
    }
    for (it = 0; it < 20; it++)
        for (i = 0; i < 16; i++) s += P[i].a + P[i].b;
    for (i = 0; i < 16; i++) s += P[i].c - P[i].d;
    raw = (long *) P;
    s += raw[2];
    printf("s=%ld\\n", s);
    return 0;
}
"""

# c/d sit at ~24% relative hotness; a 30% threshold makes them cold
_TRAP_PARAMS = HeuristicParams(ts_static=30.0)


class TestDifferentialRollback:
    def test_unverified_corruption_breaks_output(self):
        """Sanity: without verification the corrupted compile really
        does emit a wrong program (otherwise the rollback test below
        proves nothing)."""
        with inject_fault("legality", "corrupt"):
            res = Session(CompilerOptions(
                verify_transforms=False,
                params=_TRAP_PARAMS)).compile_source(CSTF_TRAP)
        assert [d.action for d in res.transformed_types()] == ["split"]
        before = run_program(res.program)
        after = run_program(res.transformed)
        assert before.stdout != after.stdout

    def test_broken_transform_rolled_back(self):
        with inject_fault("legality", "corrupt"):
            res = Session(CompilerOptions(
                verify_transforms=True,
                params=_TRAP_PARAMS)).compile_source(CSTF_TRAP)
        assert res.rolled_back == ["pt"]
        assert res.diagnostics.rollbacks()
        assert res.transformed_types() == []
        _assert_equivalent(res)

    def test_rollback_strict_raises(self):
        with inject_fault("legality", "corrupt"):
            with pytest.raises(FatalCompilerError):
                Session(CompilerOptions(
                    verify_transforms=True, strict=True,
                    params=_TRAP_PARAMS)).compile_source(CSTF_TRAP)

    def test_verification_keeps_good_transforms(self):
        res = Session(CompilerOptions(
            verify_transforms=True)).compile_source(DEMO)
        assert res.rolled_back == []
        assert res.transformed_types()
        _assert_equivalent(res)


class TestWorkloadsUnderVerification:
    @pytest.mark.parametrize("wl", ALL_WORKLOADS,
                             ids=lambda w: w.name)
    def test_zero_mismatches(self, wl):
        res = Compiler(CompilerOptions(verify_transforms=True)).compile(
            wl.program("train"))
        assert res.rolled_back == [], res.diagnostics.render()
        assert res.diagnostics.rollbacks() == []

    def test_cli_compare_verified(self, tmp_path, capsys):
        from repro.cli import main
        paths = []
        for name, text in MCF.sources("train"):
            p = tmp_path / name
            p.write_text(text)
            paths.append(str(p))
        assert main(["compare", *paths]) == 0
        out = capsys.readouterr().out
        assert "effect" in out
