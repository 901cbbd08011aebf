"""Workload tests: Table 1 rows are exact, checksums survive the
transformations, and the three headline benchmarks move in the paper's
direction.  Uses the small 'train' inputs to stay fast."""

import pytest

from repro.core import Compiler
from repro.runtime import run_program
from repro.workloads import (
    ALL_WORKLOADS, WORKLOADS_BY_NAME, get_workload, MCF, ART, MOLDYN,
    PopulationSpec, generate_population, population_for_row,
)
from repro.frontend import Program
from repro.analysis import analyze_legality, analyze_escapes


@pytest.fixture(scope="module")
def compiled():
    """Compile every workload once (train inputs)."""
    out = {}
    for wl in ALL_WORKLOADS:
        out[wl.name] = Compiler().compile(wl.program("train"))
    return out


class TestRegistry:
    def test_twelve_workloads(self):
        assert len(ALL_WORKLOADS) == 12

    def test_lookup(self):
        assert get_workload("181.mcf") is MCF
        assert WORKLOADS_BY_NAME["179.art"] is ART

    def test_unique_names(self):
        names = [w.name for w in ALL_WORKLOADS]
        assert len(set(names)) == len(names)

    def test_train_and_ref_differ(self):
        for wl in ALL_WORKLOADS:
            assert wl.sources("train") != wl.sources("ref")

    def test_unknown_input_set_rejected(self):
        with pytest.raises(ValueError):
            MCF.sources("huge")


class TestTable1Rows:
    def test_all_rows_match_paper(self, compiled):
        for wl in ALL_WORKLOADS:
            res = compiled[wl.name]
            got = res.table1_row()
            want = (wl.paper.types, wl.paper.legal, wl.paper.relaxed)
            assert got == want, f"{wl.name}: {got} != {want}"

    def test_average_percentages_near_paper(self, compiled):
        legal_pct = []
        relax_pct = []
        for wl in ALL_WORKLOADS:
            t, l, r = compiled[wl.name].table1_row()
            legal_pct.append(100.0 * l / t)
            relax_pct.append(100.0 * r / t)
        avg_legal = sum(legal_pct) / len(legal_pct)
        avg_relax = sum(relax_pct) / len(relax_pct)
        # paper: 20.9% and 65.7%
        assert abs(avg_legal - 20.9) < 3.0
        assert abs(avg_relax - 65.7) < 3.0


class TestSemanticPreservation:
    @pytest.mark.parametrize("name",
                             [w.name for w in ALL_WORKLOADS])
    def test_checksum_preserved(self, compiled, name):
        res = compiled[name]
        before = run_program(res.program)
        after = run_program(res.transformed)
        assert before.stdout == after.stdout
        assert before.exit_code == after.exit_code == 0


class TestHeadlineDirections:
    def test_mcf_splits_node(self, compiled):
        res = compiled[MCF.name]
        d = res.decision_for("node")
        assert d.action == "split"
        assert "ident" in d.dead_fields     # the unused field

    def test_mcf_hot_fields_stay_hot(self, compiled):
        """§2.4: potential/mark/time must not be split out."""
        d = compiled[MCF.name].decision_for("node")
        for hot in ("potential", "mark", "time", "pred"):
            assert hot not in d.cold_fields

    def test_art_peels_per_field(self, compiled):
        res = compiled[ART.name]
        d = res.decision_for("f1_neuron")
        assert d.action == "peel"
        assert all(len(g) == 1 for g in d.groups)

    def test_moldyn_keeps_force_fields_together(self, compiled):
        res = compiled[MOLDYN.name]
        d = res.decision_for("particle")
        assert d.action == "peel"
        force = {"x", "y", "z", "fx", "fy", "fz"}
        assert any(force <= set(g) for g in d.groups)

    def test_gobmk_transforms_nothing(self, compiled):
        res = compiled["gobmk"]
        assert res.transformed_types() == []

    def test_degrade_benchmarks_split(self, compiled):
        for name in ("cactusADM", "calculix", "h264avc"):
            res = compiled[name]
            assert any(d.action == "split"
                       for d in res.transformed_types()), name

    @pytest.mark.slow
    def test_headline_gains_direction(self):
        for wl, lo, hi in [(MCF, 3.0, 60.0), (ART, 40.0, 250.0),
                           (MOLDYN, 5.0, 60.0)]:
            res = Compiler().compile(wl.program("ref"))
            r0 = run_program(res.program)
            r1 = run_program(res.transformed)
            gain = 100.0 * (r0.cycles / r1.cycles - 1.0)
            assert lo <= gain <= hi, f"{wl.name}: {gain:+.1f}%"


class TestGenerator:
    def test_population_counts_exact(self):
        spec = PopulationSpec(prefix="gen", legal=4, relax_only=6,
                              hard=8)
        src = generate_population(spec)
        p = Program.from_source(src)
        leg = analyze_legality(p)
        analyze_escapes(p, leg)
        assert leg.counts() == (18, 4, 10)

    def test_population_is_runnable(self):
        spec = PopulationSpec(prefix="gen", legal=2, relax_only=3,
                              hard=6)
        src = generate_population(spec)
        src += "\nint main() { __filler_main(); return 0; }\n"
        r = run_program(Program.from_source(src))
        assert r.exit_code == 0

    def test_deterministic(self):
        spec = PopulationSpec(prefix="x", legal=3, relax_only=3, hard=3)
        assert generate_population(spec) == generate_population(spec)

    def test_population_for_row(self):
        pop = population_for_row("p", types=20, legal=5, relaxed=12,
                                 kernel_types=3, kernel_legal=2,
                                 kernel_relaxed=3)
        assert pop.total == 17
        assert pop.legal == 3
        assert pop.relax_only == 6
        assert pop.hard == 8

    def test_inconsistent_row_rejected(self):
        with pytest.raises(ValueError):
            population_for_row("p", types=3, legal=5, relaxed=5)
