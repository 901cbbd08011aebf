"""Heuristics-engine tests: §2.4 decision rules and the grouping cost
model."""

import pytest

from repro.frontend import Program
from repro.transform.heuristics import (
    HeuristicParams, TransformDecision, decide_transforms,
    apply_decisions, peel_groups, split_threshold, grouping_cost,
    candidate_groupings, piece_size,
)
from repro.core.pipeline import Compiler, CompilerOptions
from repro.runtime import run_program


def compiled(src, **opt_kw):
    return Compiler(CompilerOptions(**opt_kw) if opt_kw else None).compile(
        Program.from_source(src))


HOT_COLD = """
struct rec { long hot1; long hot2; long cold1; long cold2; long cold3; };
struct rec *R;
int main() {
    int i; int it; long s = 0;
    R = (struct rec*) malloc(100 * sizeof(struct rec));
    for (i = 0; i < 100; i++) {
        R[i].hot1 = i; R[i].hot2 = i; R[i].cold1 = i;
        R[i].cold2 = i; R[i].cold3 = i;
    }
    for (it = 0; it < 20; it++) {
        for (i = 0; i < 100; i++) {
            long w = 0;
            while (w < 2) { s += R[i].hot1 + R[i].hot2; w++; }
        }
    }
    for (i = 0; i < 100; i++) s += R[i].cold1 + R[i].cold2 + R[i].cold3;
    printf("%ld", s);
    return 0;
}
"""


class TestThresholds:
    def test_split_threshold_by_scheme(self):
        params = HeuristicParams()
        assert split_threshold("PBO", params) == 3.0
        assert split_threshold("PPBO", params) == 3.0
        assert split_threshold("ISPBO", params) == 7.5
        assert split_threshold("SPBO", params) == 7.5


class TestDecisions:
    def test_peelable_hot_cold_type_is_peeled(self):
        res = compiled(HOT_COLD)
        d = res.decision_for("rec")
        assert d.action == "peel"
        assert d.pointer == "R"

    def test_split_when_not_peelable(self):
        src = HOT_COLD.replace(
            "struct rec *R;", "struct rec *R; struct rec *alias;")
        res = compiled(src)
        d = res.decision_for("rec")
        assert d.action == "split"
        assert set(d.cold_fields) == {"cold1", "cold2", "cold3"}

    def test_illegal_type_untouched(self):
        src = HOT_COLD.replace(
            'printf("%ld", s);',
            'fwrite(R, sizeof(struct rec), 100, NULL); '
            'printf("%ld", s);')
        res = compiled(src)
        d = res.decision_for("rec")
        assert d.action == "none"
        assert "illegal" in d.notes[0]

    def test_not_allocated_untouched(self):
        src = """
        struct rec { long a; long b; };
        struct rec g;
        int main() { g.a = 1; return (int) g.a; }
        """
        res = compiled(src)
        assert res.decision_for("rec").action == "none"

    def test_single_object_allocation_untouched(self):
        src = """
        struct rec { long a; long b; };
        struct rec *g;
        int main() {
            g = (struct rec*) malloc(sizeof(struct rec));
            g->a = 1;
            return 0;
        }
        """
        res = compiled(src)
        assert res.decision_for("rec").action == "none"

    def test_realloc_untouched(self):
        src = """
        struct rec { long a; long b; };
        struct rec *g;
        int main() {
            g = (struct rec*) malloc(8 * sizeof(struct rec));
            g = (struct rec*) realloc(g, 16 * sizeof(struct rec));
            g[0].a = 1;
            return 0;
        }
        """
        res = compiled(src)
        d = res.decision_for("rec")
        assert d.action == "none"
        assert any("realloc" in n for n in d.notes)

    def test_one_cold_field_not_split(self):
        """A single cold field cannot amortize the link pointer."""
        src = HOT_COLD.replace(
            "struct rec *R;", "struct rec *R; struct rec *alias;") \
            .replace("s += R[i].cold1 + R[i].cold2 + R[i].cold3;",
                     "s += R[i].cold1;") \
            .replace("R[i].cold2 = i; R[i].cold3 = i;", "")
        # cold2/cold3 become dead: removed, but only cold1 is cold-live
        res = compiled(src)
        d = res.decision_for("rec")
        assert d.action in ("dead", "none")

    def test_dead_bitfield_kept_by_default(self):
        src = """
        struct rec { long used; int flags : 3; long pad; };
        struct rec *g;
        int main() {
            int i;
            g = (struct rec*) malloc(8 * sizeof(struct rec));
            for (i = 0; i < 8; i++) { g[i].used = i; g[i].flags = 1; }
            long s = 0;
            for (i = 0; i < 8; i++) s += g[i].used + g[i].pad;
            printf("%ld", s);
            return 0;
        }
        """
        res = compiled(src)
        d = res.decision_for("rec")
        assert "flags" not in d.dead_fields

    def test_fields_affected_counts(self):
        d = TransformDecision(type_name="t", action="split",
                              cold_fields=["a", "b"],
                              dead_fields=["c"])
        assert d.fields_affected == 3


class TestCostModel:
    def test_piece_size_includes_padding(self):
        p = Program.from_source(
            "struct s { char c; double d; long l; }; "
            "int main() { struct s v; v.c = 1; return v.c; }")
        rec = p.record("s")
        assert piece_size(rec, ["c", "d"]) == 16
        assert piece_size(rec, ["c"]) == 1

    def test_sequential_favors_dense_pieces(self):
        res = compiled(HOT_COLD)
        prof = res.profiles["rec"]
        live = [f.name for f in prof.record.fields]
        params = HeuristicParams()
        one = grouping_cost(prof, [live])
        per_field = grouping_cost(prof, [[f] for f in live])
        # sequential sweeps: smaller pieces mean less line traffic
        assert per_field < one
        _ = params

    def test_random_access_favors_grouping(self):
        src = """
        struct t { double x; double y; };
        struct idx { long at; };
        struct t *data;
        struct idx *order;
        int main() {
            int k; int it; double s = 0.0;
            data = (struct t*) malloc(64 * sizeof(struct t));
            order = (struct idx*) malloc(64 * sizeof(struct idx));
            for (k = 0; k < 64; k++) order[k].at = (k * 7) % 64;
            for (it = 0; it < 9; it++)
                for (k = 0; k < 64; k++) {
                    s += data[order[k].at].x * data[order[k].at].y;
                }
            printf("%.1f", s);
            return 0;
        }
        """
        res = compiled(src)
        prof = res.profiles["t"]
        grouped = grouping_cost(prof, [["x", "y"]])
        per_field = grouping_cost(prof, [["x"], ["y"]])
        assert grouped < per_field

    def test_candidate_groupings_cover_live_fields(self):
        res = compiled(HOT_COLD)
        prof = res.profiles["rec"]
        live = [f.name for f in prof.record.fields]
        cands = candidate_groupings(prof, live, [], HeuristicParams())
        for grouping in cands.values():
            flat = sorted(f for g in grouping for f in g)
            assert flat == sorted(live)

    def test_peel_modes(self):
        res = compiled(HOT_COLD)
        prof = res.profiles["rec"]
        live = [f.name for f in prof.record.fields]
        cold = ["cold1", "cold2", "cold3"]
        pf = peel_groups(prof, live, cold,
                         HeuristicParams(peel_mode="per-field"))
        assert pf == [[f] for f in live]
        hc = peel_groups(prof, live, cold,
                         HeuristicParams(peel_mode="hot-cold"))
        assert hc == [["hot1", "hot2"], cold]

    def test_unknown_mode_raises(self):
        res = compiled(HOT_COLD)
        prof = res.profiles["rec"]
        from repro.transform.common import TransformError
        with pytest.raises(TransformError):
            peel_groups(prof, ["hot1"], [],
                        HeuristicParams(peel_mode="bogus"))


class TestApplyDecisions:
    def test_apply_preserves_semantics(self):
        res = compiled(HOT_COLD)
        r0 = run_program(res.program)
        r1 = run_program(res.transformed)
        assert r0.stdout == r1.stdout

    def test_no_decisions_identity(self):
        p = Program.from_source("int main() { return 0; }")
        assert apply_decisions(p, []) is p

    def test_multiple_types_transformed_in_sequence(self):
        src = """
        struct a { double x; double y; };
        struct b { long p; long q; long r; };
        struct a *A;
        struct b *B;
        int main() {
            int i; int it; double s = 0.0;
            A = (struct a*) malloc(50 * sizeof(struct a));
            B = (struct b*) malloc(50 * sizeof(struct b));
            for (i = 0; i < 50; i++) {
                A[i].x = i * 0.5; A[i].y = 0.0;
                B[i].p = i; B[i].q = -i; B[i].r = 2 * i;
            }
            for (it = 0; it < 10; it++)
                for (i = 0; i < 50; i++)
                    s += A[i].x + (double) B[i].p;
            printf("%.1f", s);
            return 0;
        }
        """
        res = compiled(src)
        transformed = [d for d in res.decisions if d.transformed]
        assert len(transformed) >= 2
        assert run_program(res.program).stdout == \
            run_program(res.transformed).stdout


class TestStandaloneReorder:
    """The §5 extension: opt-in field reordering without splitting."""

    BIG = """
    struct wide {
        long c0; long hot_a; long c1; long c2; long c3; long c4;
        long c5; long c6; long c7; long c8; long c9; long c10;
        long c11; long c12; long c13; long c14; long c15; long hot_b;
    };
    struct wide *W;
    struct wide *W2;
    int main() {
        int i; int it; long s = 0;
        W = (struct wide*) malloc(400 * sizeof(struct wide));
        W2 = W;
        for (i = 0; i < 400; i++) { W2[i].hot_a = i; W2[i].hot_b = -i;
            W2[i].c0 = i; W2[i].c7 = i; W2[i].c15 = i; }
        for (it = 0; it < 12; it++) {
            for (i = 0; i < 400; i++) {
                long at = (i * 31) % 400;
                s += W[at].hot_a * W[at].hot_b;
            }
            /* the filler fields stay warm (above T_s) but not hot:
               no split, no dead removal — reordering is all there is */
            for (i = 0; i < 400; i += 8) {
                s += W[i].c0 + W[i].c1 + W[i].c2 + W[i].c3 + W[i].c4
                    + W[i].c5 + W[i].c6 + W[i].c7 + W[i].c8 + W[i].c9
                    + W[i].c10 + W[i].c11 + W[i].c12 + W[i].c13
                    + W[i].c14 + W[i].c15;
            }
        }
        printf("%ld", s);
        return 0;
    }
    """

    def test_disabled_by_default(self):
        res = compiled(self.BIG)
        d = res.decision_for("wide")
        assert d.action != "reorder"

    def test_reorders_when_enabled(self):
        res = compiled(self.BIG,
                       params=HeuristicParams(standalone_reorder=True))
        d = res.decision_for("wide")
        assert d.action == "reorder"
        new = res.transformed.record("wide")
        # hot fields packed onto the leading cache line
        assert new.field("hot_a").offset < 128
        assert new.field("hot_b").offset < 128

    def test_semantics_preserved(self):
        res = compiled(self.BIG,
                       params=HeuristicParams(standalone_reorder=True))
        assert run_program(res.program).stdout == \
            run_program(res.transformed).stdout

    def test_reorder_pays_off(self):
        res = compiled(self.BIG,
                       params=HeuristicParams(standalone_reorder=True))
        before = run_program(res.program)
        after = run_program(res.transformed)
        assert after.cycles < before.cycles
