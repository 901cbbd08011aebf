"""Pipeline-level tests of the verified relaxation mode (§2.2)."""

from repro.api import Session
from repro.core import CompilerOptions
from repro.runtime import run_program

ATKN_SAFE = """
struct t { long a; long b; long c; };
struct t *g;
int main() {
    int i; int it; long s = 0;
    g = (struct t*) malloc(200 * sizeof(struct t));
    for (i = 0; i < 200; i++) { g[i].a = i; g[i].b = 2 * i; g[i].c = i; }
    long *pa = &g[5].a;          /* ATKN, but field-contained */
    pa[0] = 99;
    for (it = 0; it < 15; it++) {
        for (i = 0; i < 200; i++) {
            long w = 0;
            while (w < 2) { s += g[i].a + g[i].b; w++; }
        }
    }
    for (i = 0; i < 200; i++) s += g[i].c;
    printf("%ld", s);
    return 0;
}
"""


class TestRelaxMode:
    def test_plain_compile_blocks_atkn(self):
        res = Session().compile_source(ATKN_SAFE)
        assert not res.legality.info("t").is_legal()
        assert res.transformed_types() == []

    def test_relax_unblocks_field_safe_type(self):
        res = Session(CompilerOptions(relax_legality=True)).compile_source(
            ATKN_SAFE)
        assert res.legality.info("t").is_legal()
        assert len(res.transformed_types()) == 1

    def test_relaxed_transformation_preserves_output(self):
        res = Session(CompilerOptions(relax_legality=True)).compile_source(
            ATKN_SAFE)
        before = run_program(res.program)
        after = run_program(res.transformed)
        assert before.stdout == after.stdout

    def test_relax_does_not_unblock_collapsed_type(self):
        src = ATKN_SAFE.replace(
            "long *pa = &g[5].a;          /* ATKN, but field-contained */\n"
            "    pa[0] = 99;",
            "long *pa = &g[5].a;\n"
            "    pa = pa + 1;             /* walks into field b */\n"
            "    pa[0] = 99;")
        res = Session(CompilerOptions(relax_legality=True)).compile_source(src)
        assert not res.legality.info("t").is_legal()
        assert res.transformed_types() == []

    def test_relax_does_not_unblock_hard_reasons(self):
        src = ATKN_SAFE.replace(
            'printf("%ld", s);',
            'fwrite(g, sizeof(struct t), 200, NULL); printf("%ld", s);')
        res = Session(CompilerOptions(relax_legality=True)).compile_source(src)
        assert not res.legality.info("t").is_legal()

    def test_relax_mixed_reason_stays_blocked(self):
        """ATKN plus MSET: the relaxable subset alone is insufficient."""
        src = ATKN_SAFE.replace(
            'printf("%ld", s);',
            'memset(g, 0, 200 * sizeof(struct t)); printf("%ld", s);')
        res = Session(CompilerOptions(relax_legality=True)).compile_source(src)
        info = res.legality.info("t")
        assert "MSET" in info.invalid_reasons
        assert "ATKN" in info.invalid_reasons   # not cleared either
