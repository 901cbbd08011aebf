"""Unit tests for the diagnostics engine and the CLI's structured
error reporting (``--strict``, ``--no-verify``, exit codes)."""

import pytest

from repro.api import _first_divergence
from repro.cli import OptionBundle, _options, main
from repro.core import (
    CODE_CONTAINED, CODE_ROLLBACK, CompilerOptions, Diagnostic,
    DiagnosticEngine, FatalCompilerError, SourceLoc, inject_fault,
)

# ---------------------------------------------------------------------------
# Diagnostic / SourceLoc
# ---------------------------------------------------------------------------


class TestDiagnostic:
    def test_format_full(self):
        d = Diagnostic("warning", "legality", "pass crashed",
                       loc=SourceLoc("a.c", 7), type_name="node",
                       code=CODE_CONTAINED, action="fix the pass")
        assert d.format() == ("repro: warning: a.c:7: [legality] "
                              "struct node: pass crashed (fix the pass)")

    def test_format_minimal(self):
        d = Diagnostic("note", "verify", "skipped")
        assert d.format() == "repro: note: [verify] skipped"

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("catastrophe", "x", "y")

    def test_sourceloc_rendering(self):
        assert str(SourceLoc()) == ""
        assert str(SourceLoc("a.c")) == "a.c"
        assert str(SourceLoc("a.c", 3)) == "a.c:3"
        assert str(SourceLoc(None, 3)) == "<input>:3"


class TestEngine:
    def test_emit_and_query(self):
        eng = DiagnosticEngine()
        eng.note("fe", "hello")
        eng.warning("legality", "contained", code=CODE_CONTAINED)
        eng.error("parse", "broken", unit="a.c", line=2)
        assert len(eng) == 3
        assert not eng.by_severity("fatal")
        assert len(eng.warnings()) == 1
        assert len(eng.errors()) == 1
        assert eng.has_errors
        assert [d.phase for d in eng.by_phase("legality")] == \
            ["legality"]
        assert eng.by_code(CODE_CONTAINED)
        assert eng.contained()
        assert eng.rollbacks() == []

    def test_render_severity_floor(self):
        eng = DiagnosticEngine()
        eng.note("fe", "minor")
        eng.error("parse", "major")
        out = eng.render("warning")
        assert "major" in out and "minor" not in out
        assert "minor" in eng.render("note")

    def test_merge(self):
        a, b = DiagnosticEngine(), DiagnosticEngine()
        b.warning("be", "w")
        a.merge(b)
        assert len(a) == 1

    def test_overflow_cap(self):
        eng = DiagnosticEngine(max_diagnostics=2)
        for i in range(5):
            eng.note("fe", f"n{i}")
        assert len(eng) == 2
        assert "suppressed" in eng.render()

    def test_summary(self):
        eng = DiagnosticEngine()
        eng.error("parse", "x")
        eng.warning("be", "y")
        assert eng.summary() == "1 error(s), 1 warning(s), 0 note(s)"


class TestDeduplication:
    """Identical repeats (retry attempts re-reporting the same fault)
    collapse into one entry with an occurrence count."""

    def test_identical_repeats_collapse(self):
        eng = DiagnosticEngine()
        for _ in range(3):
            eng.warning("apply", "pass failed", unit="a.c", line=4,
                        code=CODE_CONTAINED)
        assert len(eng) == 1
        assert eng.diagnostics[0].count == 3
        assert "[x3]" in eng.render()

    def test_different_location_not_collapsed(self):
        eng = DiagnosticEngine()
        eng.error("parse", "bad token", unit="a.c", line=1)
        eng.error("parse", "bad token", unit="a.c", line=2)
        eng.error("parse", "bad token", unit="b.c", line=1)
        assert len(eng) == 3
        assert all(d.count == 1 for d in eng)

    def test_different_severity_or_code_not_collapsed(self):
        eng = DiagnosticEngine()
        eng.warning("legality", "demoted")
        eng.note("legality", "demoted")
        eng.warning("legality", "demoted", code=CODE_CONTAINED)
        assert len(eng) == 3

    def test_emit_returns_the_collapsed_entry(self):
        eng = DiagnosticEngine()
        first = eng.warning("be", "w")
        second = eng.warning("be", "w")
        assert first is second
        assert first.count == 2

    def test_merge_deduplicates(self):
        a, b = DiagnosticEngine(), DiagnosticEngine()
        a.warning("be", "w")
        b.warning("be", "w")
        b.warning("be", "other")
        a.merge(b)
        assert len(a) == 2
        assert a.diagnostics[0].count == 2

    def test_count_survives_the_wire_format(self):
        eng = DiagnosticEngine()
        eng.warning("apply", "pass failed", unit="a.c", line=4)
        eng.warning("apply", "pass failed", unit="a.c", line=4)
        blob = eng.diagnostics[0].to_dict()
        back = Diagnostic.from_dict(blob)
        assert back.count == 2
        assert back.loc.unit == "a.c" and back.loc.line == 4
        assert "[x2]" in back.format()

    def test_no_single_count_marker(self):
        d = Diagnostic("note", "verify", "skipped")
        assert "[x" not in d.format()


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

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


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


class TestOptionsBundle:
    def test_named_tuple_fields(self, demo_file):
        args = main.__globals__["build_parser"]().parse_args(
            ["analyze", demo_file])
        bundle = _options(args)
        assert isinstance(bundle, OptionBundle)
        assert isinstance(bundle.options, CompilerOptions)
        assert bundle.feedback is None

    def test_verify_default_per_command(self, demo_file):
        parser = main.__globals__["build_parser"]()
        for cmd, want in [("analyze", False), ("transform", True),
                          ("compare", True)]:
            args = parser.parse_args([cmd, demo_file])
            assert _options(args).options.verify_transforms is want

    def test_no_verify_flag(self, demo_file):
        parser = main.__globals__["build_parser"]()
        args = parser.parse_args(["transform", "--no-verify",
                                  demo_file])
        assert _options(args).options.verify_transforms is False


class TestCliDiagnostics:
    def test_contained_fault_printed_and_exit_0(self, demo_file,
                                                capsys):
        with inject_fault("legality", "raise"):
            rc = main(["analyze", demo_file])
        assert rc == 0       # degraded, not failed
        err = capsys.readouterr().err
        assert "repro: warning:" in err
        assert "legality" in err

    def test_strict_flag_exits_1(self, demo_file, capsys):
        with inject_fault("legality", "raise"):
            rc = main(["analyze", "--strict", demo_file])
        assert rc == 1
        assert "repro: fatal:" in capsys.readouterr().err

    def test_transform_with_verification(self, demo_file, capsys):
        assert main(["transform", demo_file]) == 0
        out = capsys.readouterr().out
        assert "struct item" in out

    def test_compare_rolls_back_broken_transform(self, tmp_path,
                                                 capsys):
        src = tmp_path / "trap.c"
        src.write_text("""
struct pt { long a; long b; long c; long d; };
struct pt *P;
int main() {
    long *raw; long s = 0; int i; int it;
    P = (struct pt*) malloc(16 * sizeof(struct pt));
    for (i = 0; i < 16; i++) {
        P[i].a = i; P[i].b = 2 * i; P[i].c = 100 + i;
        P[i].d = 200 + i;
    }
    for (it = 0; it < 20; it++)
        for (i = 0; i < 16; i++) s += P[i].a + P[i].b;
    for (i = 0; i < 16; i++) s += P[i].c - P[i].d;
    raw = (long *) P;
    s += raw[2];
    printf("s=%ld\\n", s);
    return 0;
}
""")
        with inject_fault("legality", "corrupt"):
            rc = main(["compare", "--ts", "30", str(src)])
        captured = capsys.readouterr()
        assert rc == 0                    # verified result is correct
        assert "rolled back: pt" in captured.out
        assert "rolled back split" in captured.err

    def test_compare_mismatch_reports_diverging_line(self, tmp_path,
                                                     capsys):
        # same trap, but verification disabled: compare must catch it
        src = tmp_path / "trap.c"
        src.write_text("""
struct pt { long a; long b; long c; long d; };
struct pt *P;
int main() {
    long *raw; long s = 0; int i; int it;
    P = (struct pt*) malloc(16 * sizeof(struct pt));
    for (i = 0; i < 16; i++) {
        P[i].a = i; P[i].b = 2 * i; P[i].c = 100 + i;
        P[i].d = 200 + i;
    }
    for (it = 0; it < 20; it++)
        for (i = 0; i < 16; i++) s += P[i].a + P[i].b;
    for (i = 0; i < 16; i++) s += P[i].c - P[i].d;
    raw = (long *) P;
    s += raw[2];
    printf("s=%ld\\n", s);
    return 0;
}
""")
        with inject_fault("legality", "corrupt"):
            rc = main(["compare", "--ts", "30", "--no-verify",
                       str(src)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "output-mismatch" not in err   # code is machine field
        assert "changed program output" in err
        assert "line 1:" in err


class TestFirstDivergence:
    def test_diverging_line(self):
        assert _first_divergence("a\nb\nc", "a\nX\nc") == \
            "line 2: 'b' != 'X'"

    def test_truncation(self):
        assert _first_divergence("a\nb", "a") == \
            "line 2: output truncated (2 vs 1 lines)"
