"""Malformed input: the frontend degrades gracefully and the CLI
reports structured errors with the right exit codes."""

import pytest

from repro.api import LADDER, CompileRequest, Session
from repro.cli import main
from repro.frontend import ParseError, Program, tokenize
from repro.frontend.parser import Parser

TWO_ERRORS = """
struct a { long x  long y; };
struct b { long z; };
int ok(void) { return 1; }
int broken(void) { return 1 + ; }
int main() { printf("%d\\n", ok()); return 0; }
"""

TRUNCATED = "struct s { long a;\n"

STRAY_CHAR = "int x = 1 $ 2;\n"
MALFORMED_NUMBER = "int main() { int x = 0x; return 0; }\n"


def _errors(reply) -> list[tuple]:
    return [(d["unit"], d["line"], d["message"])
            for d in reply.diagnostics if d["severity"] == "error"]


class TestParserRecovery:
    def test_default_still_raises(self):
        with pytest.raises(ParseError):
            Program.from_source(TWO_ERRORS)

    def test_recovery_collects_every_error(self):
        program = Program.from_source(TWO_ERRORS, recover=True)
        assert len(program.frontend_errors) == 2
        lines = sorted(e.line for e in program.frontend_errors)
        assert lines == [2, 5]

    def test_recovery_keeps_good_decls(self):
        program = Program.from_source(TWO_ERRORS, recover=True)
        unit = program.units[0]
        names = [f.name for f in unit.functions()]
        assert "ok" in names
        assert "main" in names
        assert any(r.name == "b" for r in unit.records())

    def test_truncated_struct_reported(self):
        program = Program.from_source(TRUNCATED, recover=True)
        assert len(program.frontend_errors) == 1

    def test_parser_error_list(self):
        tokens = tokenize(TWO_ERRORS, "u.c")
        parser = Parser(tokens, "u.c", recover=True)
        parser.parse_translation_unit()
        assert len(parser.errors) == 2
        assert all(isinstance(e, ParseError) for e in parser.errors)


class TestDegenerateSources:
    def test_empty_file(self):
        program = Program.from_source("", recover=True)
        assert program.frontend_errors == []
        assert program.units[0].functions() == []

    def test_comments_only_file(self):
        src = "/* nothing here */\n// or here\n"
        program = Program.from_source(src, recover=True)
        assert program.frontend_errors == []
        assert program.units[0].functions() == []


class TestCliErrors:
    def test_missing_file_exits_2(self, capsys):
        rc = main(["analyze", "/nonexistent/missing.c"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1

    def test_directory_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_two_error_source_reports_both(self, tmp_path, capsys):
        p = tmp_path / "bad.c"
        p.write_text(TWO_ERRORS)
        assert main(["analyze", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.count("repro: error: bad.c:") == 2

    def test_empty_file_compiles_clean(self, tmp_path, capsys):
        p = tmp_path / "empty.c"
        p.write_text("")
        assert main(["analyze", str(p)]) == 0
        assert "record types: 0" in capsys.readouterr().out

    def test_comments_only_file_compiles_clean(self, tmp_path, capsys):
        p = tmp_path / "c.c"
        p.write_text("/* just a comment */\n")
        assert main(["analyze", str(p)]) == 0

    def test_truncated_struct_exits_1(self, tmp_path, capsys):
        p = tmp_path / "t.c"
        p.write_text(TRUNCATED)
        assert main(["analyze", str(p)]) == 1
        assert "repro: error: t.c:" in capsys.readouterr().err


class TestLexDiagnostics:
    """A lex error is reported like a parse error: the diagnostic
    carries the unit and line, its message names neither."""

    def test_session_diagnostic(self):
        reply = Session().execute(CompileRequest(
            op="analyze", sources=[("a.c", STRAY_CHAR)]))
        assert _errors(reply) == \
            [("a.c", 1, "unexpected character '$' at column 11")]

    # compare's full tier also runs the program, and a unit with errors
    # is dropped from it
    @pytest.mark.parametrize("op, tier", [
        (op, tier) for op, tiers in sorted(LADDER.items())
        for tier in tiers if (op, tier) != ("compare", "full")])
    def test_malformed_number_is_a_diagnostic_at_every_tier(self, op,
                                                            tier):
        reply = Session().execute(CompileRequest(
            op=op, sources=[("b.c", MALFORMED_NUMBER)]), tier=tier)
        assert _errors(reply) == \
            [("b.c", 1, "malformed number '0x' at column 22")]

    def test_cli_prints_the_location_once(self, tmp_path, capsys):
        p = tmp_path / "a.c"
        p.write_text(STRAY_CHAR)
        assert main(["analyze", str(p)]) == 1
        err = capsys.readouterr().err
        assert [ln for ln in err.splitlines()
                if ln.startswith("repro: error: a.c:")] == \
            ["repro: error: a.c:1: unexpected character '$' at column 11"]

    def test_cli_malformed_number_exits_1(self, tmp_path, capsys):
        p = tmp_path / "b.c"
        p.write_text(MALFORMED_NUMBER)
        assert main(["analyze", str(p)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [ln for ln in err.splitlines()
                if ln.startswith("repro: error: b.c:")] == \
            ["repro: error: b.c:1: malformed number '0x' at column 22"]
