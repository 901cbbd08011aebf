"""Lexer tests."""

import pytest

from repro.frontend.lexer import tokenize, LexError, Token


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


class TestBasics:
    def test_empty_input_gives_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_identifier(self):
        toks = tokenize("foo_bar42")
        assert toks[0].kind == "id"
        assert toks[0].text == "foo_bar42"

    def test_keyword_vs_identifier(self):
        assert kinds("int intx") == ["kw", "id"]

    def test_all_keywords_recognized(self):
        for kw in ("void", "char", "short", "int", "long", "float",
                   "double", "unsigned", "struct", "typedef", "if",
                   "else", "while", "do", "for", "return", "break",
                   "continue", "sizeof", "static", "const", "NULL"):
            assert tokenize(kw)[0].kind == "kw", kw

    def test_underscore_identifier(self):
        assert tokenize("__cold_link")[0].kind == "id"


class TestNumbers:
    def test_decimal_int(self):
        tok = tokenize("12345")[0]
        assert tok.kind == "int"
        assert tok.value == 12345

    def test_hex_int(self):
        tok = tokenize("0xFF")[0]
        assert tok.value == 255

    def test_float_with_point(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == "float"
        assert tok.value == 3.25

    def test_float_with_exponent(self):
        tok = tokenize("1e3")[0]
        assert tok.kind == "float"
        assert tok.value == 1000.0

    def test_float_negative_exponent(self):
        tok = tokenize("2.5e-2")[0]
        assert tok.value == 0.025

    def test_leading_dot_float(self):
        tok = tokenize(".5")[0]
        assert tok.kind == "float"
        assert tok.value == 0.5

    def test_integer_suffixes(self):
        toks = tokenize("10L 10UL 10u")
        assert [t.value for t in toks[:-1]] == [10, 10, 10]

    def test_zero(self):
        assert tokenize("0")[0].value == 0


class TestStringsAndChars:
    def test_string_literal(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind == "str"
        assert tok.value == "hello"

    def test_string_with_escapes(self):
        tok = tokenize(r'"a\nb\tc\"d"')[0]
        assert tok.value == 'a\nb\tc"d'

    def test_char_literal(self):
        tok = tokenize("'A'")[0]
        assert tok.kind == "char"
        assert tok.value == 65

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == 10

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')


class TestOperators:
    def test_multichar_operators_longest_match(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a++ + ++b") == ["a", "++", "+", "++", "b"]

    def test_comparison_operators(self):
        assert texts("a <= b >= c == d != e") == \
            ["a", "<=", "b", ">=", "c", "==", "d", "!=", "e"]

    def test_logical_operators(self):
        assert texts("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]

    def test_compound_assignment(self):
        assert texts("a += b -= c *= d") == \
            ["a", "+=", "b", "-=", "c", "*=", "d"]

    def test_ellipsis(self):
        assert texts("int, ...") == ["int", ",", "..."]

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestCommentsAndPositions:
    def test_line_comment_skipped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert toks[0].line == 1
        assert toks[1].line == 2
        assert toks[2].line == 3
        assert toks[2].col == 3

    def test_line_number_after_block_comment(self):
        toks = tokenize("/* one\ntwo */ x")
        assert toks[0].line == 2

    def test_token_repr(self):
        assert "id" in str(Token("id", "x", 1, 1))


class TestMalformedNumbers:
    @pytest.mark.parametrize("literal", ["0x", "0X", "1e", "2.5e+", "²"])
    def test_raises_lex_error_at_the_literal(self, literal):
        with pytest.raises(LexError) as info:
            tokenize(f"int main() {{\n    int x = {literal};\n}}\n")
        err = info.value
        assert (err.line, err.col) == (2, 13)
        assert err.message == f"malformed number {literal!r} at column 13"

    def test_non_decimal_digit_after_digits(self):
        with pytest.raises(LexError) as info:
            tokenize("x = 12²;")
        assert (info.value.line, info.value.col) == (1, 5)


class TestLiteralsSpanningLines:
    def test_backslash_newline_in_string_counts_a_line(self):
        toks = tokenize('char *s = "ab\\\ncd";\nint x;')
        lit = toks[4]
        assert (lit.kind, lit.value, lit.line, lit.col) == \
            ("str", "ab\ncd", 1, 11)
        assert [(t.text, t.line, t.col) for t in toks[5:8]] == \
            [(";", 2, 4), ("int", 3, 1), ("x", 3, 5)]

    def test_backslash_newline_in_char_counts_a_line(self):
        toks = tokenize("c = '\\\n'; d")
        assert (toks[2].kind, toks[2].value) == ("char", 10)
        assert [(t.text, t.line, t.col) for t in toks[3:5]] == \
            [(";", 2, 2), ("d", 2, 4)]
