"""Tokenizer for the MiniC language.

MiniC is the C subset the reproduction compiles: enough of C to express
the paper's benchmarks and to exercise every legality test (casts,
address-of-field, libc escapes, indirect calls, memset/memcpy, nested
structs, bit-fields).  There is no preprocessor; ``//`` and ``/* */``
comments are skipped.

The scanner is one compiled regular expression with a named group per
token class.  ``tokenize`` walks its matches from the start of the
source and dispatches on the group that matched; a token's column is
its offset from the start of its line.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass


class LexError(Exception):
    """A lexical error.  Like :attr:`ParseError.message
    <repro.frontend.parser.ParseError.message>`, :attr:`message` names
    neither the unit nor the line, which the diagnostic carries; it
    ends with the column."""

    def __init__(self, message: str, line: int, col: int,
                 unit: str = "<input>"):
        super().__init__(f"{unit}:{line}:{col}: {message}")
        self.message = f"{message} at column {col}"
        self.line = line
        self.col = col


KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed", "struct", "typedef", "if", "else", "while",
    "do", "for", "return", "break", "continue", "sizeof", "static",
    "const", "extern", "NULL",
})


@dataclass(slots=True)
class Token:
    kind: str          # 'id', 'kw', 'int', 'float', 'char', 'str', 'op', 'eof'
    text: str
    line: int
    col: int
    value: object = None

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


# One alternative per token class, tried in order after the blanks
# that lead up to the token.  Operators are longest-match-first; a
# ``/`` that opens a comment and a ``.`` that opens a number are left
# to the alternatives after them.  An identifier may only start on a
# character ``str.isalpha()`` accepts or ``_``: ``\w`` also takes
# digits such as ``²`` and numerals such as ``½``, so non-ASCII starts
# go through ``uid`` and are checked there.
_SCAN = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<nl>\n)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<op><<=|>>=|\.\.\.|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
             |[-+*/%&|^]=|/(?![/*])|\.(?!\d)|[-+*%=<>!~&|^?:,;()\[\]{}])
    | (?P<hex>0[xX][0-9a-fA-F]*[uUlL]*)
    | (?P<int>\d+(?![.eE\d])[uUlL]*)
    | (?P<float>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d*)?[uUlLfF]*
               |\d+[eE][+-]?\d*[uUlLfF]*)
    | (?P<lcomment>//[^\n]*)
    | (?P<bcomment>/\*(?:.*?\*/)?)
    | (?P<str>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
    | (?P<char>'(?:\\.|[^\\])')
    | (?P<uid>[^\W\d]\w*)
    | (?P<bad>[^ \t\r])
    )
""", re.VERBOSE | re.DOTALL)

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"',
}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m[1], m[1])


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize MiniC source, returning a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    intern = sys.intern
    line = 1
    line_start = 0          # offset of the current line's first char
    m = None

    for m in _SCAN.finditer(source):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        text = m[kind]
        pos = m.end() - len(text)
        col = pos - line_start + 1
        if kind == "id":
            append(Token("kw" if text in keywords else "id", text,
                         line, col))
        elif kind == "op":
            # one string object per operator, as a fixed table gave: the
            # trees built from it pickle to the same bytes
            append(Token("op", intern(text), line, col))
        elif kind == "int":
            append(Token("int", text, line, col,
                         int(text.rstrip("uUlL"))))
        elif kind == "lcomment":
            continue
        elif kind == "bcomment":
            if len(text) == 2:
                raise LexError("unterminated block comment", line, col,
                               filename)
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = pos + text.rfind("\n") + 1
        elif kind == "hex":
            digits = text.rstrip("uUlL")
            if len(digits) == 2:
                raise LexError(f"malformed number {text!r}", line, col,
                               filename)
            append(Token("int", text, line, col, int(digits, 16)))
        elif kind == "float":
            digits = text.rstrip("uUlLfF")
            if digits[-1] in "eE+-":
                raise LexError(f"malformed number {text!r}", line, col,
                               filename)
            append(Token("float", text, line, col, float(digits)))
        elif kind == "str" or kind == "char":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            append(Token(kind, text, line, col,
                         ord(body) if kind == "char" else body))
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = pos + text.rfind("\n") + 1
        else:
            # uid / bad: an identifier that starts on a non-ASCII
            # letter, or a lex error
            if not text[0].isalpha():
                raise _odd_token_error(source, pos, line, col, tokens,
                                       line_start, filename)
            append(Token("id", text, line, col))

    end = len(source)
    if m is not None and m.lastgroup == "lcomment":
        end = m.start("lcomment")
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


def _odd_token_error(source: str, pos: int, line: int, col: int,
                     tokens: list[Token], line_start: int,
                     filename: str) -> LexError:
    """The error for a token at ``pos`` that starts on a character no
    token class accepts."""
    c = source[pos]
    if c.isdigit():
        # a digit that is not decimal, such as ``²``: a malformed
        # number.  When a number or a ``.`` ends right here, the
        # literal started there.
        start = pos
        prev = tokens[-1] if tokens else None
        if (prev is not None and prev.line == line
                and line_start + prev.col - 1 + len(prev.text) == pos
                and (prev.kind == "float"
                     or (prev.kind == "int"
                         and prev.text[:2] not in ("0x", "0X"))
                     or prev.text == ".")
                and prev.text[-1] not in "uUlLfF"):
            col = prev.col
            start -= len(prev.text)
        return LexError(f"malformed number {source[start:pos + 1]!r}",
                        line, col, filename)
    if c == '"':
        return LexError(_string_error(source, pos), line, col, filename)
    if c == "'":
        return LexError("unterminated character literal", line, col,
                        filename)
    return LexError(f"unexpected character {c!r}", line, col, filename)


def _string_error(source: str, pos: int) -> str:
    """Why the string literal opening at ``pos`` does not close."""
    j = pos + 1
    n = len(source)
    while j < n and source[j] != '"':
        if source[j] == "\\":
            j += 2
        elif source[j] == "\n":
            return "newline in string literal"
        else:
            j += 1
    return "unterminated string literal"
