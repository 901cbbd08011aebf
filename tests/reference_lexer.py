"""The character-loop MiniC lexer, kept as the parity reference.

This is the scanner ``repro.frontend.lexer.tokenize`` replaced, kept
unchanged so the parity tests can compare the production lexer against
it token by token.  It has two known defects the production lexer
fixes: a malformed number (``0x``, ``1e``, ``2.5e+``, a non-decimal
digit such as ``²``) reaches ``int()``/``float()`` and raises
``ValueError``, and a newline inside a string or character literal is
not counted as a line.
"""

from __future__ import annotations

from repro.frontend.lexer import KEYWORDS, LexError, Token


# Longest-match-first multi-character operators.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ",", ";", ".", "(", ")", "[", "]", "{", "}",
]


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize MiniC source, returning a list ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> LexError:
        return LexError(f"{filename}: {msg}", line, col)

    while i < n:
        c = source[i]

        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue

        # comments
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue

        start_line, start_col = line, col

        # identifiers / keywords
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "id"
            tokens.append(Token(kind, text, start_line, start_col))
            col += j - i
            i = j
            continue

        # numbers
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                text = source[i:j]
                value: object = int(text, 16)
            else:
                while j < n and source[j].isdigit():
                    j += 1
                if j < n and source[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and source[j].isdigit():
                        j += 1
                if j < n and source[j] in "eE":
                    is_float = True
                    j += 1
                    if j < n and source[j] in "+-":
                        j += 1
                    while j < n and source[j].isdigit():
                        j += 1
                text = source[i:j]
                value = float(text) if is_float else int(text)
            # suffixes
            while j < n and source[j] in "uUlLfF":
                if source[j] in "fF" and not is_float:
                    break
                j += 1
            full = source[i:j]
            kind = "float" if is_float else "int"
            tokens.append(Token(kind, full, start_line, start_col, value))
            col += j - i
            i = j
            continue

        # character literal
        if c == "'":
            j = i + 1
            if j < n and source[j] == "\\":
                if j + 1 >= n:
                    raise error("unterminated character literal")
                ch = _unescape(source[j + 1])
                j += 2
            elif j < n:
                ch = source[j]
                j += 1
            else:
                raise error("unterminated character literal")
            if j >= n or source[j] != "'":
                raise error("unterminated character literal")
            j += 1
            tokens.append(Token("char", source[i:j], start_line, start_col,
                                ord(ch)))
            col += j - i
            i = j
            continue

        # string literal
        if c == '"':
            j = i + 1
            chars: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    if j + 1 >= n:
                        raise error("unterminated string literal")
                    chars.append(_unescape(source[j + 1]))
                    j += 2
                elif source[j] == "\n":
                    raise error("newline in string literal")
                else:
                    chars.append(source[j])
                    j += 1
            if j >= n:
                raise error("unterminated string literal")
            j += 1
            tokens.append(Token("str", source[i:j], start_line, start_col,
                                "".join(chars)))
            col += j - i
            i = j
            continue

        # operators and punctuation
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, start_line, start_col))
                i += len(op)
                col += len(op)
                break
        else:
            raise error(f"unexpected character {c!r}")

    tokens.append(Token("eof", "", line, col))
    return tokens


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"',
}


def _unescape(ch: str) -> str:
    return _ESCAPES.get(ch, ch)
