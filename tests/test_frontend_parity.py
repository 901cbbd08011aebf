"""Parity of the front end with the character-loop lexer and with
pinned parse trees.

``tests/reference_lexer.py`` is the lexer the one-regex scanner
replaced.  Every token must agree with it on ``(kind, text, line, col,
value)``, and every failing input must fail at the same line and
column, except for the two defects the scanner fixes, each checked by
name below:

- *malformed number*: where the reference lets ``int()`` or
  ``float()`` raise ``ValueError`` (``0x``, ``1e``, ``2.5e+``, a
  non-decimal digit such as ``²``), the scanner raises ``LexError`` at
  the literal;
- *literal spanning lines*: a newline inside a string or character
  literal, which the reference does not count, so every later
  position it reports is off.

The digests pin each workload's unparsed text and record layouts as
the recursive-descent parser produced them before precedence climbing.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import LexError, Program, ast, tokenize
from repro.transform import program_sources
from repro.workloads import ALL_WORKLOADS, PopulationSpec, \
    generate_population

from .reference_lexer import _OPERATORS, tokenize as reference_tokenize


def _key(t):
    return (t.kind, t.text, t.line, t.col, type(t.value), t.value)


def _offset(source: str, line: int, col: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = source.index("\n", start) + 1
    return start + col - 1


def _spans_lines(tokens) -> bool:
    """Does a string or character literal hold a newline?"""
    return any(t.kind in ("str", "char") and "\n" in t.text
               for t in tokens)


def _lex(fn, source):
    try:
        return fn(source), None
    except (LexError, ValueError) as err:
        return None, err


def assert_parity(source: str) -> None:
    want, want_err = _lex(reference_tokenize, source)
    got, got_err = _lex(tokenize, source)
    assert not isinstance(got_err, ValueError), got_err

    if want_err is None:
        assert got_err is None, got_err
        if not _spans_lines(want):
            assert [_key(t) for t in got] == [_key(t) for t in want]
            return
        # literal spanning lines: the same tokens, each at its own
        # place in the source
        assert [_key(t)[:2] + _key(t)[4:] for t in got] == \
            [_key(t)[:2] + _key(t)[4:] for t in want]
        _assert_positions(source, got)
        return

    assert got_err is not None, "the reference fails, the scanner does not"
    off = _offset(source, got_err.line, got_err.col)
    # the error points at a token start the reference fails on as well
    assert _lex(reference_tokenize, source[:off])[1] is None
    head_err = _lex(reference_tokenize, source[off:])[1]
    if isinstance(want_err, ValueError):
        # malformed number: a LexError at the literal
        assert got_err.message.startswith("malformed number")
        assert isinstance(head_err, ValueError)
        return
    assert isinstance(head_err, LexError)
    assert (head_err.line, head_err.col) == (1, 1)
    if not _spans_lines(tokenize(source[:off])):
        assert (got_err.line, got_err.col) == (want_err.line, want_err.col)


def _assert_positions(source: str, tokens) -> None:
    offsets = [_offset(source, t.line, t.col) for t in tokens]
    assert offsets == sorted(offsets)
    for t, off in zip(tokens, offsets):
        assert source.startswith(t.text, off), t


def _corpus():
    for w in ALL_WORKLOADS:
        for input_set in ("train", "ref"):
            for unit, text in w.sources(input_set):
                yield f"{w.name}/{input_set}/{unit}", text
    for legal, relax, hard in ((3, 0, 0), (0, 6, 0), (0, 0, 12),
                               (5, 7, 13)):
        spec = PopulationSpec(prefix=f"p{legal}{relax}{hard}", legal=legal,
                              relax_only=relax, hard=hard)
        yield spec.prefix, generate_population(spec)


CORPUS = dict(_corpus())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_tokens_match_reference(name):
    source = CORPUS[name]
    assert [_key(t) for t in tokenize(source)] == \
        [_key(t) for t in reference_tokenize(source)]


MINIC_CHARS = (
    "abcxyzAEXZ_019 \t\r\n"
    "+-*/%=<>!~&|^?:,;.()[]{}\"'\\#$@"
    "é٣²½Ⅻ"
)

#: pieces that make comments, literals and the malformed numbers likely
FRAGMENTS = [
    "0x", "0X", "0x1F", "1e", "2.5e+", "1.5e-3", ".5", "1.", "10UL",
    "1.5f", "//", "/*", "*/", "\\\n", '"', "'", "\\", "int", "sizeof",
    "->", "...", "<<=", "²", "٣", "½", "Ⅻ", "é", "\n", " ",
]

#: well-formed tokens, run together or apart, for the longest-match
#: rules between operators, numbers and comments
TOKENS = _OPERATORS + [
    "a", "x1", "int", "NULL", "0", "42", "0x1F", "7u", "1.5", ".5e3",
    "3e-2f", "'a'", "'\\n'", '"s\\t"', "// c\n", "/* c */",
]

SOURCES = st.one_of(
    st.text(alphabet=MINIC_CHARS, max_size=40),
    st.lists(st.one_of(st.sampled_from(FRAGMENTS),
                       st.text(alphabet=MINIC_CHARS, max_size=3)),
             max_size=16).map("".join),
    st.lists(st.tuples(st.sampled_from(TOKENS),
                       st.sampled_from(["", "", " ", "\n"])),
             max_size=24).map(lambda parts: "".join(a + b
                                                    for a, b in parts)),
)


@settings(max_examples=400, deadline=None)
@given(SOURCES)
def test_random_sources_match_reference(source):
    assert_parity(source)


class TestNamedDivergences:
    """Each divergence the docstring names, on one input."""

    @pytest.mark.parametrize("source", ["0x", "x = 1e;", "2.5e+", "²",
                                        "1²", ".²"])
    def test_malformed_number(self, source):
        with pytest.raises(ValueError):
            reference_tokenize(source)
        assert_parity(source)

    @pytest.mark.parametrize("source", ['"ab\\\ncd" x', "'\\\n' x",
                                        "'\n' x"])
    def test_literal_spanning_lines(self, source):
        want = reference_tokenize(source)
        got = tokenize(source)
        assert (want[1].line, got[1].line) == (1, 2)
        assert_parity(source)


def _tree_digest(sources) -> str:
    program = Program.from_sources(sources)
    h = hashlib.sha256()
    for name, text in program_sources(program):
        h.update(f"{name}\0{text}\0".encode())
    for tag, rec in sorted(program.records.items()):
        fields = ",".join(f"{f.name}@{f.offset}.{f.bit_offset}"
                          for f in rec.fields)
        h.update(f"{tag}\0{rec.size}\0{fields}\0".encode())
    return h.hexdigest()


TREE_DIGESTS = {
    ("181.mcf", "train"):
        "0e3973aec3433fbd548cd89acffda44dbc8b2cc35498b4ec565b975a648b50eb",
    ("181.mcf", "ref"):
        "820aaaacfd6caeaeb7e12179f456bc23aaac92d51d54d293cd651e82fe65099b",
    ("179.art", "train"):
        "86507dc1ef6662f0b912c71023978de87f608685364ae6b7015793dcfb637e21",
    ("179.art", "ref"):
        "20ca3b31bce8cc1c0740d747dc3309f3214c5ce39be381075f1b12f233c8db18",
    ("milc", "train"):
        "31d1ff234d2c4cf1a2143a395829b7cd195ed4631b128eddf4877e00a573f665",
    ("milc", "ref"):
        "3710078b7fbe4bbe7c3db82f5bc70c5d819007d7de6a0e562848e8c60127570f",
    ("cactusADM", "train"):
        "7c06d6005b78c49a3720d0f58fafecf0ef99873d083c9f48228bcab40506d25f",
    ("cactusADM", "ref"):
        "850d0594c681884028161831d56311f57a526adceb14805b237bf07e6add072b",
    ("gobmk", "train"):
        "0aed7b711ec87447f593141147ce64581af09545e773b07352064beda1edfd60",
    ("gobmk", "ref"):
        "f3d4b33c085679f358227e7879e2cb3e17d4d379ef44da6673837fc1619f31d5",
    ("povray", "train"):
        "eadf422987bdaa2bc49484cec6237740b7ac069225091691440422dce1894fcd",
    ("povray", "ref"):
        "ba94e70dfd813e10a28ebb70cc909ab82e09a45df8ba5c32da65b1353d2abcaf",
    ("calculix", "train"):
        "3d8ff9b725069dc0196c0c86af6610adba0642e61b0ec19f3a0869e4d648903d",
    ("calculix", "ref"):
        "1bccf4c4ee7ba88f638b90b4a099012f8de3a470f0fa604592bb126693841d01",
    ("h264avc", "train"):
        "3034e5c5fd4079432b2d5bb4239b719412130907ea16e4a3f673222a0a53077b",
    ("h264avc", "ref"):
        "10fc650316e5533791577cc88af4c85af6dff7a2c93c76eca63a24345cc232e3",
    ("moldyn", "train"):
        "32ec5fd379e62dec3bbc1ed1b14389a799bfd40baa360f1f8efee084471d5ad7",
    ("moldyn", "ref"):
        "8396806ffed0c9e214c16741baf071be25c44b96be34f9530acef73408bc8f1a",
    ("lucille", "train"):
        "f16e50f7355e92367d54382e97ad8cbddd4b6e0c07a48b07936aadb395725f0b",
    ("lucille", "ref"):
        "347aa5029569fe49f08a05c9197aab28a84342b4fae8fd52c11e513497cf58d0",
    ("sphinx", "train"):
        "4ddc67ee1c2677b3192e5fa3fbdde8700261ac556c137e8cd1e8dd1e0e80276e",
    ("sphinx", "ref"):
        "14eef77c7ad559d63ad49be06dd3216c44cc2852682b572394b046a0d05d27cb",
    ("ssearch", "train"):
        "aaf123b371676bf1caeed12402161f01fbc7a546e7bf3c556c13a358665ba24f",
    ("ssearch", "ref"):
        "71c17204e32b49df6032b110892973c461a860cf7c158e45a5e257dbc8739c4a",
}


@pytest.mark.parametrize("workload, input_set", sorted(TREE_DIGESTS))
def test_parse_tree_digest_pinned(workload, input_set):
    w = next(w for w in ALL_WORKLOADS if w.name == workload)
    assert _tree_digest(w.sources(input_set)) == \
        TREE_DIGESTS[(workload, input_set)]


def test_walker_tables_name_leaf_classes():
    """The AST walkers dispatch on ``type(node)``: a subclass of a class
    their tables name would be walked as having no children."""
    for table in (ast._CHILD_EXPRS, ast._STMT_EXPRS, ast._CHILD_STMTS):
        for cls in table:
            assert cls.__subclasses__() == [], cls
