"""Unparser tests: rendered source must re-parse to an equivalent
program, and transformed programs are only ever produced through this
path."""

from hypothesis import given, strategies as st

from repro.frontend import Program, ast
from repro.frontend.parser import BINARY_PRECEDENCE, parse_expr
from repro.runtime import run_program
from repro.transform.unparse import (
    expr_text, unit_text, program_sources, type_decl, struct_definition,
)
from repro.frontend.typesys import (
    INT, LONG, DOUBLE, PointerType, ArrayType, FunctionType, RecordType,
    Field,
)


class TestTypeDecl:
    def test_scalar(self):
        assert type_decl(INT, "x") == "int x"

    def test_pointer(self):
        assert type_decl(PointerType(LONG), "p") == "long *p"

    def test_pointer_to_pointer(self):
        assert type_decl(PointerType(PointerType(INT)), "pp") == \
            "int **pp"

    def test_array(self):
        assert type_decl(ArrayType(INT, 8), "a") == "int a[8]"

    def test_2d_array(self):
        assert type_decl(ArrayType(ArrayType(INT, 4), 2), "g") == \
            "int g[2][4]"

    def test_struct_pointer(self):
        rec = RecordType("s", [Field("x", INT)])
        assert type_decl(PointerType(rec), "p") == "struct s *p"

    def test_function_pointer(self):
        fp = PointerType(FunctionType(INT, (LONG,)))
        assert type_decl(fp, "cb") == "int (*cb)(long)"

    def test_struct_definition_with_bitfield(self):
        rec = RecordType("b")
        rec.add_field(Field("f", INT, bit_width=3))
        rec.layout()
        assert ": 3;" in struct_definition(rec)


class TestExprText:
    def roundtrip(self, text):
        e = parse_expr(text)
        rendered = expr_text(e)
        e2 = parse_expr(rendered)
        assert expr_text(e2) == rendered
        return rendered

    def test_precedence_preserved(self):
        assert self.roundtrip("(a + b) * c") == "(a + b) * c"
        assert self.roundtrip("a + b * c") == "a + b * c"

    def test_member_chain(self):
        assert self.roundtrip("p->q.r") == "p->q.r"

    def test_unary_minus_of_negative(self):
        e = parse_expr("-(-x)")
        assert parse_expr(expr_text(e)) is not None

    def test_assignment(self):
        assert self.roundtrip("a = b = c + 1") == "a = b = c + 1"

    def test_conditional(self):
        assert self.roundtrip("a ? b : c") == "a ? b : c"

    def test_call_with_args(self):
        assert self.roundtrip("f(a, b + 1, c[2])") == "f(a, b + 1, c[2])"

    def test_string_escapes(self):
        e = parse_expr(r'"a\nb\"c"')
        rendered = expr_text(e)
        assert parse_expr(rendered).value == e.value

    def test_sizeof(self):
        assert self.roundtrip("sizeof(int)") == "sizeof(int)"


PROGRAMS = [
    # each must print identical output before and after a round-trip
    """
    struct node { long v; struct node *next; int flag : 2; };
    struct node *head;
    long total(struct node *p) {
        long s = 0;
        while (p != NULL) { s += p->v; p = p->next; }
        return s;
    }
    int main() {
        int i;
        for (i = 0; i < 6; i++) {
            struct node *n = (struct node*) malloc(sizeof(struct node));
            n->v = i * i;
            n->flag = i;
            n->next = head;
            head = n;
        }
        printf("%ld", total(head));
        return 0;
    }
    """,
    """
    typedef struct pt pt_t;
    struct pt { double x; double y; };
    pt_t grid[4];
    int main() {
        int i;
        double s = 0.0;
        for (i = 0; i < 4; i++) { grid[i].x = i * 0.5; grid[i].y = -1.0; }
        for (i = 0; i < 4; i++) s += grid[i].x * grid[i].y;
        printf("%.2f", s);
        return 0;
    }
    """,
    """
    int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
    int main() {
        int i;
        for (i = 1; i < 7; i++) printf("%d ", fact(i));
        return 0;
    }
    """,
]


class TestProgramRoundtrip:
    def test_roundtrip_preserves_behaviour(self):
        for src in PROGRAMS:
            p1 = Program.from_source(src)
            out1 = run_program(p1).stdout
            sources = program_sources(p1)
            p2 = Program.from_sources(sources)
            out2 = run_program(p2).stdout
            assert out1 == out2

    def test_double_roundtrip_fixpoint(self):
        for src in PROGRAMS:
            p1 = Program.from_source(src)
            s1 = program_sources(p1)
            p2 = Program.from_sources(s1)
            s2 = program_sources(p2)
            assert s1 == s2        # unparse is a fixpoint after one trip

    def test_typedef_only_struct_emitted(self):
        src = """
        typedef struct hidden { long v; } hidden_t;
        hidden_t *g;
        int main() {
            g = (hidden_t*) malloc(2 * sizeof(hidden_t));
            g[1].v = 5;
            printf("%ld", g[1].v);
            return 0;
        }
        """
        p1 = Program.from_source(src)
        p2 = Program.from_sources(program_sources(p1))
        assert run_program(p2).stdout == "5"


# a tiny expression grammar for property-based roundtripping
_names = st.sampled_from(["a", "b", "c"])
_leaf = st.one_of(
    st.integers(0, 1000).map(lambda v: str(v)),
    _names,
)


def _binop(children):
    return st.tuples(
        children, st.sampled_from(["+", "-", "*", "&", "|", "<", "=="]),
        children,
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")


_exprs = st.recursive(_leaf, _binop, max_leaves=12)


@given(_exprs)
def test_expr_roundtrip_property(text):
    e1 = parse_expr(text)
    rendered = expr_text(e1)
    e2 = parse_expr(rendered)
    assert expr_text(e2) == rendered


# random trees over every binary operator, the prefix and postfix
# unary operators, assignment, ?: and comma: rendering one and parsing
# the text back must give the same tree
_tree_leaf = st.one_of(
    st.integers(0, 1000).map(lambda v: ast.IntLit(line=1, value=v)),
    _names.map(lambda n: ast.Ident(line=1, name=n)),
)


def _tree_nodes(children):
    return st.one_of(
        st.builds(lambda op, a, b: ast.Binary(line=1, op=op, left=a,
                                              right=b),
                  st.sampled_from(sorted(BINARY_PRECEDENCE)), children,
                  children),
        st.builds(lambda op, a: ast.Unary(line=1, op=op, operand=a),
                  st.sampled_from(["-", "!", "~", "*", "&", "++", "--",
                                   "p++", "p--"]), children),
        st.builds(lambda op, a, b: ast.Assign(line=1, op=op, target=a,
                                              value=b),
                  st.sampled_from(["=", "+=", "<<=", "|="]), children,
                  children),
        st.builds(lambda a, b, c: ast.Conditional(line=1, cond=a, then=b,
                                                  els=c),
                  children, children, children),
        st.lists(children, min_size=2, max_size=3).map(
            lambda parts: ast.Comma(line=1, parts=parts)),
    )


@given(st.recursive(_tree_leaf, _tree_nodes, max_leaves=16))
def test_tree_roundtrip_property(tree):
    assert parse_expr(expr_text(tree)) == tree
