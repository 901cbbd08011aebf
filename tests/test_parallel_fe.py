"""The compiler's one front end.

§2's FE is per translation unit; here the per-unit half lives in the
``legality[u]``/``deadfields[u]`` summaries, and every unit is parsed
by one front end, :meth:`Program.from_sources` in recover mode, which
the compile runs as its ``fe.parse`` step.  A compile from sources must
therefore produce exactly the program, decisions, diagnostics and
transformed output of a compile of the program that front end builds,
on the 12 workloads and on the multi-unit shapes (a struct or typedef
defined in two units, a parse error) that an isolated-parse front end
could not merge.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import Compiler, CompilerOptions
from repro.frontend import Program
from repro.transform import program_sources
from repro.workloads import ALL_WORKLOADS

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def result_fingerprint(result):
    """Everything user-visible about one compilation."""
    return (
        [(d.type_name, d.action, sorted(d.cold_fields),
          sorted(d.dead_fields), sorted(map(tuple, d.groups or [])))
         for d in result.decisions],
        result.diagnostics.render("warning"),
        program_sources(result.transformed),
    )


def compile_program(sources):
    """A compile of the program the front end's public entry builds."""
    return Compiler().compile(Program.from_sources(sources, recover=True))


def compile_sources(sources):
    return Compiler(CompilerOptions()).compile_sources(sources)


@pytest.mark.parametrize("workload", ALL_WORKLOADS,
                         ids=[w.name for w in ALL_WORKLOADS])
def test_workloads_serial_equals_parallel(workload):
    sources = workload.sources("train")
    assert result_fingerprint(compile_sources(sources)) == \
        result_fingerprint(compile_program(sources))


def test_quickstart_example_serial_equals_parallel():
    spec = importlib.util.spec_from_file_location(
        "quickstart", EXAMPLES / "quickstart.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    sources = [("quickstart.c", mod.SOURCE)]
    assert result_fingerprint(compile_sources(sources)) == \
        result_fingerprint(compile_program(sources))


MULTI_TU = [
    ("a.c", """
typedef struct node node_t;
struct node { int key; int pad; node_t *next; };
node_t *mk(int k) {
  node_t *n = (node_t*)malloc(sizeof(node_t));
  n->key = k; n->next = 0; return n;
}
"""),
    ("b.c", """
struct node;
typedef struct node node2_t;
struct node *mk(int k);
int sum(node2_t *n) {
  int s = 0;
  while (n) { s = s + n->key; n = n->next; }
  return s;
}
"""),
    ("c.c", """
struct node;
struct node *mk(int k);
int sum(struct node *n);
int main() { printf("%d\\n", sum(mk(7))); return 0; }
"""),
]


def test_multi_tu_serial_equals_parallel():
    assert result_fingerprint(compile_sources(MULTI_TU)) == \
        result_fingerprint(compile_program(MULTI_TU))


def test_unit_order_is_preserved():
    result = compile_sources(MULTI_TU)
    assert [u.name for u in result.program.units] == ["a.c", "b.c", "c.c"]
    assert result.scheduler["critical_path"][0] == "fe.parse"


# ---------------------------------------------------------------------------
# shapes an isolated-parse front end could not merge
# ---------------------------------------------------------------------------

FALLBACK_PROGRAMS = {
    # struct defined in two units: the shared tables merge it in order
    "redefinition": [
        ("a.c", "struct s { int a; };\nint f() { return 0; }"),
        ("b.c", "struct s { int a; };\nint main() { return f(); }"),
    ],
    # typedef defined in two units
    "typedef-dup": [
        ("a.c", "typedef int t;\nt f() { return 1; }"),
        ("b.c", "typedef int t;\nint main() { return f(); }"),
    ],
    # parse error: recovery reports it and parses the rest
    "parse-error": [
        ("a.c", "struct s { int a; };\nint f( { return 0; }"),
        ("b.c", "int main() { return 0; }"),
    ],
}


@pytest.mark.parametrize("name", sorted(FALLBACK_PROGRAMS))
def test_fallback_matches_legacy(name):
    sources = FALLBACK_PROGRAMS[name]
    result = compile_sources(sources)
    prog = result.program
    want = Program.from_sources(sources, recover=True)
    assert [u.name for u in prog.units] == [u.name for u in want.units]
    assert [(e.unit, e.line, e.message) for e in prog.frontend_errors] \
        == [(e.unit, e.line, e.message) for e in want.frontend_errors]
    assert result_fingerprint(result) == \
        result_fingerprint(compile_program(sources))
