"""Differential testing: randomized programs through the full pipeline.

Generates small MiniC programs over a dynamically allocated struct
array (random field counts, access mixes, loop shapes), compiles them
with the full FE→IPA→BE pipeline, and checks that the transformed
program produces byte-identical output.  This is the transformation-
correctness safety net: any legality or rewriting bug shows up as an
output divergence.
"""

from hypothesis import given, settings, strategies as st, HealthCheck

from repro.core import Compiler, CompilerOptions
from repro.frontend import Program
from repro.runtime import run_program
from repro.transform import HeuristicParams


@st.composite
def struct_programs(draw):
    n_fields = draw(st.integers(2, 6))
    kinds = draw(st.lists(st.sampled_from(["long", "double", "int"]),
                          min_size=n_fields, max_size=n_fields))
    n_elems = draw(st.integers(4, 24))
    hot_iters = draw(st.integers(1, 6))
    hot_fields = draw(st.lists(st.integers(0, n_fields - 1), min_size=1,
                               max_size=3, unique=True))
    cold_fields = draw(st.lists(st.integers(0, n_fields - 1),
                                min_size=0, max_size=2, unique=True))
    use_free = draw(st.booleans())
    use_local_ptr = draw(st.booleans())
    write_only = draw(st.integers(-1, n_fields - 1))

    fields = "\n".join(f"    {k} f{i};" for i, k in enumerate(kinds))
    init = "\n".join(
        f"        R[i].f{i_} = " +
        (f"(double) i * 0.5;" if kinds[i_] == "double"
         else f"i * {i_ + 1};")
        for i_ in range(n_fields))
    hot_terms = " + ".join(f"(long) R[i].f{f}" for f in hot_fields)
    cold_stmts = "\n".join(
        f"        acc += (long) R[i].f{f};" for f in cold_fields)
    wo_stmt = f"        R[i].f{write_only} = 1;" \
        if write_only >= 0 else ""
    ptr_decl = "struct rec *cursor = R; acc += (long) cursor->f0;" \
        if use_local_ptr else ""
    free_stmt = "free(R);" if use_free else ""

    return f"""
struct rec {{
{fields}
}};
struct rec *R;
int main() {{
    int i; int it; long acc = 0;
    R = (struct rec*) malloc({n_elems} * sizeof(struct rec));
    for (i = 0; i < {n_elems}; i++) {{
{init}
    }}
    for (it = 0; it < {hot_iters}; it++)
        for (i = 0; i < {n_elems}; i++)
            acc += {hot_terms};
    for (i = 0; i < {n_elems}; i++) {{
{cold_stmts}
{wo_stmt}
    }}
    {ptr_decl}
    {free_stmt}
    printf("%ld", acc);
    return 0;
}}
"""


_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(struct_programs())
def test_pipeline_preserves_output(src):
    program = Program.from_source(src)
    result = Compiler().compile(program)
    before = run_program(result.program)
    after = run_program(result.transformed)
    assert before.stdout == after.stdout
    assert before.exit_code == after.exit_code


@_SETTINGS
@given(struct_programs(), st.sampled_from(["per-field", "hot-cold",
                                           "affinity"]))
def test_all_peel_modes_preserve_output(src, mode):
    program = Program.from_source(src)
    result = Compiler(CompilerOptions(
        params=HeuristicParams(peel_mode=mode))).compile(program)
    before = run_program(result.program)
    after = run_program(result.transformed)
    assert before.stdout == after.stdout


@_SETTINGS
@given(struct_programs())
def test_spbo_scheme_preserves_output(src):
    program = Program.from_source(src)
    result = Compiler(CompilerOptions(scheme="SPBO")).compile(program)
    before = run_program(result.program)
    after = run_program(result.transformed)
    assert before.stdout == after.stdout
