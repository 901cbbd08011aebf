"""§2.2's punchline — relaxation exposes types, not transformations.

"After relaxing the legality constraints, many more types are
transformable ... As a result, the number of transformed types remains
constant."  The paper estimated this with an internal flag tolerating
CSTT/CSTF/ATKN; the reproduction goes further and *verifies* each
tolerated type with the field-sensitive points-to analysis before
clearing its violations.

The bench compiles every workload both ways and asserts: (1) the set
of legal types grows substantially (20.9% -> 65.7% on average in the
paper), (2) the set of *transformed* types does not change at all —
the profitability filters, not the practical legality tests, are what
block the extra types.
"""

from conftest import once, save_result

from repro.core import Compiler, CompilerOptions


def build(session, workloads):
    rows = []
    for wl in workloads:
        plain = session.compiled(wl, input_set="ref")
        relaxed = Compiler(CompilerOptions(
            relax_legality=True, transform=False)).compile(
                wl.program("ref"))
        rows.append((
            wl.name,
            len(plain.legality.legal_types()),
            len(relaxed.legality.legal_types()),
            sorted(d.type_name for d in plain.transformed_types()),
            sorted(d.type_name for d in relaxed.decisions
                   if d.transformed),
        ))
    return rows


def test_relaxation_exposes_no_new_transformations(benchmark, session,
                                                   workloads):
    rows = once(benchmark, lambda: build(session, workloads))
    lines = [f"{'Benchmark':12s} {'legal':>6s} {'relaxed':>8s} "
             f"{'transformed':>24s}"]
    for name, legal, relaxed_legal, tt, ttr in rows:
        lines.append(f"{name:12s} {legal:6d} {relaxed_legal:8d} "
                     f"{','.join(tt) or '-':>24s}")
    text = "\n".join(lines)
    print("\n§2.2 — legality relaxation vs transformed types\n" + text)
    save_result("relaxation.txt", text)

    more_legal = 0
    for name, legal, relaxed_legal, tt, ttr in rows:
        # relaxation can only add legal types
        assert relaxed_legal >= legal, name
        if relaxed_legal > legal:
            more_legal += 1
        # ... but the transformed set is identical
        assert tt == ttr, name

    # relaxation genuinely exposes types on most benchmarks
    assert more_legal >= 10
