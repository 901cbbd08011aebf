"""§3.4 case studies — what the advisory tool found in SPEC2006.

Two experiences the paper reports:

1. A hot C++ structure larger than an L2 cache line with four hot
   fields scattered through the definition; grouping them (guided by
   the affinity graph, identical under PBO and ISPBO) gave +2.5%.
2. A benchmark dominated by three loops over a two-field record
   (float + 8-byte int); peeling gave almost +40% (and more with
   further tuning).

Both are reproduced end-to-end: the advisor identifies the opportunity
and applying its suggestion yields a gain of the right shape.
"""

from conftest import once, save_result

from repro.core import Compiler, CompilerOptions
from repro.frontend import Program
from repro.runtime import run_program
from repro.advisor import affinity_clusters
from repro.transform import (
    PeelSpec, peel_structure, reorder_fields, affinity_packed_order,
)

# case 1: > 128-byte struct, 4 hot fields scattered among 14 cold ones
_SCATTER_FIELDS = []
_hot_positions = {1, 5, 9, 13}
for k in range(18):
    name = f"h{k}" if k in _hot_positions else f"c{k}"
    _SCATTER_FIELDS.append(f"    long {name};")

CASE1 = """
struct big {
%s
};
struct big *B;
long scalar_phase(long seed) {
    long t; long acc = 0;
    for (t = 0; t < 220000; t++) {
        seed = (seed * 1103515245 + 12345) %% 2147483648;
        acc += seed & 63;
    }
    return acc %% 1000;
}
int main() {
    int i; int it; long s = 0;
    B = (struct big*) malloc(1500 * sizeof(struct big));
    for (i = 0; i < 1500; i++) {
        B[i].h1 = i; B[i].h5 = 2 * i; B[i].h9 = 3 * i; B[i].h13 = i;
        B[i].c0 = i;
    }
    for (it = 0; it < 14; it++)
        for (i = 0; i < 1500; i++) {
            long at = (i * 601) %% 1500;
            s += B[at].h1 + B[at].h5 + B[at].h9 + B[at].h13;
        }
    s += scalar_phase(7);
    printf("%%ld", s);
    return 0;
}
""" % "\n".join(_SCATTER_FIELDS)

# case 2: two-field record dominating three loops
CASE2 = """
struct pairrec { double val; long idx; };
struct pairrec *D;
int main() {
    int i; int it; double s = 0.0; long k = 0;
    D = (struct pairrec*) malloc(11000 * sizeof(struct pairrec));
    for (i = 0; i < 11000; i++) { D[i].val = i * 0.25; D[i].idx = i; }
    for (it = 0; it < 6; it++) {
        for (i = 0; i < 11000; i++) k += D[i].idx & 7;
        for (i = 0; i < 11000; i++) k += D[i].idx >> 3;
        for (i = 0; i < 11000; i++) s += D[i].val;
    }
    printf("%.1f %ld", s, k);
    return 0;
}
"""


def run_case1():
    program = Program.from_source(CASE1)
    res = Compiler(CompilerOptions(transform=False)).compile(program)
    prof = res.profiles["big"]
    # the advisor's affinity clustering identifies the 4 hot fields
    clusters = affinity_clusters(prof, 0.3)
    hot_cluster = max(clusters, key=len)
    order = affinity_packed_order(
        prof.record, prof.hotness_by_field(), prof.affinity)
    regrouped = reorder_fields(program, program.record("big"), order)
    before = run_program(program)
    after = run_program(regrouped)
    assert before.stdout == after.stdout
    gain = 100.0 * (before.cycles / after.cycles - 1.0)
    return prof, hot_cluster, order, gain


def run_case2():
    program = Program.from_source(CASE2)
    res = Compiler().compile(program)   # the framework peels by itself
    d = res.decision_for("pairrec")
    before = run_program(res.program)
    after = run_program(res.transformed)
    assert before.stdout == after.stdout
    gain = 100.0 * (before.cycles / after.cycles - 1.0)
    return d, gain


def test_case_study_hot_field_grouping(benchmark):
    prof, hot_cluster, order, gain = once(benchmark, run_case1)
    text = (f"hot cluster found: {hot_cluster}\n"
            f"suggested order:  {order[:6]}...\n"
            f"regrouping gain:  {gain:+.2f}%  (paper: +2.5%)")
    print("\n§3.4 case study 1 — grouping hot fields\n" + text)
    save_result("case_study1.txt", text)

    # the struct is bigger than the last-level line, as in the paper
    assert prof.record.size > 128
    # the affinity graph identifies exactly the four hot fields
    assert set(hot_cluster) == {"h1", "h5", "h9", "h13"}
    # the packed order puts all four in the first cache line
    positions = {f: i for i, f in enumerate(order)}
    assert max(positions[f] for f in ("h1", "h5", "h9", "h13")) <= 3
    # grouping them pays off, same direction and magnitude band
    assert 0.5 < gain < 10.0


def test_case_study_two_field_peel(benchmark):
    d, gain = once(benchmark, run_case2)
    text = (f"decision: {d.action} into {d.groups}\n"
            f"gain: {gain:+.2f}%  (paper: ~+40%)")
    print("\n§3.4 case study 2 — peeling a two-field record\n" + text)
    save_result("case_study2.txt", text)

    assert d.action == "peel"
    assert len(d.groups) == 2
    # a large gain, in the tens of percent
    assert gain > 15.0
