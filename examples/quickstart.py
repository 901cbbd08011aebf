#!/usr/bin/env python3
"""Quickstart: optimize a structure layout end to end.

Feeds a small MiniC program with a hot/cold struct through the full
FE -> IPA -> BE pipeline, then runs both versions on the simulated
machine and reports the speedup.

Run:  python examples/quickstart.py
"""

from repro import Session, run_program

SOURCE = """
struct record {
    long key;            /* hot: read in every query               */
    long value;          /* hot: read in every query               */
    long insert_time;    /* cold: only touched at build time       */
    long last_audit;     /* cold: one maintenance sweep            */
    double debug_weight; /* dead: written, never read              */
};

struct record *table;

int main() {
    int i;
    int round;
    long hits = 0;

    table = (struct record*) malloc(2000 * sizeof(struct record));
    for (i = 0; i < 2000; i++) {
        table[i].key = i * 7 % 2000;
        table[i].value = i;
        table[i].insert_time = 1000 + i;
        table[i].last_audit = 0;
        table[i].debug_weight = 0.5 * i;
    }

    for (round = 0; round < 25; round++) {
        for (i = 0; i < 2000; i++) {
            if (table[i].key < 1000) {
                hits += table[i].value;
            }
        }
    }

    for (i = 0; i < 2000; i++) {
        table[i].last_audit = table[i].insert_time + 1;
    }

    printf("hits=%ld audit=%ld\\n", hits, table[5].last_audit);
    return 0;
}
"""


def main() -> None:
    # one call runs legality analysis, affinity/hotness estimation,
    # the heuristics, and the transformations
    result = Session().compile_source(SOURCE)

    print("== analysis ==")
    types, legal, relaxed = result.table1_row()
    print(f"record types: {types}, pass legality: {legal}, "
          f"pass under relaxation: {relaxed}")
    for decision in result.decisions:
        print(f"  {decision.type_name}: {decision.action}  "
              f"({'; '.join(decision.notes)})")

    print("\n== layouts ==")
    for rec in result.transformed.record_types():
        if rec.fields:
            print(rec.definition())

    print("\n== measurement ==")
    before = run_program(result.program)
    after = run_program(result.transformed)
    assert before.stdout == after.stdout, "outputs must match!"
    print(f"output            : {before.stdout.strip()}")
    print(f"cycles before     : {before.cycles:,}")
    print(f"cycles after      : {after.cycles:,}")
    print(f"speedup           : "
          f"{100.0 * (before.cycles / after.cycles - 1.0):+.1f}%")


if __name__ == "__main__":
    main()
