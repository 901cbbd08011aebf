#!/usr/bin/env python3
"""Structure splitting on 181.mcf, and why hotness rules the split.

Reproduces the paper's §2.4 observation interactively: the heuristic
split (cold fields only) wins, while forcing the moderately hot fields
``time`` and ``mark`` into the cold section destroys the gain — every
access to them now chases a link pointer.

Run:  python examples/split_mcf.py
"""

from repro import run_program
from repro.core import Compiler
from repro.transform import SplitSpec, split_structure
from repro.workloads import MCF


def measure(program, transformed, label, baseline_cycles):
    after = run_program(transformed)
    gain = 100.0 * (baseline_cycles / after.cycles - 1.0)
    print(f"  {label:32s} {gain:+7.2f}%")
    return after


def main() -> None:
    program = MCF.program("train")
    result = Compiler().compile(program)
    decision = result.decision_for("node")

    print("node_t relative hotness (ISPBO):")
    rel = result.profiles["node"].relative_hotness()
    for name, pct in sorted(rel.items(), key=lambda kv: -kv[1]):
        print(f"  {name:14s} {pct:6.1f}%")

    print(f"\nheuristic split: cold={decision.cold_fields} "
          f"dead={decision.dead_fields}")

    before = run_program(result.program)
    print(f"\nbaseline: {before.cycles:,} cycles\n")
    measure(program, result.transformed, "heuristic split",
            before.cycles)

    for forced in (["time"], ["time", "mark"]):
        spec = SplitSpec(
            record=program.record("node"),
            cold_fields=decision.cold_fields + forced,
            dead_fields=decision.dead_fields)
        transformed = split_structure(program, spec)
        measure(program, transformed,
                f"also split out {'+'.join(forced)}", before.cycles)

    print("\nhot fields need to remain in the hot section (§2.4).")


if __name__ == "__main__":
    main()
