#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 \
        --trace 0

``--workload`` is ``compile``, ``optimize`` or ``serve`` (see
``perfbench/README.md`` for what each runs and why).  The inputs are
generated from ``--seed``; the workload runs for ``--seconds`` and its
outputs are checked.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Every metric is printed by name with its unit,
and the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 when every op succeeded and every correctness check
held, 1 otherwise, and 2 (with no result line) on a usage error or a
checkout without the system's sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("compile", "optimize", "serve")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = Path("BENCHMARK.json")
    if not (Path("src") / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: run from the repository root (src/repro and "
              "BENCHMARK.json are required)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path("src").resolve()), str(HERE)]
    spec = json.loads(spec_path.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workload = importlib.import_module(f"wl_{args.workload}")
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    measured = result["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    outcome, checks = result["outcome"], result["checks"]
    missing = sorted(set(units) - set(measured))
    if missing and not args.trace and not outcome.failed:
        raise KeyError(f"workload did not measure: {missing}")
    # a layer the workload never enters reads 0 (the "expected no
    # change" side of each layer's prediction), as does a metric of a
    # run whose ops failed before it could be measured
    measured = {name: measured.get(name, 0.0) for name in units}
    for name in sorted(measured):
        print(f"{name:36s} {measured[name]:>16.6g} {units[name]}")
    print(f"{'ops attempted / failed':36s} {outcome.attempted:>10d} / "
          f"{outcome.failed}")
    for why in outcome.reasons:
        print(f"perfbench: failed op: {why}", file=sys.stderr)
    for message in checks.violations:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in measured.items()},
    }))
    return 0 if checks.ok and outcome.failed == 0 \
        and outcome.attempted else 1


if __name__ == "__main__":
    raise SystemExit(main())
