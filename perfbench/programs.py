"""Seeded inputs for the benchmark workloads.

Every generator here is a pure function of its arguments: the same
seed gives byte-identical sources.  The program under test only ever
sees the generated sources, never the seed.
"""

from __future__ import annotations

import random

from repro.workloads import ALL_WORKLOADS, PopulationSpec, \
    generate_population

#: the search workloads of the paper's Table 3 that the optimize
#: workload compares (train inputs)
FOCUS = ("181.mcf", "179.art", "moldyn")

#: synthetic programs per compile round, and the struct budget each
#: one spreads over its units (fixed, so a round's work is steady
#: across seeds while its shape varies)
SYNTHETIC_PROGRAMS = 6
SYNTHETIC_STRUCTS = 180
#: filler types per synthetic program, split by seed across the
#: legal / relax-only / hard-invalid classes
SYNTHETIC_FILLER = 24

#: struct and filler-type counts of every served program
SERVE_STRUCTS = 6
SERVE_FILLER = 6


def struct_unit(tag: str, unit: int, structs: int, funcs: int = 4,
                main: bool = False) -> str:
    """A parse-heavy translation unit: many struct definitions and a
    few functions that allocate and touch them, so legality and dead
    field analysis have real work.  With ``main`` the unit also holds
    the program entry, which calls the population unit's driver."""
    lines = []
    for s in range(structs):
        fields = "".join(f" int f{i}; long g{i}; char c{i};"
                         for i in range(4))
        lines.append(f"struct {tag}{unit}_{s} {{{fields} "
                     f"struct {tag}{unit}_{s} *next; }};")
    for f in range(funcs):
        s = f % structs
        name = f"{tag}{unit}_{s}"
        lines.append(f"""
int use{tag}{unit}_{f}(int n) {{
  struct {name} *p = (struct {name}*)malloc(sizeof(struct {name}));
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {{
    p->f0 = i; p->g1 = i + 1; acc = acc + p->f0;
  }}
  free(p);
  return acc;
}}""")
    if main:
        lines.append("void __filler_main(void);")
        lines.append(f'int main() {{ __filler_main(); '
                     f'printf("%d\\n", use{tag}{unit}_0(3)); '
                     f'return 0; }}')
    return "\n".join(lines) + "\n"


def synthetic_program(rng: random.Random, tag: str
                      ) -> list[tuple[str, str]]:
    """A multi-TU struct-heavy program.  The unit count, how the
    struct budget splits over the units and the legality mix of the
    filler population vary with ``rng``; the total struct count does
    not."""
    n_units = rng.randint(2, 4)
    cuts = sorted(rng.sample(range(1, SYNTHETIC_STRUCTS), n_units - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, SYNTHETIC_STRUCTS])]
    legal = rng.randint(0, SYNTHETIC_FILLER)
    relax = rng.randint(0, SYNTHETIC_FILLER - legal)
    spec = PopulationSpec(prefix=f"{tag}p", legal=legal,
                          relax_only=relax,
                          hard=SYNTHETIC_FILLER - legal - relax)
    sources = [(f"{tag}_u{u}.c", struct_unit(tag, u, size, main=u == 0))
               for u, size in enumerate(sizes)]
    sources.append((f"{tag}_pop.c", generate_population(spec)))
    return sources


def compile_set(seed: int) -> list[tuple[str, list[tuple[str, str]]]]:
    """The compile workload's program set: the twelve paper workloads
    (ref inputs) plus a seeded draw of synthetic multi-TU programs."""
    rng = random.Random(f"compile:{seed}")
    programs = [(w.name, w.sources("ref")) for w in ALL_WORKLOADS]
    for i in range(SYNTHETIC_PROGRAMS):
        tag = f"s{i}"
        programs.append((f"synthetic-{tag}", synthetic_program(rng, tag)))
    return programs


def focus_set() -> list[tuple[str, list[tuple[str, str]]]]:
    """The optimize workload's programs (train inputs)."""
    by_name = {w.name: w for w in ALL_WORKLOADS}
    return [(name, by_name[name].sources("train")) for name in FOCUS]


def small_program(rng: random.Random, tag: str
                  ) -> list[tuple[str, str]]:
    """A small two-unit program for served requests: a fixed number of
    structs and filler types, so every one costs about the same to
    compile, with a seeded legality mix."""
    legal = rng.randint(1, SERVE_FILLER)
    relax = rng.randint(0, SERVE_FILLER - legal)
    spec = PopulationSpec(prefix=f"{tag}p", legal=legal, relax_only=relax,
                          hard=SERVE_FILLER - legal - relax)
    return [(f"{tag}_u0.c", struct_unit(tag, 0, SERVE_STRUCTS, funcs=2,
                                        main=True)),
            (f"{tag}_pop.c", generate_population(spec))]


def serve_hot_set(seed: int, size: int = 4
                  ) -> list[list[tuple[str, str]]]:
    """The small programs ``analyze`` requests revisit; each is a
    cache hit after its first touch."""
    rng = random.Random(f"serve-hot:{seed}")
    return [small_program(rng, f"h{i}") for i in range(size)]


def serve_fresh_program(rng: random.Random, serial: int
                        ) -> list[tuple[str, str]]:
    """A program no earlier request carried (its names embed
    ``serial``), so an ``advise`` on it misses the cache."""
    return small_program(rng, f"m{serial}_")
