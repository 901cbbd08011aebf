"""The advisory tool's annotated type-layout report (§3.2, Figure 2).

IPA prints, for every structure type sorted by type hotness: the type's
name, field count, size, relative/absolute hotness, the planned (or
blocked) transformation and its legality status; then each field in
declaration order with its hotness bar, weighted read/write counts and
R/w balance bar, attributed d-cache miss count and average latency, and
its affinities to later fields (uni-directional edges only, to keep the
output compact).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.deadfields import UsageResult
from ..analysis.legality import LegalityResult
from ..core.pipeline import CompilationResult
from ..profit.affinity import TypeProfile
from ..profit.feedback import FeedbackFile

BAR_WIDTH = 10
RW_BAR_WIDTH = 8


def hotness_bar(percent: float, width: int = BAR_WIDTH) -> str:
    filled = round(width * min(max(percent, 0.0), 100.0) / 100.0)
    return "|" + "#" * filled + "-" * (width - filled) + "|"


def rw_bar(reads: float, writes: float, width: int = RW_BAR_WIDTH) -> str:
    """The paper's read/write balance bar: uppercase for the majority
    side ('R…w' when reads dominate, 'r…W' otherwise)."""
    total = reads + writes
    if total <= 0.0:
        return "|" + " " * width + "|"
    r_chars = round(width * reads / total)
    r_chars = min(max(r_chars, 0), width)
    if reads >= writes:
        return "|" + "R" * r_chars + "w" * (width - r_chars) + "|"
    return "|" + "r" * r_chars + "W" * (width - r_chars) + "|"


@dataclass
class AdvisorOptions:
    #: show at most this many types (None = all)
    max_types: int | None = None
    #: skip types with zero hotness
    skip_cold_types: bool = False
    #: append the per-phase compile-cost footer (wall time per phase,
    #: hottest passes).  Off by default: the footer contains wall-clock
    #: numbers, and default reports must stay deterministic (the
    #: service's serial-vs-daemon parity depends on it).
    phase_costs: bool = False


def format_type_report(profile: TypeProfile, legality: LegalityResult,
                       usage: UsageResult,
                       feedback: FeedbackFile | None = None,
                       transform_label: str = "None",
                       rel_type_hotness: float = 100.0,
                       abs_type_hotness: float = 100.0) -> str:
    """Render one type's annotated layout."""
    rec = profile.record
    info = legality.types.get(rec.name)
    u = usage.types.get(rec.name)
    rel = profile.relative_hotness()
    total = profile.type_hotness()

    status = "*OK*" if info is not None and info.is_legal() else \
        "/".join(sorted(info.invalid_reasons)) if info is not None else "?"
    attrs = " ".join(info.attributes()) if info is not None else ""

    samples = feedback.field_samples if feedback is not None else {}
    type_misses = sum(s.misses for (r, f), s in samples.items()
                      if r == rec.name)

    lines = [
        f"Type     : {rec.name}",
        f"Fields   : {len(rec.fields)}, {rec.size} bytes",
        f"Hotness  : {rel_type_hotness:.1f}% rel, "
        f"{abs_type_hotness:.1f}% abs",
        f"Transform: {transform_label}",
        f"Status   : {status} / {attrs}".rstrip(" /"),
        "-" * 69,
    ]

    field_names = [f.name for f in rec.fields]
    for f in rec.fields:
        pct = rel.get(f.name, 0.0)
        offset = f"{f.offset}:{f.bit_offset}"
        header = (f"Field[{f.index}] off: {offset:>5s} "
                  f"{hotness_bar(pct)} \"{f.name}\"")
        refs = u.of(f.name) if u is not None else None
        if refs is not None and not refs.referenced:
            lines.append(header + "  *unused*")
            continue
        lines.append(header)
        weight = profile.hotness(f.name)
        lines.append(f"  hot: {pct:5.1f}%  weight: {weight:.3e}")
        reads = profile.read_counts.get(f.name, 0.0)
        writes = profile.write_counts.get(f.name, 0.0)
        lines.append(f"  read : {reads:.3e}, write: {writes:.3e}  "
                     f"{rw_bar(reads, writes)}")
        sample = samples.get((rec.name, f.name))
        if sample is not None:
            share = (100.0 * sample.misses / type_misses) \
                if type_misses else 0.0
            lines.append(f"  miss : {sample.misses}, {share:.1f}%, "
                         f"lat: {sample.avg_latency:.1f} [cyc]")
        # uni-directional affinity edges, in declaration order
        later = field_names[f.index:]
        affs = profile.relative_affinities(f.name)
        for other in later:
            if other in affs:
                lines.append(f"  aff: {affs[other]:5.1f}% --> {other}")
    return "\n".join(lines)


def advisor_report(result: CompilationResult,
                   feedback: FeedbackFile | None = None,
                   options: AdvisorOptions | None = None) -> str:
    """The full report: every type, sorted by type hotness."""
    options = options or AdvisorOptions()
    profiles = result.profiles
    totals = {name: p.type_hotness() for name, p in profiles.items()}
    grand = sum(totals.values()) or 1.0
    peak = max(totals.values(), default=0.0) or 1.0

    # ties in hotness break on the type name, never on dict order —
    # report bytes must be identical across runs for a fixed seed
    order = sorted(profiles, key=lambda n: (-totals[n], n))
    if options.skip_cold_types:
        order = [n for n in order if totals[n] > 0.0]
    if options.max_types is not None:
        order = order[:options.max_types]

    sections = []
    decisions = result.decisions_by_type()
    for name in order:
        d = decisions.get(name)
        label = "None"
        if d is not None and d.transformed:
            label = {"split": "Splitting", "peel": "Peeling",
                     "dead": "Dead Field Removal"}.get(d.action, d.action)
        sections.append(format_type_report(
            profiles[name], result.legality, result.usage,
            feedback=feedback, transform_label=label,
            rel_type_hotness=100.0 * totals[name] / peak,
            abs_type_hotness=100.0 * totals[name] / grand))
    header = (f"Structure layout advisory report "
              f"(scheme: {result.weights.scheme}, "
              f"{len(order)} of {len(profiles)} types)\n" + "=" * 69)
    report = header + "\n\n" + "\n\n".join(sections) + "\n"
    if result.search:
        report += "\n" + search_delta_section(result)
    if options.phase_costs:
        report += "\n" + phase_cost_footer(result)
    return report


def search_delta_section(result: CompilationResult) -> str:
    """Greedy-vs-search deltas, one block per searched type.

    Byte-deterministic for a fixed seed: types sort by name, the best
    layout is named by its content fingerprint (candidate ties inside
    the engine already broke on that fingerprint), and no wall-clock
    numbers appear — ``elapsed_s`` stays in the machine-readable
    stats only."""
    stats = result.search
    lines = ["layout search (greedy floor vs searched)", "-" * 69]
    tr = stats.get("_trace")
    if tr:
        suffix = " (truncated)" if tr.get("truncated") else ""
        lines.append(f"  oracle trace: {tr['ops']:,} accesses, "
                     f"{tr['cycles']:,} cycles{suffix}")
    for name in sorted(k for k in stats if not k.startswith("_")):
        s = stats[name]
        greedy, best = s["greedy_cycles"], s["best_cycles"]
        gain = 100.0 * (greedy / best - 1.0) if best else 0.0
        kept = "" if s["improved"] else "  [kept greedy]"
        lines.append(f"  {name:20s} {s['engine']:>6s}/{s['mode']:5s} "
                     f"greedy {greedy:,} -> best {best:,} "
                     f"({gain:+.2f}%){kept}")
        lines.append(f"    evals: {s['evals']}  "
                     f"memo hits: {s['memo_hits']}  "
                     f"cache hits: {s['cache_hits']}  "
                     f"best layout: {s['best_fingerprint']}")
    return "\n".join(lines) + "\n"


def phase_cost_footer(result: CompilationResult) -> str:
    """The per-phase compile-cost footer: phase wall time and the
    hottest guarded passes (with peak-RSS growth when the compile ran
    with a tracer and per-pass profiling is available).

    Phase timings are wall-clock *windows* (first step start to last
    step end).  The compile runs one step at a time, so phases never
    overlap; percentages are taken against the ``scheduler`` block's
    measured compile wall, which also covers the time between
    steps."""
    lines = ["per-phase compile cost", "-" * 69]
    sched = result.scheduler or {}
    wall = sched.get("wall_ms", 0.0) / 1e3
    total = wall or sum(result.timings.values()) or 1.0
    for phase in ("fe", "ipa", "be"):
        t = result.timings.get(phase)
        if t is None:
            continue
        lines.append(f"  {phase:4s} {t * 1e3:9.1f} ms  "
                     f"({100.0 * min(t, total) / total:5.1f}%)")
    if sched:
        lines.append(
            f"  dag  {sched.get('wall_ms', 0.0):9.1f} ms  "
            f"({sched.get('nodes', 0)} nodes, critical path "
            f"{sched.get('critical_path_ms', 0.0):.1f} ms)")
    # equal-time passes sort by name so the footer is byte-stable
    passes = sorted(result.pass_timings.items(),
                    key=lambda kv: (-kv[1], kv[0]))[:5]
    if passes:
        lines.append("  hottest passes:")
        for name, t in passes:
            extra = ""
            prof = result.pass_profile.get(name)
            if prof and prof.get("rss_kb_delta"):
                extra = f"  (+{prof['rss_kb_delta']} kB peak RSS)"
            lines.append(f"    {name:24s} {t * 1e3:9.1f} ms{extra}")
    return "\n".join(lines) + "\n"
