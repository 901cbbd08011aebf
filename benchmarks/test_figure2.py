"""Figure 2 — the advisory tool's annotated type layout for mcf.

Regenerates the report of §3.2: per-type header (name, field count,
size, hotness, planned transformation, status/attributes), then per
field the hotness bar, weighted read/write counts with the R/w balance
bar, attributed d-cache misses and latency, and uni-directional
affinity edges.  VCG graph output is produced alongside.
"""

from conftest import once, save_result, lower_program

from repro.advisor import advisor_report, program_vcg
from repro.core import Compiler, CompilerOptions
from repro.workloads import MCF


def build_report(session):
    fb = session.feedback(MCF, "train", pmu_period=16)
    program = MCF.program("train")
    res = Compiler(CompilerOptions(
        scheme="PBO", feedback=fb, transform=False)).compile(program)
    text = advisor_report(res, feedback=fb)
    vcg = program_vcg(res.profiles)
    return res, text, vcg


def test_figure2(benchmark, session):
    res, text, vcg = once(benchmark, lambda: build_report(session))
    node_section = text[text.index("Type     : node"):]
    node_section = node_section.split("\nType     :")[0]
    print("\nFigure 2 — advisory report (node section)\n" + node_section)
    save_result("figure2.txt", text)
    save_result("figure2.vcg", vcg)

    # header block
    assert "Type     : node" in text
    assert "Fields   : 15," in text
    assert "Hotness  :" in text and "% rel," in text
    assert "Status   :" in text

    # node is the hottest type: listed first
    first_type = text.index("Type     : ")
    assert text[first_type:first_type + 40].startswith("Type     : node")

    # per-field annotations
    assert 'Field[0]' in node_section and '"number"' in node_section
    assert "*unused*" in node_section          # ident
    assert "read :" in node_section and "write:" in node_section
    assert "miss :" in node_section and "[cyc]" in node_section
    assert "aff:" in node_section

    # the hotness bar of the hottest field is full
    assert "|##########| \"potential\"" in node_section

    # read-dominated fields show uppercase R bars
    assert "|RRRR" in node_section

    # uni-directional affinity: 'time' (last field) lists no edge
    # to earlier fields like 'pred'
    time_at = node_section.index('"time"')
    time_sec = node_section[time_at:]
    assert "--> pred" not in time_sec

    # VCG output has one graph per type with nodes and edges
    assert vcg.count("graph: {") == len(res.profiles)
    assert 'node: { title: "potential"' in vcg
    assert "thickness:" in vcg
