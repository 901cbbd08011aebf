"""IPA escape analysis.

The FE records ``<type, function>`` tuples for record types passed to
non-library functions.  During IPA these summaries are aggregated and a
type escaping to any function *outside the compilation scope* (one with
no definition among the linked translation units) is invalidated with
reason ``ESCP`` — the inter-procedural counterpart of the FE's LIBC
test, exactly as §2.2 describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.program import Program
from .legality import LegalityResult

ESCAPE_REASON = "ESCP"


@dataclass
class EscapeResult:
    #: type name -> callee names outside the IPA scope
    escaped: dict[str, set[str]] = field(default_factory=dict)


def analyze_escapes(program: Program,
                    legality: LegalityResult) -> EscapeResult:
    """Aggregate FE escape summaries and invalidate out-of-scope escapes.

    Mutates ``legality`` (adds ``ESCP`` to ``invalid_reasons``), mirroring
    how IPA marks invalid types in the type-unified symbol table.
    """
    defined = {fn.name for fn in program.functions()}
    result = EscapeResult()
    for info in legality.types.values():
        outside = {callee for callee in info.escapes_to
                   if callee not in defined}
        if outside:
            info.invalid_reasons.add(ESCAPE_REASON)
            result.escaped[info.name] = outside
    return result
