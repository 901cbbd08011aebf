"""Structured diagnostics: the compiler's fault-reporting spine.

The paper's central promise is that layout optimization can live inside
a *production* compiler — which above all means the optimizer never
takes a compilation down with it.  Every recoverable problem (a syntax
error the parser skipped past, an analysis pass that crashed and was
contained, a transformation rolled back by differential verification)
is recorded as a :class:`Diagnostic` instead of an ad-hoc ``raise`` or
``print``, and the full set travels with the
:class:`~repro.core.pipeline.CompilationResult`.

Severities:

- ``note``     — informational (e.g. verification skipped: no entry);
- ``warning``  — something was contained or rolled back; the result is
  valid but more conservative than planned;
- ``error``    — the input itself is broken (syntax / semantic errors,
  output mismatches reported by ``repro compare``);
- ``fatal``    — compilation could not produce a result at all (only
  raised in ``strict`` mode, via :class:`FatalCompilerError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: severity levels, mildest first
SEVERITIES = ("note", "warning", "error", "fatal")

#: machine-readable diagnostic codes
CODE_CONTAINED = "contained-fault"     # pass crashed; fallback substituted
CODE_BUDGET = "budget-overrun"         # pass exceeded its time/iteration cap
CODE_CORRUPT = "corrupt-summary"       # pass summary failed validation
CODE_ROLLBACK = "rollback"             # transform undone by verification
CODE_PARSE = "parse-error"             # frontend syntax/semantic error
CODE_MISMATCH = "output-mismatch"      # compare found diverging output
CODE_TRAP = "program-trap"            # a compared program could not run
CODE_VERIFY = "verify"                 # verification status notes
CODE_CACHE = "cache"                   # summary-cache events (corrupt entry
                                       # discarded, hit/miss accounting)
CODE_WORKER = "worker-fault"           # service worker crashed / went fatal
CODE_DEADLINE = "deadline-expired"     # request killed at its deadline
CODE_HANG = "worker-hang"              # heartbeat loss; worker killed
CODE_DEGRADED = "degraded"             # served from a lower ladder tier
CODE_BREAKER = "breaker-open"          # circuit breaker short-circuited a tier


@dataclass(frozen=True)
class SourceLoc:
    """Where a diagnostic points in the input, when known."""

    unit: str | None = None
    line: int | None = None

    def __str__(self) -> str:
        if self.unit is None and self.line is None:
            return ""
        if self.line is None:
            return str(self.unit)
        return f"{self.unit or '<input>'}:{self.line}"


@dataclass
class Diagnostic:
    """One structured report from any compilation phase."""

    severity: str                      # one of SEVERITIES
    phase: str                         # pass name: parse, legality, ...
    message: str
    loc: SourceLoc | None = None
    type_name: str | None = None       # affected record type, if any
    code: str | None = None            # machine-readable category
    action: str | None = None          # suggested next step for the user
    count: int = 1                     # occurrences collapsed into this entry

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def dedup_key(self) -> tuple:
        """Identity for collapsing repeats (retries re-emitting the same
        complaint at the same place collapse into one entry)."""
        return (self.severity, self.phase, self.message, self.code,
                str(self.loc) if self.loc is not None else None,
                self.type_name)

    def format(self, prog: str = "repro") -> str:
        """One-line rendering, clang style."""
        parts = [f"{prog}: {self.severity}:"]
        if self.loc is not None and str(self.loc):
            parts.append(f"{self.loc}:")
        parts.append(f"[{self.phase}]")
        if self.type_name:
            parts.append(f"struct {self.type_name}:")
        parts.append(self.message)
        text = " ".join(parts)
        if self.action:
            text += f" ({self.action})"
        if self.count > 1:
            text += f" [x{self.count}]"
        return text

    def to_dict(self) -> dict:
        """JSON-able form (the service wire format)."""
        d = {"severity": self.severity, "phase": self.phase,
             "message": self.message, "count": self.count}
        if self.loc is not None:
            d["unit"] = self.loc.unit
            d["line"] = self.loc.line
        for key in ("type_name", "code", "action"):
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Diagnostic":
        loc = None
        if d.get("unit") is not None or d.get("line") is not None:
            loc = SourceLoc(d.get("unit"), d.get("line"))
        return cls(severity=d["severity"], phase=d["phase"],
                   message=d["message"], loc=loc,
                   type_name=d.get("type_name"), code=d.get("code"),
                   action=d.get("action"), count=int(d.get("count", 1)))

    def __str__(self) -> str:
        return self.format()


class DiagnosticEngine:
    """Collects diagnostics across every phase of one compilation."""

    def __init__(self, max_diagnostics: int = 1000):
        self.diagnostics: list[Diagnostic] = []
        self.max_diagnostics = max_diagnostics
        self._overflowed = False
        self._index: dict[tuple, Diagnostic] = {}

    # -- emission ---------------------------------------------------------

    def emit(self, diag: Diagnostic) -> Diagnostic:
        """Record one diagnostic, collapsing exact repeats.

        A diagnostic identical in severity, phase, message, code,
        location and affected type to one already recorded (a retry
        re-running a pass, a loop re-reporting the same complaint) does
        not grow the list: the existing entry's ``count`` is bumped and
        returned instead."""
        key = diag.dedup_key()
        existing = self._index.get(key)
        if existing is not None:
            existing.count += diag.count
            return existing
        if len(self.diagnostics) >= self.max_diagnostics:
            self._overflowed = True
            return diag
        self.diagnostics.append(diag)
        self._index[key] = diag
        return diag

    def report(self, severity: str, phase: str, message: str, *,
               unit: str | None = None, line: int | None = None,
               type_name: str | None = None, code: str | None = None,
               action: str | None = None) -> Diagnostic:
        loc = SourceLoc(unit, line) if unit is not None or \
            line is not None else None
        return self.emit(Diagnostic(
            severity=severity, phase=phase, message=message, loc=loc,
            type_name=type_name, code=code, action=action))

    def note(self, phase: str, message: str, **kw) -> Diagnostic:
        return self.report("note", phase, message, **kw)

    def warning(self, phase: str, message: str, **kw) -> Diagnostic:
        return self.report("warning", phase, message, **kw)

    def error(self, phase: str, message: str, **kw) -> Diagnostic:
        return self.report("error", phase, message, **kw)

    def fatal(self, phase: str, message: str, **kw) -> Diagnostic:
        return self.report("fatal", phase, message, **kw)

    # -- queries ----------------------------------------------------------

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity in ("error", "fatal")]

    def warnings(self) -> list[Diagnostic]:
        return self.by_severity("warning")

    @property
    def has_errors(self) -> bool:
        return any(d.severity in ("error", "fatal")
                   for d in self.diagnostics)

    def by_phase(self, phase: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.phase == phase]

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def contained(self) -> list[Diagnostic]:
        """Diagnostics recording a contained fault of any kind."""
        return [d for d in self.diagnostics
                if d.code in (CODE_CONTAINED, CODE_BUDGET, CODE_CORRUPT)]

    def rollbacks(self) -> list[Diagnostic]:
        return self.by_code(CODE_ROLLBACK)

    def merge(self, other: "DiagnosticEngine") -> None:
        for d in other.diagnostics:
            self.emit(d)

    # -- rendering ---------------------------------------------------------

    def render(self, min_severity: str = "note") -> str:
        """All diagnostics at or above ``min_severity``, one per line."""
        floor = SEVERITIES.index(min_severity)
        lines = [d.format() for d in self.diagnostics
                 if SEVERITIES.index(d.severity) >= floor]
        if self._overflowed:
            lines.append("repro: note: further diagnostics suppressed "
                         f"(limit {self.max_diagnostics})")
        return "\n".join(lines)

    def summary(self) -> str:
        e, w, n = (len(self.errors()), len(self.warnings()),
                   len(self.by_severity("note")))
        return f"{e} error(s), {w} warning(s), {n} note(s)"

    def __repr__(self) -> str:
        return f"<DiagnosticEngine {self.summary()}>"


class FatalCompilerError(Exception):
    """Raised in ``strict`` mode when a contained fault is promoted to a
    hard failure; carries the phase and the original exception."""

    def __init__(self, phase: str, message: str,
                 cause: BaseException | None = None):
        super().__init__(f"[{phase}] {message}")
        self.phase = phase
        self.cause = cause
