"""Whole-program container: the IPA compilation scope.

A :class:`Program` aggregates one or more translation units, a type-unified
record-type table, and the program-level symbol table.  Struct tags and
typedefs are shared across units (as if every unit included the same
headers), which is how the paper's IPA phase unifies types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .lexer import LexError, tokenize
from .parser import ParseError, Parser
from .sema import SemaError, SemanticAnalyzer
from .symbols import ProgramSymbols, FunctionSymbol, Symbol
from .typesys import RecordType, NamedType


@dataclass
class FrontendError:
    """One recovered frontend error: which unit, where, and what."""

    unit: str
    line: int
    message: str
    kind: str = "parse"          # lex | parse | sema

    def __str__(self) -> str:
        return f"{self.unit}:{self.line}: {self.message}"


@dataclass
class Program:
    units: list[ast.TranslationUnit] = field(default_factory=list)
    symbols: ProgramSymbols = field(default_factory=ProgramSymbols)
    records: dict[str, RecordType] = field(default_factory=dict)
    typedefs: dict[str, NamedType] = field(default_factory=dict)
    #: frontend errors collected in ``recover`` mode (empty otherwise)
    frontend_errors: list[FrontendError] = field(default_factory=list)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: list[tuple[str, str]],
                     recover: bool = False) -> "Program":
        """Build a program from ``[(unit_name, source_text), ...]``.

        With ``recover=True`` the frontend does not raise on broken
        input: the parser resynchronizes after each syntax error so
        *all* errors in a unit are reported, and every lex/parse/sema
        error is collected into :attr:`frontend_errors` (units that
        fail semantic analysis are dropped from the program).

        This is the serial front end.  The parallel one (per-unit
        isolated parses unified afterwards) runs as the compile's
        ``fe.parse`` and ``fe.assemble`` steps and falls back to this
        path whenever it cannot reproduce it exactly.
        """
        prog = cls()
        sema = SemanticAnalyzer(prog.symbols)
        for unit_name, text in sources:
            try:
                tokens = tokenize(text, unit_name)
            except LexError as err:
                if not recover:
                    raise
                prog.frontend_errors.append(FrontendError(
                    unit=unit_name, line=err.line, message=err.message,
                    kind="lex"))
                continue
            parser = Parser(tokens, unit_name, recover=recover)
            parser.struct_tags = prog.records
            parser.typedefs = prog.typedefs
            unit = parser.parse_translation_unit()
            prog.frontend_errors.extend(FrontendError(
                unit=unit_name, line=err.line, message=err.message)
                for err in parser.errors)
            try:
                sema.analyze(unit)
            except SemaError as err:
                if not recover:
                    raise
                prog.frontend_errors.append(FrontendError(
                    unit=unit_name, line=getattr(err, "line", 0),
                    message=str(err), kind="sema"))
                continue
            prog.units.append(unit)
        return prog

    @classmethod
    def from_source(cls, text: str, unit_name: str = "main.c",
                    recover: bool = False) -> "Program":
        return cls.from_sources([(unit_name, text)], recover=recover)

    # -- queries -------------------------------------------------------------

    def functions(self) -> list[ast.FunctionDef]:
        out: list[ast.FunctionDef] = []
        for unit in self.units:
            out.extend(unit.functions())
        return out

    def function(self, name: str) -> ast.FunctionDef:
        for fn in self.functions():
            if fn.name == name:
                return fn
        raise KeyError(f"no function {name!r}")

    def has_function(self, name: str) -> bool:
        return any(fn.name == name for fn in self.functions())

    def globals(self) -> list[ast.GlobalVar]:
        out: list[ast.GlobalVar] = []
        for unit in self.units:
            out.extend(unit.globals())
        return out

    def record_types(self) -> list[RecordType]:
        """All record types in the program, in definition order."""
        return list(self.records.values())

    def record(self, name: str) -> RecordType:
        return self.records[name]

    def function_symbol(self, name: str) -> FunctionSymbol | None:
        return self.symbols.functions.get(name)

    def global_symbol(self, name: str) -> Symbol | None:
        return self.symbols.globals.get(name)
