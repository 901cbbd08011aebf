"""Symbols and scopes for MiniC name resolution."""

from __future__ import annotations

from dataclasses import dataclass, field

from .typesys import Type, FunctionType


@dataclass(eq=False)
class Symbol:
    """A named program entity.  ``eq=False`` gives identity semantics so
    symbols can key dictionaries in the analyses."""

    name: str
    type: Type
    kind: str = "local"          # 'local', 'param', 'global', 'func'
    unit: str = ""               # defining translation unit
    is_static: bool = False
    #: unique id assigned by the program-level symbol table
    uid: int = -1

    @property
    def is_function(self) -> bool:
        return self.kind == "func"

    def __repr__(self) -> str:
        return f"<{self.kind} {self.name}: {self.type}>"


@dataclass(eq=False)
class FunctionSymbol(Symbol):
    kind: str = "func"
    is_builtin: bool = False
    is_libc: bool = False        # marked specially, like HP-UX headers do

    @property
    def ftype(self) -> FunctionType:
        return self.type  # type: ignore[return-value]


class Scope:
    """One lexical scope; lookups walk outward through ``parent``."""

    def __init__(self, parent: "Scope | None" = None):
        self.parent = parent
        self.symbols: dict[str, Symbol] = {}

    def define(self, sym: Symbol) -> Symbol:
        if sym.name in self.symbols:
            raise KeyError(f"redefinition of {sym.name!r}")
        self.symbols[sym.name] = sym
        return sym

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            sym = scope.symbols.get(name)
            if sym is not None:
                return sym
            scope = scope.parent
        return None


@dataclass
class ProgramSymbols:
    """The IPA-level, type-unified symbol table."""

    globals: dict[str, Symbol] = field(default_factory=dict)
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    _next_uid: int = 0

    def intern(self, sym: Symbol) -> Symbol:
        table = self.functions if sym.is_function else self.globals
        existing = table.get(sym.name)
        if existing is not None:
            return existing
        sym.uid = self._next_uid
        self._next_uid += 1
        table[sym.name] = sym  # type: ignore[assignment]
        return sym
