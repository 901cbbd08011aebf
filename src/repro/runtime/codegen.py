"""Closure-compiling interpreter for lowered MiniC programs.

Each function's CFG is compiled into a list of Python closures, one per
basic block; running a program is a tight ``while`` loop threading a
block id.  Every memory access goes through the machine's cache
hierarchy for cycle accounting and PMU sampling, so structure-layout
changes show up as cache-behaviour changes exactly as on hardware.

Cycle model: every executed basic block charges a static cost equal to
its number of AST operation nodes (so transformed code that executes
extra link-pointer dereferences pays for the extra instructions), plus
the dynamic cache latency of each memory access, plus small fixed costs
for calls and allocator operations.
"""

from __future__ import annotations

from ..frontend import ast
from ..frontend.typesys import Type, IntType
from ..ir.cfg import FunctionCFG, lower_program
from .machine import Machine, SiteInfo, ExitProgram, StepLimitExceeded

CALL_COST = 3
ALLOC_COST = 40
FREE_COST = 20
MATH_COST = 20


class CompileError(Exception):
    pass


def _count_nodes(e: ast.Expr) -> int:
    return sum(1 for _ in ast.walk_expr(e))


def _cdiv(a, b):
    """C division: truncation toward zero for ints."""
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _cmod(a, b):
    return a - _cdiv(a, b) * b


_BIN_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _cdiv,
    "%": _cmod,
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
}


def _make_wrap(t: Type):
    """Return a wrapping function for stores of type ``t`` (or None)."""
    t = t.strip()
    if isinstance(t, IntType) and (t.size < 8 or not t.signed):
        bits = 8 * t.size
        mask = (1 << bits) - 1
        if t.signed:
            half = 1 << (bits - 1)
            full = 1 << bits

            def wrap(v, mask=mask, half=half, full=full):
                v = int(v) & mask
                return v - full if v >= half else v
            return wrap
        return lambda v, mask=mask: int(v) & mask
    return None


def _is_lvalue(e: ast.Expr) -> bool:
    return isinstance(e, (ast.Ident, ast.Member, ast.Index)) or \
        (isinstance(e, ast.Unary) and e.op == "*")


def _elem_size(t: Type) -> int:
    t = t.strip()
    if t.is_pointer():
        return max(t.pointee.size, 1)
    if t.is_array():
        return max(t.elem.size, 1)
    raise CompileError(f"pointer arithmetic on non-pointer {t}")


class CompiledFunction:
    """A function compiled to block closures."""

    def __init__(self, name: str, machine: Machine):
        self.name = name
        self.machine = machine
        self.nslots = 1
        self.entry_id = 0
        self.blocks: list = []
        #: [(slot, size, align)] memory-resident locals
        self.stack_allocs: list[tuple[int, int, int]] = []
        #: [(slot, is_mem, is_float)] in parameter order
        self.param_slots: list[tuple[int, bool, bool]] = []
        self.fid = machine.register_function(self)

    def call(self, args: list) -> object:
        m = self.machine
        m.cycles += CALL_COST
        env = [0] * self.nslots
        sp_save = m.sp
        sp = m.sp
        for slot, size, align in self.stack_allocs:
            addr = (sp + align - 1) // align * align
            env[slot] = addr
            sp = addr + size
        m.sp = sp
        for (slot, is_mem, is_float), value in zip(self.param_slots, args):
            if is_mem:
                m.mem_write(env[slot], value, is_float, 0)
            else:
                env[slot] = value
        bid = self.entry_id
        blocks = self.blocks
        limit = m.cycle_limit
        while bid is not None:
            if m.cycles > limit:
                raise StepLimitExceeded(
                    f"cycle limit exceeded in {self.name}")
            bid = blocks[bid](env)
        m.sp = sp_save
        return env[0]

    def __repr__(self) -> str:
        return f"<compiled {self.name}>"


class _FunctionCompiler:
    """Compiles one FunctionCFG into a CompiledFunction."""

    def __init__(self, prog_compiler: "CompiledProgram", cfg: FunctionCFG,
                 shell: CompiledFunction | None = None):
        self.pc = prog_compiler
        self.cfg = cfg
        self.m = prog_compiler.machine
        self.cf = shell if shell is not None \
            else CompiledFunction(cfg.name, self.m)
        self.slots: dict[object, int] = {}   # Symbol -> env slot
        self.mem_symbols: set = set()        # memory-resident locals/params

    # -- slot assignment -------------------------------------------------

    def assign_slots(self) -> None:
        fn = self.cfg.fn
        addr_taken = set()
        for e in ast.function_exprs(fn):
            if isinstance(e, ast.Unary) and e.op == "&" and \
                    isinstance(e.operand, ast.Ident):
                sym = e.operand.symbol
                if sym is not None and sym.kind in ("local", "param"):
                    addr_taken.add(sym)

        def needs_memory(sym) -> bool:
            t = sym.type.strip()
            return sym in addr_taken or t.is_array() or t.is_record()

        next_slot = 1
        for p in fn.params:
            sym = p.symbol
            self.slots[sym] = next_slot
            is_mem = needs_memory(sym)
            if is_mem:
                self.mem_symbols.add(sym)
                t = sym.type.strip()
                self.cf.stack_allocs.append(
                    (next_slot, max(t.size, 8), max(t.align, 8)))
            self.cf.param_slots.append(
                (next_slot, is_mem, sym.type.strip().is_float()))
            next_slot += 1

        for b in self.cfg.blocks:
            for s in b.stmts:
                if isinstance(s, ast.DeclStmt):
                    sym = s.symbol
                    self.slots[sym] = next_slot
                    if needs_memory(sym):
                        self.mem_symbols.add(sym)
                        t = sym.type.strip()
                        self.cf.stack_allocs.append(
                            (next_slot, max(t.size, 8), max(t.align, 8)))
                    next_slot += 1
        self.cf.nslots = next_slot

    # -- site helper --------------------------------------------------------

    def site(self, line: int, record: str | None, field: str | None,
             is_float: bool, is_write: bool) -> int:
        return self.pc.new_site(self.cfg.name, line, record, field,
                                is_float, is_write)

    # -- addresses (lvalues) ------------------------------------------------

    def addr(self, e: ast.Expr):
        """Compile an lvalue to an address closure."""
        if isinstance(e, ast.Ident):
            sym = e.symbol
            if sym.kind == "global":
                a = self.pc.global_addr(sym)
                return lambda env, a=a: a
            if sym in self.mem_symbols:
                i = self.slots[sym]
                return lambda env, i=i: env[i]
            raise CompileError(
                f"address of register variable {sym.name} "
                f"(should have been memory-resident)")
        if isinstance(e, ast.Member):
            rec = e.record
            f = rec.field(e.name)
            off = f.offset
            if e.arrow:
                base = self.rvalue(e.base)
            else:
                base = self.addr(e.base)
            if off == 0:
                return base
            return lambda env, base=base, off=off: base(env) + off
        if isinstance(e, ast.Index):
            base_t = e.base.type.strip()
            esize = _elem_size(base_t)
            if base_t.is_array():
                base = self.addr(e.base) if _is_lvalue(e.base) \
                    else self.rvalue(e.base)
            else:
                base = self.rvalue(e.base)
            idx = self.rvalue(e.index)
            return lambda env, base=base, idx=idx, esize=esize: \
                base(env) + idx(env) * esize
        if isinstance(e, ast.Unary) and e.op == "*":
            return self.rvalue(e.operand)
        if isinstance(e, ast.Cast):
            return self.addr(e.operand)
        raise CompileError(
            f"line {e.line}: {type(e).__name__} is not an lvalue")

    # -- loads ---------------------------------------------------------------

    def load_at(self, addr_fn, e: ast.Expr, record: str | None,
                field: str | None):
        """Compile a load of ``e.type`` from the address closure."""
        t = e.type.strip()
        if t.is_array() or t.is_record():
            return addr_fn          # arrays/structs decay to their address
        is_float = t.is_float()
        site = self.site(e.line, record, field, is_float, False)
        m = self.m
        mr = m.mem_read
        # bit-field loads read the unit then extract
        if isinstance(e, ast.Member):
            f = e.record.field(e.name)
            if f.is_bitfield:
                bo = f.bit_offset

                def load_bits(env, addr_fn=addr_fn, m=m, mr=mr, site=site,
                              bo=bo):
                    a = addr_fn(env)
                    mr(a, False, site)
                    return m.memory.bit_cells.get((a, bo), 0)
                return load_bits
        return lambda env, addr_fn=addr_fn, mr=mr, site=site, \
            is_float=is_float: mr(addr_fn(env), is_float, site)

    def store_at(self, addr_fn, value_fn, e: ast.Expr,
                 record: str | None, field: str | None):
        """Compile a store of ``value_fn`` into the lvalue ``e``."""
        t = e.type.strip()
        is_float = t.is_float()
        site = self.site(e.line, record, field, is_float, True)
        m = self.m
        mw = m.mem_write
        if isinstance(e, ast.Member):
            f = e.record.field(e.name)
            if f.is_bitfield:
                bo = f.bit_offset
                width = f.bit_width
                mask = (1 << width) - 1
                half = 1 << (width - 1)
                full = 1 << width
                signed = f.type.strip().signed

                def store_bits(env, addr_fn=addr_fn, value_fn=value_fn,
                               m=m, mw=mw, site=site, bo=bo, mask=mask,
                               half=half, full=full, signed=signed):
                    a = addr_fn(env)
                    v = int(value_fn(env)) & mask
                    if signed and v >= half:
                        v -= full
                    mw(a, m.memory.cells.get(a, 0), False, site)
                    m.memory.bit_cells[(a, bo)] = v
                    return v
                return store_bits
        if is_float:
            return lambda env, addr_fn=addr_fn, value_fn=value_fn, mw=mw, \
                site=site: _store_ret(mw, addr_fn(env),
                                      float(value_fn(env)), True, site)
        wrap = _make_wrap(t)
        if wrap is not None:
            return lambda env, addr_fn=addr_fn, value_fn=value_fn, mw=mw, \
                site=site, wrap=wrap: _store_ret(
                    mw, addr_fn(env), wrap(value_fn(env)), False, site)
        return lambda env, addr_fn=addr_fn, value_fn=value_fn, mw=mw, \
            site=site: _store_ret(mw, addr_fn(env), value_fn(env), False,
                                  site)

    # -- rvalues ---------------------------------------------------------------

    def rvalue(self, e: ast.Expr):
        if isinstance(e, ast.IntLit):
            v = e.value
            return lambda env, v=v: v
        if isinstance(e, ast.FloatLit):
            v = e.value
            return lambda env, v=v: v
        if isinstance(e, ast.NullLit):
            return lambda env: 0
        if isinstance(e, ast.StrLit):
            a = self.pc.string_addr(e.value)
            return lambda env, a=a: a
        if isinstance(e, ast.Ident):
            return self._rvalue_ident(e)
        if isinstance(e, ast.Member):
            rec = e.record
            return self.load_at(self.addr(e), e, rec.name, e.name)
        if isinstance(e, ast.Index):
            record, field = self._index_field_info(e)
            return self.load_at(self.addr(e), e, record, field)
        if isinstance(e, ast.Unary):
            return self._rvalue_unary(e)
        if isinstance(e, ast.Binary):
            return self._rvalue_binary(e)
        if isinstance(e, ast.Assign):
            return self.assign(e)
        if isinstance(e, ast.Conditional):
            c = self.rvalue(e.cond)
            a = self.rvalue(e.then)
            b = self.rvalue(e.els)
            return lambda env, c=c, a=a, b=b: a(env) if c(env) else b(env)
        if isinstance(e, ast.Comma):
            parts = [self.rvalue(p) for p in e.parts]
            last = parts[-1]
            rest = tuple(parts[:-1])

            def comma(env, rest=rest, last=last):
                for p in rest:
                    p(env)
                return last(env)
            return comma
        if isinstance(e, ast.Call):
            return self.call_expr(e)
        if isinstance(e, ast.Cast):
            return self._rvalue_cast(e)
        if isinstance(e, ast.SizeofType):
            v = e.of.strip().size
            return lambda env, v=v: v
        if isinstance(e, ast.SizeofExpr):
            v = e.operand.type.strip().size
            return lambda env, v=v: v
        raise CompileError(f"cannot compile {type(e).__name__}")

    def _index_field_info(self, e: ast.Index):
        """Attribute array loads of struct fields (``p[i].f`` handled by
        Member; plain scalar arrays have no field)."""
        return None, None

    def _rvalue_ident(self, e: ast.Ident):
        sym = e.symbol
        t = sym.type.strip()
        if sym.is_function:
            compiled = self.pc.compiled.get(sym.name)
            if compiled is None:
                # builtins used as values are not supported
                raise CompileError(
                    f"line {e.line}: cannot take value of builtin "
                    f"{sym.name}")
            fid = compiled.fid
            return lambda env, fid=fid: fid
        if sym.kind == "global":
            a = self.pc.global_addr(sym)
            if t.is_array() or t.is_record():
                return lambda env, a=a: a
            site = self.site(e.line, None, sym.name, t.is_float(), False)
            mr = self.m.mem_read
            return lambda env, a=a, mr=mr, site=site, \
                fl=t.is_float(): mr(a, fl, site)
        i = self.slots[sym]
        if sym in self.mem_symbols:
            if t.is_array() or t.is_record():
                return lambda env, i=i: env[i]
            site = self.site(e.line, None, sym.name, t.is_float(), False)
            mr = self.m.mem_read
            return lambda env, i=i, mr=mr, site=site, \
                fl=t.is_float(): mr(env[i], fl, site)
        return lambda env, i=i: env[i]

    def _rvalue_unary(self, e: ast.Unary):
        op = e.op
        if op == "&":
            if isinstance(e.operand, ast.Ident) and \
                    e.operand.symbol.is_function:
                return self._rvalue_ident(e.operand)
            return self.addr(e.operand)
        if op == "*":
            ptr = self.rvalue(e.operand)
            rec_name = None
            pt = e.operand.type.strip()
            if pt.is_pointer() and pt.pointee.strip().is_record():
                rec_name = pt.pointee.strip().name
            return self.load_at(ptr, e, rec_name, None)
        if op == "-":
            v = self.rvalue(e.operand)
            return lambda env, v=v: -v(env)
        if op == "!":
            v = self.rvalue(e.operand)
            return lambda env, v=v: 1 if not v(env) else 0
        if op == "~":
            v = self.rvalue(e.operand)
            return lambda env, v=v: ~int(v(env))
        if op in ("++", "--", "p++", "p--"):
            return self._incdec(e)
        raise CompileError(f"unary {op}")

    def _incdec(self, e: ast.Unary):
        t = e.operand.type.strip()
        step = _elem_size(t) if t.is_pointer() else 1
        delta = step if e.op in ("++", "p++") else -step
        post = e.op.startswith("p")
        target = e.operand
        if isinstance(target, ast.Ident) and \
                target.symbol.kind != "global" and \
                target.symbol not in self.mem_symbols:
            i = self.slots[target.symbol]
            if post:
                def run(env, i=i, d=delta):
                    v = env[i]
                    env[i] = v + d
                    return v
            else:
                def run(env, i=i, d=delta):
                    v = env[i] + d
                    env[i] = v
                    return v
            return run
        addr_fn = self.addr(target)
        # read-modify-write with a single address computation
        record = field = None
        if isinstance(target, ast.Member):
            record, field = target.record.name, target.name
        is_float = t.is_float()
        rsite = self.site(e.line, record, field, is_float, False)
        wsite = self.site(e.line, record, field, is_float, True)
        mr = self.m.mem_read
        mw = self.m.mem_write

        def rmw(env, addr_fn=addr_fn, mr=mr, mw=mw, d=delta, post=post,
                rsite=rsite, wsite=wsite, fl=is_float):
            a = addr_fn(env)
            v = mr(a, fl, rsite)
            nv = v + d
            mw(a, nv, fl, wsite)
            return v if post else nv
        return rmw

    def _rvalue_binary(self, e: ast.Binary):
        op = e.op
        if op == "&&":
            l = self.rvalue(e.left)
            r = self.rvalue(e.right)
            return lambda env, l=l, r=r: 1 if (l(env) and r(env)) else 0
        if op == "||":
            l = self.rvalue(e.left)
            r = self.rvalue(e.right)
            return lambda env, l=l, r=r: 1 if (l(env) or r(env)) else 0
        lt = e.left.type.strip()
        rt = e.right.type.strip()
        l = self.rvalue(e.left)
        r = self.rvalue(e.right)
        # pointer arithmetic
        if op in ("+", "-") and (lt.is_pointer() or lt.is_array()):
            if rt.is_integer():
                esize = _elem_size(lt)
                if op == "+":
                    return lambda env, l=l, r=r, s=esize: \
                        l(env) + r(env) * s
                return lambda env, l=l, r=r, s=esize: l(env) - r(env) * s
            if op == "-" and (rt.is_pointer() or rt.is_array()):
                esize = _elem_size(lt)
                return lambda env, l=l, r=r, s=esize: \
                    (l(env) - r(env)) // s
        if op == "+" and (rt.is_pointer() or rt.is_array()):
            esize = _elem_size(rt)
            return lambda env, l=l, r=r, s=esize: r(env) + l(env) * s
        fn = _BIN_OPS[op]
        return lambda env, l=l, r=r, fn=fn: fn(l(env), r(env))

    def _rvalue_cast(self, e: ast.Cast):
        v = self.rvalue(e.operand)
        to = e.to.strip()
        frm = e.operand.type.strip()
        if to.is_float():
            if frm.is_float():
                return v
            return lambda env, v=v: float(v(env))
        if to.is_integer():
            wrap = _make_wrap(to)
            if frm.is_float():
                if wrap is not None:
                    return lambda env, v=v, w=wrap: w(int(v(env)))
                return lambda env, v=v: int(v(env))
            if wrap is not None:
                return lambda env, v=v, w=wrap: w(v(env))
            return v
        return v      # pointer casts are value-preserving

    # -- assignment ---------------------------------------------------------

    def assign(self, e: ast.Assign):
        target = e.target
        if e.op == "=":
            value = self.rvalue(e.value)
        else:
            # compound: build target OP value with one address computation
            return self._compound_assign(e)
        if isinstance(target, ast.Ident):
            sym = target.symbol
            t = sym.type.strip()
            if sym.kind != "global" and sym not in self.mem_symbols:
                i = self.slots[sym]
                if t.is_float():
                    def seti(env, i=i, value=value):
                        v = float(value(env))
                        env[i] = v
                        return v
                    return seti

                def set_reg(env, i=i, value=value):
                    v = value(env)
                    env[i] = v
                    return v
                return set_reg
            return self.store_at(self.addr(target), value, target,
                                 None, sym.name)
        record = field = None
        if isinstance(target, ast.Member):
            record, field = target.record.name, target.name
        elif isinstance(target, ast.Unary) and target.op == "*":
            pt = target.operand.type.strip()
            if pt.is_pointer() and pt.pointee.strip().is_record():
                record = pt.pointee.strip().name
        return self.store_at(self.addr(target), value, target,
                             record, field)

    def _compound_assign(self, e: ast.Assign):
        op = e.op[:-1]
        fn = _BIN_OPS[op]
        target = e.target
        value = self.rvalue(e.value)
        t = target.type.strip()
        # pointer += int
        if t.is_pointer() and op in ("+", "-"):
            esize = _elem_size(t)
            base_fn = fn

            def fn(a, b, base_fn=base_fn, esize=esize):
                return base_fn(a, b * esize)
        if isinstance(target, ast.Ident):
            sym = target.symbol
            if sym.kind != "global" and sym not in self.mem_symbols:
                i = self.slots[sym]
                if t.is_float():
                    def rmw_reg_f(env, i=i, value=value, fn=fn):
                        v = float(fn(env[i], value(env)))
                        env[i] = v
                        return v
                    return rmw_reg_f

                def rmw_reg(env, i=i, value=value, fn=fn):
                    v = fn(env[i], value(env))
                    env[i] = v
                    return v
                return rmw_reg
        record = field = None
        if isinstance(target, ast.Member):
            record, field = target.record.name, target.name
        elif isinstance(target, ast.Ident):
            record, field = None, target.symbol.name
        addr_fn = self.addr(target)
        is_float = t.is_float()
        rsite = self.site(e.line, record, field, is_float, False)
        wsite = self.site(e.line, record, field, is_float, True)
        wrap = _make_wrap(t)
        m = self.m
        mr = m.mem_read
        mw = m.mem_write

        if isinstance(target, ast.Member) and \
                target.record.field(target.name).is_bitfield:
            f = target.record.field(target.name)
            bo, width = f.bit_offset, f.bit_width
            mask = (1 << width) - 1

            def rmw_bits(env, addr_fn=addr_fn, value=value, fn=fn, m=m,
                         mr=mr, mw=mw, rsite=rsite, wsite=wsite, bo=bo,
                         mask=mask):
                a = addr_fn(env)
                mr(a, False, rsite)
                old = m.memory.bit_cells.get((a, bo), 0)
                nv = int(fn(old, value(env))) & mask
                mw(a, m.memory.cells.get(a, 0), False, wsite)
                m.memory.bit_cells[(a, bo)] = nv
                return nv
            return rmw_bits

        if is_float:
            def rmw_f(env, addr_fn=addr_fn, value=value, fn=fn, mr=mr,
                      mw=mw, rsite=rsite, wsite=wsite):
                a = addr_fn(env)
                v = float(fn(mr(a, True, rsite), value(env)))
                mw(a, v, True, wsite)
                return v
            return rmw_f

        if wrap is not None:
            def rmw_w(env, addr_fn=addr_fn, value=value, fn=fn, mr=mr,
                      mw=mw, rsite=rsite, wsite=wsite, wrap=wrap):
                a = addr_fn(env)
                v = wrap(fn(mr(a, False, rsite), value(env)))
                mw(a, v, False, wsite)
                return v
            return rmw_w

        def rmw(env, addr_fn=addr_fn, value=value, fn=fn, mr=mr, mw=mw,
                rsite=rsite, wsite=wsite):
            a = addr_fn(env)
            v = fn(mr(a, False, rsite), value(env))
            mw(a, v, False, wsite)
            return v
        return rmw

    # -- calls -----------------------------------------------------------------

    def call_expr(self, e: ast.Call):
        args = [self.rvalue(a) for a in e.args]
        name = e.resolved_callee
        m = self.m
        if name is not None:
            if name in self.pc.cfgs:
                shell = self.pc.compiled[name]
                return _make_direct_call(shell, args)
            builtin = self.pc.builtins.get(name)
            if builtin is None:
                # external function outside the program (the legality
                # analysis flags types escaping here): model it as an
                # opaque call that consumes its arguments and returns 0
                at = tuple(args)

                def external(env, at=at, m=m):
                    for a in at:
                        a(env)
                    m.cycles += 10
                    return 0
                return external
            at = tuple(args)
            return lambda env, b=builtin, at=at, m=m: \
                b(m, [a(env) for a in at])
        func = self.rvalue(e.func)
        at = tuple(args)

        def indirect(env, func=func, at=at, m=m):
            fid = func(env)
            target = m.func_table.get(fid)
            if target is None:
                raise ExitProgram(127)
            return target.call([a(env) for a in at])
        return indirect

    # -- statements ---------------------------------------------------------

    def stmt(self, s: ast.Stmt):
        if isinstance(s, ast.ExprStmt):
            return self.rvalue(s.expr)
        if isinstance(s, ast.DeclStmt):
            sym = s.symbol
            i = self.slots[sym]
            t = sym.type.strip()
            if s.init is not None:
                init = self.rvalue(s.init)
                if sym in self.mem_symbols:
                    site = self.site(s.line, None, sym.name,
                                     t.is_float(), True)
                    mw = self.m.mem_write
                    fl = t.is_float()
                    return lambda env, i=i, init=init, mw=mw, site=site, \
                        fl=fl: mw(env[i], init(env), fl, site)
                if t.is_float():
                    def initf(env, i=i, init=init):
                        env[i] = float(init(env))
                    return initf

                def initr(env, i=i, init=init):
                    env[i] = init(env)
                return initr
            if sym not in self.mem_symbols:
                def zero(env, i=i):
                    env[i] = 0
                return zero
            return None
        raise CompileError(f"cannot compile stmt {type(s).__name__}")

    # -- blocks / terminators -------------------------------------------------

    def compile(self) -> CompiledFunction:
        self.assign_slots()
        cfg = self.cfg
        reachable = {b.id for b in cfg.reachable_blocks()}
        table: list = [None] * len(cfg.blocks)
        for b in cfg.blocks:
            if b.id not in reachable:
                table[b.id] = _unreachable_block
                continue
            stmts = [c for c in (self.stmt(s) for s in b.stmts)
                     if c is not None]
            term = self.terminator(b)
            cost = self.block_cost(b)
            table[b.id] = _make_block(tuple(stmts), term, cost, self.m)
        self.cf.blocks = table
        self.cf.entry_id = cfg.entry.id
        return self.cf

    def block_cost(self, b) -> int:
        cost = 1
        for e in self.cfg.block_exprs(b):
            cost += _count_nodes(e)
        return cost

    def terminator(self, b):
        m = self.m
        prof = m.profiler
        fname = self.cfg.name
        if not b.term or b.term[0] == "jump":
            succ = [e for e in b.succs]
            if not succ:
                return lambda env: None
            dst = succ[0].dst.id
            if prof is not None:
                ctr = prof.counter_for(fname, b.id, dst)
                return lambda env, prof=prof, f=fname, s=b.id, d=dst, \
                    ctr=ctr: (prof.bump(f, s, d, ctr), d)[1]
            return lambda env, d=dst: d
        if b.term[0] == "branch":
            cond = self.rvalue(b.term[1])
            t_dst = next(e.dst.id for e in b.succs if e.kind == "true")
            f_dst = next(e.dst.id for e in b.succs if e.kind == "false")
            if prof is not None:
                tc = prof.counter_for(fname, b.id, t_dst)
                fc = prof.counter_for(fname, b.id, f_dst)

                def br_prof(env, cond=cond, prof=prof, f=fname, s=b.id,
                            td=t_dst, fd=f_dst, tc=tc, fc=fc):
                    if cond(env):
                        prof.bump(f, s, td, tc)
                        return td
                    prof.bump(f, s, fd, fc)
                    return fd
                return br_prof
            return lambda env, cond=cond, td=t_dst, fd=f_dst: \
                td if cond(env) else fd
        if b.term[0] == "return":
            value = self.rvalue(b.term[1]) if b.term[1] is not None \
                else None
            exit_id = self.cfg.exit.id
            if prof is not None:
                ctr = prof.counter_for(fname, b.id, exit_id)
                if value is None:
                    return lambda env, prof=prof, f=fname, s=b.id, \
                        d=exit_id, ctr=ctr: prof.bump(f, s, d, ctr)

                def ret_prof(env, value=value, prof=prof, f=fname,
                             s=b.id, d=exit_id, ctr=ctr):
                    env[0] = value(env)
                    prof.bump(f, s, d, ctr)
                    return None
                return ret_prof
            if value is None:
                return lambda env: None

            def ret(env, value=value):
                env[0] = value(env)
                return None
            return ret
        raise CompileError(f"unknown terminator {b.term}")


def _store_ret(mw, a, v, fl, site):
    mw(a, v, fl, site)
    return v


def _make_direct_call(shell: CompiledFunction, args):
    at = tuple(args)
    if not at:
        return lambda env, shell=shell: shell.call(())
    if len(at) == 1:
        a0 = at[0]
        return lambda env, shell=shell, a0=a0: shell.call((a0(env),))
    return lambda env, shell=shell, at=at: \
        shell.call([a(env) for a in at])


def _make_block(stmts, term, cost, machine):
    if not stmts:
        def run_empty(env, m=machine, cost=cost, term=term):
            m.cycles += cost
            return term(env)
        return run_empty
    if len(stmts) == 1:
        s0 = stmts[0]

        def run_one(env, m=machine, cost=cost, s0=s0, term=term):
            m.cycles += cost
            s0(env)
            return term(env)
        return run_one

    def run(env, m=machine, cost=cost, stmts=stmts, term=term):
        m.cycles += cost
        for s in stmts:
            s(env)
        return term(env)
    return run


def _unreachable_block(env):
    raise RuntimeError("executed unreachable block")


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def _printf_impl(m: Machine, fmt: str, args: list) -> str:
    out: list[str] = []
    i = 0
    ai = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        j = i + 1
        spec: list[str] = []
        while j < n and fmt[j] in "-+ 0123456789.*lhz":
            spec.append(fmt[j])
            j += 1
        if j >= n:
            out.append("%")
            break
        conv = fmt[j]
        flags = "".join(c for c in spec if c not in "lhz")
        if conv == "%":
            out.append("%")
        else:
            arg = args[ai] if ai < len(args) else 0
            ai += 1
            if conv in "di":
                out.append(("%" + flags + "d") % int(arg))
            elif conv == "u":
                out.append(("%" + flags + "d") % (int(arg) & ((1 << 64) - 1)))
            elif conv in "fFgGeE":
                out.append(("%" + flags + conv) % float(arg))
            elif conv == "s":
                out.append(("%" + flags + "s") % m.memory.read_string(
                    int(arg)))
            elif conv == "c":
                out.append(chr(int(arg) & 0xFF))
            elif conv in "xX":
                out.append(("%" + flags + conv) % int(arg))
            elif conv == "p":
                out.append(hex(int(arg)))
            else:
                out.append(conv)
        i = j + 1
    return "".join(out)


def _touch_lines(m: Machine, addr: int, size: int, is_write: bool) -> None:
    """Charge cache traffic for a memory-streaming operation."""
    line = m.cache.config.levels[-1].line_size
    a = addr - addr % line
    while a < addr + size:
        m.cycles += m.cache.access(a, False, is_write, 0)
        a += line


def make_builtins() -> dict:
    import math

    def b_malloc(m, a):
        m.cycles += ALLOC_COST
        return m.memory.malloc(int(a[0]))

    def b_calloc(m, a):
        m.cycles += ALLOC_COST
        size = int(a[0]) * int(a[1])
        addr = m.memory.calloc(a[0], a[1])
        _touch_lines(m, addr, min(size, 4096), True)
        return addr

    def b_free(m, a):
        m.cycles += FREE_COST
        m.memory.free(int(a[0]))
        return 0

    def b_realloc(m, a):
        m.cycles += ALLOC_COST
        return m.memory.realloc(int(a[0]), int(a[1]))

    def b_memset(m, a):
        size = int(a[2])
        m.memory.memset(int(a[0]), int(a[1]), size)
        _touch_lines(m, int(a[0]), size, True)
        return a[0]

    def b_memcpy(m, a):
        size = int(a[2])
        m.memory.memcpy(int(a[0]), int(a[1]), size)
        _touch_lines(m, int(a[1]), size, False)
        _touch_lines(m, int(a[0]), size, True)
        return a[0]

    def b_printf(m, a):
        fmt = m.memory.read_string(int(a[0]))
        text = _printf_impl(m, fmt, a[1:])
        m.output.append(text)
        m.cycles += 100 + len(text)
        return len(text)

    def b_fprintf(m, a):
        fmt = m.memory.read_string(int(a[1]))
        text = _printf_impl(m, fmt, a[2:])
        m.output.append(text)
        m.cycles += 100 + len(text)
        return len(text)

    def b_exit(m, a):
        raise ExitProgram(int(a[0]) if a else 0)

    def b_abort(m, a):
        raise ExitProgram(134)

    def _math1(fn):
        def run(m, a, fn=fn):
            m.cycles += MATH_COST
            return fn(float(a[0]))
        return run

    def b_pow(m, a):
        m.cycles += MATH_COST
        return float(a[0]) ** float(a[1])

    def b_abs(m, a):
        return abs(int(a[0]))

    def b_rand(m, a):
        return m.rand()

    def b_srand(m, a):
        m.srand(int(a[0]))
        return 0

    def b_strcmp(m, a):
        s1 = m.memory.read_string(int(a[0]))
        s2 = m.memory.read_string(int(a[1]))
        m.cycles += min(len(s1), len(s2)) + 1
        return (s1 > s2) - (s1 < s2)

    def b_strlen(m, a):
        s = m.memory.read_string(int(a[0]))
        m.cycles += len(s) + 1
        return len(s)

    def b_fwrite(m, a):
        size = int(a[1]) * int(a[2])
        _touch_lines(m, int(a[0]), size, False)
        m.cycles += 200
        return int(a[2])

    def b_fread(m, a):
        m.cycles += 200
        return 0

    def b_fopen(m, a):
        m.cycles += 500
        return 0xF11E

    def b_fclose(m, a):
        m.cycles += 200
        return 0

    def b_clock(m, a):
        return m.cycles

    def _safe_sqrt(x):
        return math.sqrt(x) if x >= 0 else 0.0

    def _safe_log(x):
        return math.log(x) if x > 0 else 0.0

    return {
        "malloc": b_malloc, "calloc": b_calloc, "free": b_free,
        "realloc": b_realloc, "memset": b_memset, "memcpy": b_memcpy,
        "printf": b_printf, "fprintf": b_fprintf,
        "exit": b_exit, "abort": b_abort,
        "sqrt": _math1(_safe_sqrt), "fabs": _math1(abs),
        "exp": _math1(math.exp), "log": _math1(_safe_log),
        "floor": _math1(math.floor), "pow": b_pow,
        "abs": b_abs, "rand": b_rand, "srand": b_srand,
        "strcmp": b_strcmp, "strlen": b_strlen,
        "fwrite": b_fwrite, "fread": b_fread,
        "fopen": b_fopen, "fclose": b_fclose, "clock": b_clock,
    }


BUILTINS = make_builtins()


# ---------------------------------------------------------------------------
# Program compiler
# ---------------------------------------------------------------------------

class CompiledProgram:
    """A whole program compiled against one :class:`Machine`."""

    #: each simulated call consumes a handful of Python frames; raise
    #: the interpreter's own limit so MiniC recursion depth is bounded
    #: by the cycle budget, not by CPython's default stack
    MIN_RECURSION_LIMIT = 50_000

    def __init__(self, program, machine: Machine,
                 cfgs: dict[str, FunctionCFG] | None = None):
        import sys
        if sys.getrecursionlimit() < self.MIN_RECURSION_LIMIT:
            sys.setrecursionlimit(self.MIN_RECURSION_LIMIT)
        self.program = program
        self.machine = machine
        self.cfgs = cfgs if cfgs is not None else lower_program(program)
        self.builtins = BUILTINS
        self.sites: list[SiteInfo] = [SiteInfo(0)]   # site 0 = anonymous
        self._globals: dict = {}
        self._strings: dict[str, int] = {}
        self.compiled: dict[str, CompiledFunction] = {}
        self._alloc_globals()
        # two-phase: shells first so calls can bind direct targets
        for name in self.cfgs:
            self.compiled[name] = CompiledFunction(name, machine)
        for name, cfg in self.cfgs.items():
            _FunctionCompiler(self, cfg, shell=self.compiled[name]) \
                .compile()
        self._run_global_inits()

    # -- globals -----------------------------------------------------------

    def _alloc_globals(self) -> None:
        for g in self.program.globals():
            sym = g.symbol
            if sym in self._globals:
                continue
            t = sym.type.strip()
            self._globals[sym] = self.machine.memory.alloc_global(
                max(t.size, 8), max(t.align, 8))

    def global_addr(self, sym) -> int:
        addr = self._globals.get(sym)
        if addr is None:
            t = sym.type.strip()
            addr = self.machine.memory.alloc_global(
                max(t.size, 8), max(t.align, 8))
            self._globals[sym] = addr
        return addr

    def string_addr(self, text: str) -> int:
        addr = self._strings.get(text)
        if addr is None:
            addr = self.machine.memory.alloc_rodata(text)
            self._strings[text] = addr
        return addr

    def _run_global_inits(self) -> None:
        inits = [g for g in self.program.globals() if g.init is not None]
        if not inits:
            return
        # Compile initializers in a synthetic empty-function context.
        for g in inits:
            value = _const_value(g.init)
            if value is None:
                raise CompileError(
                    f"global {g.name}: only constant initializers are "
                    f"supported")
            t = g.symbol.type.strip()
            if t.is_float():
                value = float(value)
            self.machine.memory.store(self.global_addr(g.symbol), value)

    # -- sites ---------------------------------------------------------------

    def new_site(self, function: str, line: int, record: str | None,
                 field: str | None, is_float: bool, is_write: bool) -> int:
        info = SiteInfo(len(self.sites), function, line, record, field,
                        is_float, is_write)
        self.sites.append(info)
        return info.id

    # -- running ---------------------------------------------------------------

    def run(self, entry: str = "main", args: list | None = None) -> int:
        fn = self.compiled.get(entry)
        if fn is None:
            raise CompileError(f"no function {entry!r}")
        try:
            result = fn.call(args or [])
        except ExitProgram as e:
            self.machine.exit_code = e.code
            return e.code
        code = int(result) if isinstance(result, (int, float)) else 0
        self.machine.exit_code = code
        return code


def _const_value(e: ast.Expr):
    """Evaluate a constant initializer expression (literals, negation,
    simple arithmetic); None when not constant."""
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.FloatLit):
        return e.value
    if isinstance(e, ast.NullLit):
        return 0
    if isinstance(e, ast.Unary) and e.op == "-":
        v = _const_value(e.operand)
        return -v if v is not None else None
    if isinstance(e, ast.Binary):
        l = _const_value(e.left)
        r = _const_value(e.right)
        if l is None or r is None:
            return None
        fn = _BIN_OPS.get(e.op)
        return fn(l, r) if fn else None
    if isinstance(e, ast.SizeofType):
        return e.of.strip().size
    return None
