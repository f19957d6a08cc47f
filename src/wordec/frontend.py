"""Design frontends: S-expression IR files and a combinational
SystemVerilog subset.

Verilog's context-determined sizing is resolved at parse time into explicit
operand annotations, making the resulting term self-contained.  The SV
emitter re-materializes one wire per operator (plus coercion wires wherever
an operand annotation differs from the driving signal), so each emitted line
is auditable on its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ir import (Annotation, ARITY, IrError, SHIFT_OPS, SIGNED, Term,
                 UNSIGNED, from_bits, to_bits)
from .tokens import ParseError, Tokens, lex


@dataclass(frozen=True)
class Design:
    name: str
    inputs: tuple[tuple[str, Annotation], ...]
    output: tuple[str, Annotation]
    body: Term

    def __post_init__(self):
        names = [n for n, _ in self.inputs]
        if len(set(names)) != len(names):
            raise ParseError(f"duplicate input names in design {self.name}")
        if self.body.out != self.output[1]:
            raise ParseError(
                f"design {self.name}: body annotation ({self.body.out}) does "
                f"not match output port ({self.output[1]})")
        missing = self.body.free_vars() - set(names)
        if missing:
            raise ParseError(
                f"design {self.name}: undeclared variables {sorted(missing)}")


# ---------------------------------------------------------------------------
# S-expression IR files
# ---------------------------------------------------------------------------

# `;` starts a comment to the end of the line
_SX_TOKEN = re.compile(r"(?P<ws>\s+|;[^\n]*)|(?P<sym>[()])|(?P<atom>[^\s();]+)")


def _sx_ann(ts: Tokens) -> Annotation:
    w = ts.int()
    line, col = ts.loc()
    s = ts.next()
    if s not in (UNSIGNED, SIGNED):
        raise ParseError(f"expected signage, got {s!r}", line, col)
    if w < 1:
        raise ParseError(f"width must be >= 1, got {w}", line, col)
    return Annotation(w, s == SIGNED)


def _sx_term(ts: Tokens, declared: dict[str, Annotation]) -> Term:
    line, col = ts.loc()
    ts.expect("(")
    head = ts.next()
    try:
        if head == "var":
            name = ts.next()
            a = _sx_ann(ts)
            if name not in declared:
                raise ParseError(f"undeclared variable {name!r}", line, col)
            if declared[name] != a:
                raise ParseError(
                    f"variable {name!r} annotated ({a}) but declared "
                    f"({declared[name]})", line, col)
            t = Term("var", a, name=name)
        elif head == "const":
            v = ts.int()
            a = _sx_ann(ts)
            t = Term("const", a, value=v)
        elif head in ARITY:
            out = _sx_ann(ts)
            indices = None
            if head == "slice":
                hi = ts.int()
                lo = ts.int()
                indices = (hi, lo)
            ops = []
            while ts.peek() != ")":
                slot = _sx_ann(ts)
                ops.append((slot, _sx_term(ts, declared)))
            t = Term(head, out, operands=tuple(ops), indices=indices)
        else:
            raise ParseError(f"unknown term head {head!r}", line, col)
    except IrError as e:
        raise ParseError(str(e), line, col) from None
    ts.expect(")")
    return t


def parse_sexpr(text: str) -> Design:
    ts = lex(_SX_TOKEN, text)
    line, col = ts.loc()
    ts.expect("(")
    ts.expect("design")
    name = ts.next()
    ts.expect("(")
    ts.expect("inputs")
    inputs: list[tuple[str, Annotation]] = []
    declared: dict[str, Annotation] = {}
    while ts.peek() != ")":
        ts.expect("(")
        iname = ts.next()
        a = _sx_ann(ts)
        ts.expect(")")
        if iname in declared:
            raise ParseError(f"duplicate input {iname!r}", line, col)
        declared[iname] = a
        inputs.append((iname, a))
    ts.expect(")")
    ts.expect("(")
    ts.expect("output")
    oname = ts.next()
    oann = _sx_ann(ts)
    ts.expect(")")
    body_loc = ts.loc()
    body = _sx_term(ts, declared)
    ts.expect(")")
    if ts.peek() is not None:
        raise ParseError(f"trailing tokens after design: {ts.peek()!r}", *ts.loc())
    if body.out != oann:
        raise ParseError(f"design {name}: body annotation ({body.out}) does "
                         f"not match output port ({oann})", *body_loc)
    return Design(name, tuple(inputs), (oname, oann), body)


def _sx_emit_term(t: Term, parts: list[str]) -> None:
    if t.kind == "var":
        parts.append(f"(var {t.name} {t.out})")
        return
    if t.kind == "const":
        parts.append(f"(const {t.value} {t.out})")
        return
    parts.append(f"({t.kind} {t.out}")
    if t.kind == "slice":
        parts.append(f"{t.indices[0]} {t.indices[1]}")
    for slot, child in t.operands:
        parts.append(str(slot))
        _sx_emit_term(child, parts)
    parts.append(")")


def emit_sexpr(d: Design) -> str:
    ins = " ".join(f"({n} {a})" for n, a in d.inputs)
    parts: list[str] = []
    _sx_emit_term(d.body, parts)
    body = " ".join(parts)
    return (f"(design {d.name}\n  (inputs {ins})\n"
            f"  (output {d.output[0]} {d.output[1]})\n  {body})\n")


# ---------------------------------------------------------------------------
# SystemVerilog subset: lexer
# ---------------------------------------------------------------------------

_SV_KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "wire", "logic", "reg",
    "signed", "assign", "always_comb", "begin", "end",
})

_SV_TOKEN = re.compile(r"""
    (?P<ws>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<lit>\d+'s?d\d+)
  | (?P<num>\d+)
  | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<sym><<<|>>>|<<|>>|==|[-+*~&|^?:,;()\[\]{}=<])
""", re.VERBOSE | re.DOTALL)


def _sv_is_name(t: str) -> bool:
    """t is an identifier that no keyword claims."""
    return re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", t) is not None \
        and t not in _SV_KEYWORDS


# -- expression AST ---------------------------------------------------------

@dataclass(frozen=True)
class _Ref:
    name: str


@dataclass(frozen=True)
class _Lit:
    value: int
    width: int
    signed: bool


@dataclass(frozen=True)
class _Slice:
    name: str
    hi: int
    lo: int


@dataclass(frozen=True)
class _Unary:
    op: str
    a: object


@dataclass(frozen=True)
class _Binary:
    op: str
    a: object
    b: object


@dataclass(frozen=True)
class _Ternary:
    cond: object
    a: object
    b: object


@dataclass(frozen=True)
class _Concat:
    parts: tuple


def _sv_literal(tok: str) -> _Lit:
    m = re.fullmatch(r"(\d+)'(s?)d(\d+)", tok)
    if m:
        width = int(m.group(1))
        signed = m.group(2) == "s"
        bits = int(m.group(3))
        if width < 1 or bits >= (1 << width):
            raise ParseError(f"literal {tok} does not fit its size")
        return _Lit(from_bits(bits, Annotation(width, signed)), width, signed)
    v = int(tok)
    return _Lit(v, max(1, v.bit_length()), False)


# Binding strength of each binary operator; all are left-associative.
_SV_PRECEDENCE = {"|": 1, "^": 2, "&": 3, "==": 4, "<": 5,
                  "<<": 6, ">>": 6, ">>>": 6, "<<<": 6, "+": 7, "-": 7, "*": 8}


def _sv_expr(ts: Tokens):
    c = _sv_binary(ts, 1)
    if ts.peek() == "?":
        ts.next()
        a = _sv_expr(ts)
        ts.expect(":")
        b = _sv_expr(ts)
        return _Ternary(c, a, b)
    return c


def _sv_binary(ts: Tokens, level: int):
    """Operators binding at least as tightly as `level`, by precedence
    climbing."""
    e = _sv_unary(ts)
    while _SV_PRECEDENCE.get(ts.peek(), 0) >= level:
        op = ts.next()
        rhs = _sv_binary(ts, _SV_PRECEDENCE[op] + 1)
        if op == "<<<":
            op = "<<"  # arithmetic and logical left shifts coincide
        e = _Binary(op, e, rhs)
    return e


def _sv_unary(ts):
    if ts.peek() == "-":
        ts.next()
        return _Unary("neg", _sv_unary(ts))
    if ts.peek() == "~":
        ts.next()
        return _Unary("~", _sv_unary(ts))
    return _sv_primary(ts)


def _sv_primary(ts):
    line, col = ts.loc()
    t = ts.peek()
    if t is None:
        raise ParseError("unexpected end of expression", line, col)
    if t == "(":
        ts.next()
        e = _sv_expr(ts)
        ts.expect(")")
        return e
    if t == "{":
        ts.next()
        parts = [_sv_expr(ts)]
        while ts.peek() == ",":
            ts.next()
            parts.append(_sv_expr(ts))
        ts.expect("}")
        return _Concat(tuple(parts))
    if re.fullmatch(r"\d+'s?d\d+", t) or t.isdigit():
        ts.next()
        try:
            return _sv_literal(t)
        except ParseError as e:
            raise ParseError(str(e), line, col) from None
    if _sv_is_name(t):
        ts.next()
        if ts.peek() == "[":
            ts.next()
            hi = ts.int()
            if ts.peek() == ":":
                ts.next()
                lo = ts.int()
            else:
                lo = hi
            ts.expect("]")
            return _Slice(t, hi, lo)
        return _Ref(t)
    raise ParseError(f"unsupported construct starting at {t!r}", line, col)


# -- elaboration: Verilog sizing resolved into explicit annotations ---------

class _Elaborator:
    """Turns an expression AST into a Term under Verilog sizing semantics.

    The self-determined size/signedness of each subexpression is computed
    bottom-up; context width/signedness propagates top-down.  Operand slots
    of value-computing operators are (operand's own width, context signage),
    which reproduces Verilog's reinterpret-then-extend operand conversion
    under the IR's coercion rule.
    """

    def __init__(self, signals: dict[str, Annotation],
                 terms: dict[str, Term], lsb: dict[str, int]):
        self.signals = signals
        self.terms = terms
        self.lsb = lsb

    def signal(self, name: str) -> Annotation:
        if name not in self.signals:
            raise ParseError(f"undeclared signal {name!r}")
        return self.signals[name]

    # self-determined (width, signed)
    def self_size(self, e) -> tuple[int, bool]:
        if isinstance(e, _Ref):
            a = self.signal(e.name)
            return a.width, a.signed
        if isinstance(e, _Lit):
            return e.width, e.signed
        if isinstance(e, _Slice):
            self.signal(e.name)
            return e.hi - e.lo + 1, False
        if isinstance(e, _Concat):
            return sum(self.self_size(p)[0] for p in e.parts), False
        if isinstance(e, _Unary):
            return self.self_size(e.a)
        if isinstance(e, _Ternary):
            wa, sa = self.self_size(e.a)
            wb, sb = self.self_size(e.b)
            return max(wa, wb), sa and sb
        assert isinstance(e, _Binary)
        if e.op in ("==", "<"):
            return 1, False
        wa, sa = self.self_size(e.a)
        if e.op in SHIFT_OPS:
            return wa, sa
        wb, sb = self.self_size(e.b)
        return max(wa, wb), sa and sb

    def to_term(self, e, W: int, signed: bool) -> Term:
        """Build a Term computing `e` in a (W, signed) sizing context."""
        ctx = Annotation(W, signed)
        if isinstance(e, _Ref):
            return self.terms[e.name] if e.name in self.terms \
                else Term("var", self.signal(e.name), name=e.name)
        if isinstance(e, _Lit):
            return Term("const", Annotation(e.width, e.signed), value=e.value)
        if isinstance(e, _Slice):
            base = self.to_term(_Ref(e.name), *self.self_size(_Ref(e.name)))
            off = self.lsb.get(e.name, 0)
            hi, lo = e.hi - off, e.lo - off
            if not (base.out.width > hi >= lo >= 0):
                raise ParseError(
                    f"slice [{e.hi}:{e.lo}] out of range for {e.name}")
            return Term("slice", Annotation(hi - lo + 1),
                        operands=((base.out, base),), indices=(hi, lo))
        if isinstance(e, _Concat):
            parts = []
            for p in e.parts:
                w, s = self.self_size(p)
                parts.append((Annotation(w, s), self.to_term(p, w, s)))
            acc = parts[0]
            for slot, sub in parts[1:]:
                w = acc[0].width + slot.width
                acc = (Annotation(w),
                       Term("concat", Annotation(w),
                            operands=(acc, (slot, sub))))
            return acc[1]  # self-determined; caller sizes via its slot
        if isinstance(e, _Ternary):
            wc, sc = self.self_size(e.cond)
            cond = self.to_term(e.cond, wc, sc)
            a = self.to_term(e.a, W, signed)
            b = self.to_term(e.b, W, signed)
            return Term("mux", ctx, operands=(
                (Annotation(wc, sc), cond),
                (Annotation(a.out.width, signed), a),
                (Annotation(b.out.width, signed), b)))
        if isinstance(e, _Unary):
            a = self.to_term(e.a, W, signed)
            return Term(e.op, ctx,
                        operands=((Annotation(a.out.width, signed), a),))
        assert isinstance(e, _Binary)
        if e.op in ("==", "<"):
            wa, sa = self.self_size(e.a)
            wb, sb = self.self_size(e.b)
            wcmp = max(wa, wb)
            scmp = sa and sb
            a = self.to_term(e.a, wcmp, scmp)
            b = self.to_term(e.b, wcmp, scmp)
            return Term(e.op, Annotation(1), operands=(
                (Annotation(a.out.width, scmp), a),
                (Annotation(b.out.width, scmp), b)))
        if e.op in SHIFT_OPS:
            wb, sb = self.self_size(e.b)
            amt = self.to_term(e.b, wb, sb)
            a = self.to_term(e.a, W, signed)
            op = e.op
            aslot = Annotation(a.out.width, signed)
            if op == ">>>" and not signed:
                op = ">>"  # arithmetic shift of an unsigned value is logical
            if op == ">>":
                # logical shift acts on the full context-width pattern
                if a.out.width < W:
                    a = Term("sext" if a.out.signed else "zext", ctx,
                             operands=((a.out, a),))
                aslot = ctx
            return Term(op, ctx, operands=(
                (aslot, a), (Annotation(wb, sb), amt)))
        a = self.to_term(e.a, W, signed)
        b = self.to_term(e.b, W, signed)
        return Term(e.op, ctx, operands=(
            (Annotation(a.out.width, signed), a),
            (Annotation(b.out.width, signed), b)))

    def rhs_term(self, e, target: Annotation) -> Term:
        """Elaborate an assignment right-hand side into the target slot."""
        w, s = self.self_size(e)
        W = max(w, target.width)
        t = self.to_term(e, W, s)
        if t.out == target:
            return t
        wrap = "sext" if t.out.signed else "zext"
        return Term(wrap, target, operands=((t.out, t),))


# -- module-level parsing ---------------------------------------------------

@dataclass
class _SvDecl:
    kind: str  # input | output | wire
    ann: Annotation
    lsb: int
    loc: tuple[int, int]  # of the declared name


def _sv_parse_range(ts: Tokens) -> tuple[int, int]:
    loc = ts.loc()
    ts.expect("[")
    hi = ts.int()
    ts.expect(":")
    lo = ts.int()
    ts.expect("]")
    if hi < lo:
        ts.fail(f"descending range required, got [{hi}:{lo}]", loc)
    return hi, lo


def _sv_parse_decl_type(ts: Tokens) -> tuple[Annotation, int]:
    if ts.peek() in ("wire", "logic", "reg"):
        ts.next()
    signed = False
    if ts.peek() == "signed":
        ts.next()
        signed = True
    hi, lo = (0, 0)
    if ts.peek() == "[":
        hi, lo = _sv_parse_range(ts)
    return Annotation(hi - lo + 1, signed), lo


def parse_sv(text: str) -> Design:
    ts = lex(_SV_TOKEN, text)
    ts.expect("module")
    name = ts.next()
    decls: dict[str, _SvDecl] = {}
    order: list[str] = []

    def declare(kind: str, ann: Annotation, lsb: int) -> None:
        """Declare the signal named by the next token."""
        loc = ts.loc()
        sig = ts.next()
        if not _sv_is_name(sig):
            ts.fail(f"expected a signal name, got {sig!r}", loc)
        if sig in decls:
            if decls[sig].kind == "wire" and kind in ("input", "output"):
                decls[sig] = _SvDecl(kind, ann, lsb, loc)  # non-ANSI re-typing
                return
            ts.fail(f"signal {sig!r} declared twice", loc)
        decls[sig] = _SvDecl(kind, ann, lsb, loc)
        order.append(sig)

    ts.expect("(")
    inherit: tuple[str, Annotation, int] | None = None
    if ts.peek() != ")":
        while True:
            if ts.peek() in ("input", "output"):
                kind = ts.next()
                ann, lsb = _sv_parse_decl_type(ts)
                inherit = (kind, ann, lsb)
                declare(kind, ann, lsb)
            elif inherit is not None:
                # `input [7:0] a, b` — later names inherit the direction/type
                declare(*inherit)
            else:
                declare("wire", Annotation(1), 0)
            if ts.peek() != ",":
                break
            ts.next()
    ts.expect(")")
    ts.expect(";")

    assigns: list[tuple[str, object, tuple]] = []

    def statement(loc: tuple) -> None:
        """`target = expr;`, located at loc."""
        target = ts.next()
        ts.expect("=")
        expr = _sv_expr(ts)
        ts.expect(";")
        assigns.append((target, expr, loc))

    while ts.peek() != "endmodule":
        line, col = ts.loc()
        t = ts.peek()
        if t in ("input", "output", "wire", "logic", "reg"):
            kind = ts.next() if t in ("input", "output") else "wire"
            ann, lsb = _sv_parse_decl_type(ts)
            while True:
                declare(kind, ann, lsb)
                if ts.peek() != ",":
                    break
                ts.next()
            ts.expect(";")
        elif t == "assign":
            ts.next()
            statement((line, col))
        elif t == "always_comb":
            ts.next()
            if ts.peek() != "begin":
                statement(ts.loc())
                continue
            ts.next()
            while ts.peek() != "end":
                statement(ts.loc())
            ts.next()
        else:
            raise ParseError(f"unsupported construct {t!r}", line, col)
    end = ts.loc()
    ts.next()  # endmodule

    inputs = [(n, decls[n].ann) for n in order if decls[n].kind == "input"]
    outputs = [n for n in order if decls[n].kind == "output"]
    if len(outputs) != 1:
        ts.fail(f"exactly one output port required, got {outputs}",
                decls[outputs[1]].loc if outputs else end)
    out_name = outputs[0]

    driven: dict[str, tuple[object, tuple]] = {}
    for target, expr, loc in assigns:
        if target not in decls:
            raise ParseError(f"assignment to undeclared signal {target!r}", *loc)
        if decls[target].kind == "input":
            raise ParseError(f"assignment to input {target!r}", *loc)
        if target in driven:
            raise ParseError(f"signal {target!r} multiply driven", *loc)
        driven[target] = (expr, loc)
    if out_name not in driven:
        ts.fail(f"output {out_name!r} is never assigned", decls[out_name].loc)

    # elaborate assignments in dependency order (inlining wires)
    signals = {n: d.ann for n, d in decls.items()}
    lsb = {n: d.lsb for n, d in decls.items()}
    terms: dict[str, Term] = {}
    el = _Elaborator(signals, terms, lsb)

    def deps(e, out: dict[str, None]):
        """Add the signals e reads to `out`, an ordered set, in source
        order, so a dependency error names the first bad signal."""
        if isinstance(e, (_Ref, _Slice)):
            out[e.name] = None
        elif isinstance(e, _Unary):
            deps(e.a, out)
        elif isinstance(e, _Binary):
            deps(e.a, out)
            deps(e.b, out)
        elif isinstance(e, _Ternary):
            deps(e.cond, out)
            deps(e.a, out)
            deps(e.b, out)
        elif isinstance(e, _Concat):
            for p in e.parts:
                deps(p, out)

    state: dict[str, int] = {}  # 1 = in progress, 2 = done

    def elaborate(sig: str):
        if state.get(sig) == 2:
            return
        if state.get(sig) == 1:
            raise ParseError(f"combinational cycle through {sig!r}",
                             *driven[sig][1])
        state[sig] = 1
        expr, loc = driven[sig]
        needed: dict[str, None] = {}
        deps(expr, needed)
        for d in needed:
            if d not in decls:
                raise ParseError(f"undeclared signal {d!r}", *loc)
            if d in driven:
                elaborate(d)
            elif decls[d].kind != "input":
                raise ParseError(f"signal {d!r} is never driven", *loc)
        try:
            terms[sig] = el.rhs_term(expr, decls[sig].ann)
        except IrError as e:
            raise ParseError(str(e), *loc) from None
        state[sig] = 2

    elaborate(out_name)
    body = terms[out_name]
    return Design(name, tuple(inputs), (out_name, decls[out_name].ann), body)


# ---------------------------------------------------------------------------
# SystemVerilog emission (one wire per operator)
# ---------------------------------------------------------------------------

def _sv_ann_decl(a: Annotation) -> str:
    s = " signed" if a.signed else ""
    return f"logic{s} [{a.width - 1}:0]"


class _SvEmitter:
    def __init__(self, reserved: set[str]):
        self.reserved = reserved
        self.lines: list[str] = []
        self.memo: dict[Term, str] = {}
        self.counter = 0

    def fresh(self) -> str:
        while True:
            n = f"n{self.counter}"
            self.counter += 1
            if n not in self.reserved:
                return n

    def wire(self, a: Annotation, rhs: str) -> str:
        n = self.fresh()
        self.lines.append(f"  {_sv_ann_decl(a)} {n};")
        self.lines.append(f"  assign {n} = {rhs};")
        return n

    def slot_ref(self, child: Term, slot: Annotation) -> str:
        """Name of a signal declared (slot.width, slot.signed) whose value is
        the IR slot coercion of the child."""
        ref = self.emit(child)
        if child.out == slot:
            return ref
        # a lone continuous assignment extends per the source's signedness
        # and truncates to the target width: exactly the IR coercion
        return self.wire(slot, ref)

    def pattern_ref(self, child: Term, slot: Annotation) -> str:
        """Like slot_ref but declared unsigned: the raw slot bit pattern."""
        ref = self.emit(child)
        if child.out == slot and not slot.signed:
            return ref
        return self.wire(Annotation(slot.width), ref if child.out == slot
                         else self.slot_ref(child, slot))

    def extended(self, child: Term, slot: Annotation, w: int) -> str:
        """Operand pre-extended to width w (per the slot signage), so the
        emitted operator sees equal-width operands and Verilog's own context
        sizing becomes a no-op modulo 2^w."""
        ref = self.slot_ref(child, slot)
        if slot.width == w:
            return ref
        return self.wire(Annotation(w, slot.signed), ref)

    def emit(self, t: Term) -> str:
        if t in self.memo:
            return self.memo[t]
        name = self._emit(t)
        self.memo[t] = name
        return name

    def _emit(self, t: Term) -> str:
        k = t.kind
        out = t.out
        if k == "var":
            return t.name
        if k == "const":
            return self.wire(out, f"{out.width}'d{to_bits(t.value, out)}")
        slots = [s for s, _ in t.operands]
        kids = [c for _, c in t.operands]
        if k in ("+", "-", "*", "&", "|", "^"):
            a = self.extended(kids[0], slots[0], out.width)
            b = self.extended(kids[1], slots[1], out.width)
            return self.wire(out, f"{a} {k} {b}")
        if k in ("neg", "~"):
            a = self.extended(kids[0], slots[0], out.width)
            sym = "-" if k == "neg" else "~"
            return self.wire(out, f"{sym}{a}")
        if k == "<<":
            a = self.extended(kids[0], slots[0], out.width)
            amt = self.pattern_ref(kids[1], slots[1])
            return self.wire(out, f"{a} << {amt}")
        if k == ">>":
            pat = self.pattern_ref(kids[0], slots[0])
            amt = self.pattern_ref(kids[1], slots[1])
            return self.wire(out, f"{pat} >> {amt}")
        if k == ">>>":
            if not slots[0].signed:  # floor shift of a non-negative value
                a = self.pattern_ref(kids[0], slots[0])
                amt = self.pattern_ref(kids[1], slots[1])
                return self.wire(out, f"{a} >> {amt}")
            a = self.slot_ref(kids[0], slots[0])
            amt = self.pattern_ref(kids[1], slots[1])
            return self.wire(out, f"{a} >>> {amt}")
        if k == "mux":
            c = self.slot_ref(kids[0], slots[0])
            a = self.extended(kids[1], slots[1], out.width)
            b = self.extended(kids[2], slots[2], out.width)
            return self.wire(out, f"{c} ? {a} : {b}")
        if k == "concat":
            a = self.pattern_ref(kids[0], slots[0])
            b = self.pattern_ref(kids[1], slots[1])
            return self.wire(out, f"{{{a}, {b}}}")
        if k == "slice":
            a = self.pattern_ref(kids[0], slots[0])
            hi, lo = t.indices
            return self.wire(out, f"{a}[{hi}:{lo}]")
        if k in ("==", "<"):
            # compare values: extend both to a common signed width
            w = max(slots[0].width, slots[1].width) + 1
            a = self.wire(Annotation(w, True), self.slot_ref(kids[0], slots[0]))
            b = self.wire(Annotation(w, True), self.slot_ref(kids[1], slots[1]))
            return self.wire(out, f"{a} {k} {b}")
        if k == "zext":
            return self.wire(out, self.pattern_ref(kids[0], slots[0]))
        if k == "sext":
            pat = self.pattern_ref(kids[0], slots[0])
            s = self.wire(Annotation(slots[0].width, True), pat)
            return self.wire(out, s)
        raise IrError(f"unknown opcode: {k}")


def emit_sv(d: Design, header_comment: str | None = None) -> str:
    ports = []
    for n, a in d.inputs:
        ports.append(f"input {_sv_ann_decl(a)} {n}")
    oname, oann = d.output
    ports.append(f"output {_sv_ann_decl(oann)} {oname}")
    reserved = {n for n, _ in d.inputs} | {oname, d.name}
    em = _SvEmitter(reserved)
    root = em.emit(d.body)
    lines = []
    if header_comment:
        for c in header_comment.splitlines():
            lines.append(f"// {c}")
    lines.append(f"module {d.name} (")
    lines.append(",\n".join(f"    {p}" for p in ports))
    lines.append(");")
    lines.extend(em.lines)
    lines.append(f"  assign {oname} = {root};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
