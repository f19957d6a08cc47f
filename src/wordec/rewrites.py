"""Parameterized, conditionally-applied rewrite rules.

Rules are written in a small declarative language, one rule per line:

    id : LHS => RHS if COND hint NAME ;

Patterns mirror the S-expression IR with `?a` class variables and `?w`
parameter variables binding widths, signages and constant values:

    (+ ?wo ?so ?w1 ?s1 ?a ?w2 ?s2 ?b)
    (const ?v ?vw ?vs)

Right-hand sides may compute widths/values with +, -, *, 2^e, min, max,
width(e) and log2(e); an instance where one is undefined (log2 of a value
below 1, 2^e for a negative e) is blocked.  Conditions are boolean
expressions over the bound parameters.  A rule is checked and its
expressions typed once, when it is made (`Rule.__post_init__`).  A rule's
condition must be *sufficient*: whenever it holds, the two sides are
extensionally equal under the IR semantics; validate_rule audits this
exhaustively at small widths.
"""

from __future__ import annotations

import itertools
import linecache
import re
from dataclasses import dataclass
from functools import cache, cached_property

from .analysis import NARROWING_NODES
from .egraph import EGraph, NodeRec, RuleJust, Skeleton
from .ir import _INTERNED, Annotation, ARITY, SHIFT_OPS, SIGNED, UNSIGNED
from .tokens import ParseError, Tokens, lex


class RuleError(ParseError):
    """A rule text that does not parse (located at the token), or a rule
    that is not well formed."""

    eof = "unexpected end of rule text"


class BlockedMatch(Exception):
    """Instantiation produced an unrepresentable constant or width."""


# ---------------------------------------------------------------------------
# Expression language (widths, constant values, conditions)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<param>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<sym><=>|>>>|<<|>>|=>|==|!=|<=|>=|&&|\|\||[-+*^()<>,:;!~&|])
""", re.VERBOSE)


# Expression AST: int | str-param ('?w') | signage literal | (op, args...)

_FUNCS = {"min", "max", "width", "log2"}
_CMP = {"==", "!=", "<=", ">=", "<", ">"}
# Binding strength of each binary operator.  `^` is right-associative, a
# comparison takes no comparison as an operand, and the others are
# left-associative.
_PRECEDENCE = {"||": 1, "&&": 2, **dict.fromkeys(_CMP, 3),
               "+": 4, "-": 4, "*": 5, "^": 6}
_STRONGEST = max(_PRECEDENCE.values())
# `!` takes its operand at comparison strength
_NOT = _PRECEDENCE["=="]

# The type of each kind of slot and parameter: a width (a shift amount's
# included) and a constant's value are ints, a signage is a str.
_TYPES = {"width": "int", "amount": "int", "value": "int", "sig": "str"}
# Each operator's operand types and result type; `==` and `!=` take two
# operands of one type, and `min` and `max` one or more ints.
_SIGNATURES = {
    "!": (("bool",), "bool"),
    **dict.fromkeys(("&&", "||"), (("bool", "bool"), "bool")),
    **dict.fromkeys(("<=", ">=", "<", ">"), (("int", "int"), "bool")),
    **dict.fromkeys(("+", "-", "*", "^"), (("int", "int"), "int")),
    **dict.fromkeys(("width", "log2"), (("int",), "int")),
}


def _expr(ts: Tokens, level: int):
    """An expression of operators binding at least as tightly as `level`,
    by precedence climbing.  `top` is the strongest operator that may
    follow: the operand of the last one took every stronger operator
    except a second comparison."""
    if ts.peek() == "!" and level <= _NOT:
        ts.next()
        e, top = ("!", _expr(ts, _NOT)), _NOT - 1
    else:
        e, top = _atom(ts), _STRONGEST
    while level <= _PRECEDENCE.get(ts.peek(), 0) <= top:
        op = ts.next()
        prec = _PRECEDENCE[op]
        e = (op, e, _expr(ts, prec if op == "^" else prec + 1))
        top = prec - 1 if op in _CMP else prec
    return e


def _atom(ts: Tokens):
    loc = ts.loc()
    t = ts.next()
    if t.isdigit():
        return int(t)
    if t.startswith("?"):
        return t
    if t in (UNSIGNED, SIGNED):
        return ("sig", t)
    if t in _FUNCS:
        ts.expect("(")
        args = [_expr(ts, 1)]
        while ts.peek() == ",":
            ts.next()
            args.append(_expr(ts, 1))
        ts.expect(")")
        return (t, *args)
    if t == "(":
        e = _expr(ts, 1)
        ts.expect(")")
        return e
    ts.fail(f"unexpected token {t!r} in expression", loc)


def parse_expr(text: str):
    ts = lex(_TOKEN, text, RuleError)
    e = _expr(ts, 1)
    if ts.peek() is not None:
        ts.fail(f"trailing tokens in expression: {ts.peek()!r}")
    return e


def _compare(op: str, a, b) -> bool:
    # every comparison is taken, so operands that do not order (a width
    # against a signage) raise TypeError whatever the operator
    return {"==": a == b, "!=": a != b,
            "<=": a <= b, ">=": a >= b,
            "<": a < b, ">": a > b}[op]


def _power(a, b):
    if b > 1 << 20:
        raise BlockedMatch("exponent too large")
    if b < 0:
        raise BlockedMatch("negative exponent")
    return a ** b


def _width_of(a) -> int:
    return max(1, int(a).bit_length())


def _log2(a) -> int:
    if a < 1:
        raise BlockedMatch("log2 of non-positive value")
    return int(a).bit_length() - 1


def _unknown_operator(op: str, *_args):
    raise RuleError(f"unknown operator {op!r}")


def eval_expr(e, env: dict):
    """The reference semantics of the expression language; rule programs
    compile the same operators (see `_expr_code`)."""
    if isinstance(e, int):
        return e
    if isinstance(e, str):
        if e not in env:
            raise RuleError(f"unbound parameter {e}")
        return env[e]
    op = e[0]
    if op == "sig":
        return e[1]
    if op == "!":
        return not eval_expr(e[1], env)
    if op in ("&&", "||"):
        a = eval_expr(e[1], env)
        if op == "&&":
            return bool(a) and bool(eval_expr(e[2], env))
        return bool(a) or bool(eval_expr(e[2], env))
    args = [eval_expr(x, env) for x in e[1:]]
    if op in _CMP:
        a, b = args
        return _compare(op, a, b)
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "^":
        return _power(args[0], args[1])
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    if op == "width":
        return _width_of(args[0])
    if op == "log2":
        return _log2(args[0])
    return _unknown_operator(op)


def expr_params(e, out: set[str]) -> None:
    if isinstance(e, str):
        out.add(e)
    elif isinstance(e, tuple) and e[0] != "sig":
        for x in e[1:]:
            expr_params(x, out)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatVar:
    name: str


@dataclass(frozen=True)
class PatConst:
    value: object   # expr
    width: object   # expr
    sig: object     # expr


@dataclass(frozen=True)
class PatOp:
    op: str
    out_w: object
    out_s: object
    operands: tuple[tuple[object, object, object], ...]  # (w, s, sub-pattern)


Pattern = PatVar | PatConst | PatOp


def _sig_slot(ts: Tokens):
    loc = ts.loc()
    t = ts.next()
    if t.startswith("?"):
        return t
    if t in (UNSIGNED, SIGNED):
        return ("sig", t)
    ts.fail(f"expected signage, got {t!r}", loc)


def _width_slot(ts: Tokens, rhs: bool):
    # LHS widths must be a parameter or literal so they can be matched; RHS
    # widths may be sums (parenthesize a comparison or a boolean)
    t = ts.peek()
    if t is not None and (t.isdigit() or t.startswith("?")):
        if rhs:
            return _expr(ts, 4)
        ts.next()
        return int(t) if t.isdigit() else t
    if rhs and (t in _FUNCS or t == "("):
        return _expr(ts, 4)
    ts.fail(f"expected width, got {t!r}")


def _parse_pattern(ts: Tokens, rhs: bool) -> Pattern:
    t = ts.peek()
    if t is not None and t.startswith("?"):
        ts.next()
        return PatVar(t)
    ts.expect("(")
    loc = ts.loc()
    head = ts.next()
    if head == "const":
        if rhs:
            val = _expr(ts, 4)
        else:
            vloc = ts.loc()
            v = ts.next()
            val = int(v) if v.isdigit() else v
            if isinstance(val, str) and not val.startswith("?"):
                ts.fail(f"bad const value {v!r}", vloc)
        w = _width_slot(ts, rhs)
        s = _sig_slot(ts)
        ts.expect(")")
        return PatConst(val, w, s)
    if head not in ARITY:
        ts.fail(f"unknown opcode {head!r} in pattern", loc)
    out_w = _width_slot(ts, rhs)
    out_s = _sig_slot(ts)
    operands = []
    while ts.peek() != ")":
        w = _width_slot(ts, rhs)
        s = _sig_slot(ts)
        sub = _parse_pattern(ts, rhs)
        operands.append((w, s, sub))
    ts.expect(")")
    if len(operands) != ARITY[head]:
        ts.fail(f"{head} expects {ARITY[head]} operands, got {len(operands)}",
                loc)
    return PatOp(head, out_w, out_s, tuple(operands))


def pattern_slots(p: Pattern):
    """Every slot of p as (kind, expression, owner), in the order a match
    binds them: a node's output width and signage, then per operand its
    width, its signage and its sub-pattern; a constant's value, width and
    signage.  `kind` is 'class' (a variable, its own owner), 'value',
    'width', 'amount' (the width of a shift amount) or 'sig'; `owner` is
    the pattern the slot is written in."""
    if isinstance(p, PatVar):
        yield "class", p.name, p
    elif isinstance(p, PatConst):
        yield "value", p.value, p
        yield "width", p.width, p
        yield "sig", p.sig, p
    else:
        yield "width", p.out_w, p
        yield "sig", p.out_s, p
        for i, (w, s, sub) in enumerate(p.operands):
            yield "amount" if i == 1 and p.op in SHIFT_OPS else "width", w, p
            yield "sig", s, p
            yield from pattern_slots(sub)


def pattern_params(p: Pattern) -> set[str]:
    """The parameters p's slot expressions read."""
    out: set[str] = set()
    for kind, e, _ in pattern_slots(p):
        if kind != "class":
            expr_params(e, out)
    return out


def pattern_vars(p: Pattern) -> set[str]:
    return {e for kind, e, _ in pattern_slots(p) if kind == "class"}


def pattern_nodes(p: Pattern) -> int:
    """The structured positions of p, operators and constants: the most
    nodes an instance of p adds to a graph."""
    if isinstance(p, PatVar):
        return 0
    if isinstance(p, PatConst):
        return 1
    return 1 + sum(pattern_nodes(sub) for _, _, sub in p.operands)


def pattern_shape(p: Pattern, index: "itertools.count[int]",
                  top: bool = True) -> Skeleton | None:
    """p's skeleton with each node the next number from `index`, taken in
    pre-order: a structured position, or a whole-side variable (`top`)."""
    if isinstance(p, PatVar):
        return Skeleton(next(index), None) if top else None
    if isinstance(p, PatConst):
        return Skeleton(next(index), ())
    k = next(index)
    return Skeleton(k, tuple(pattern_shape(sub, index, False)
                             for _, _, sub in p.operands))


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

HINTS = ("trivial", "simulation", "external-strong")
_SIGNAGES = (("sig", UNSIGNED), ("sig", SIGNED))
_KIND_NAMES = {"width": "width", "sig": "signage", "value": "constant value"}
# Structured lhs positions per matcher: one nested loop each, and CPython
# allows 20 nested blocks in a function.
_MAX_POSITIONS = 16


@dataclass(frozen=True)
class Rule:
    id: str
    lhs: Pattern
    rhs: Pattern
    cond: object = True          # expr AST; True means unconditional
    checker_hint: str = "simulation"

    def __post_init__(self):
        """The one check of a rule: what passes it matches, applies and
        audits without a type error."""
        if isinstance(self.lhs, PatVar):
            raise RuleError(f"{self.id}: left-hand side cannot be a bare variable")
        for kind, e, _ in pattern_slots(self.lhs):
            if kind != "class" and isinstance(e, tuple) and e not in _SIGNAGES:
                raise RuleError(f"{self.id}: a left-hand {kind} slot must be "
                                "a literal or a parameter")
        if "slice" in {getattr(owner, "op", None) for p in (self.lhs, self.rhs)
                       for _, _, owner in pattern_slots(p)}:
            raise RuleError(f"{self.id}: a pattern cannot write a slice's "
                            "indices")
        if pattern_nodes(self.lhs) > _MAX_POSITIONS:
            raise RuleError(f"{self.id}: more than {_MAX_POSITIONS} "
                            "structured positions on the lhs")
        lv, rv = pattern_vars(self.lhs), pattern_vars(self.rhs)
        if not rv <= lv:
            raise RuleError(f"{self.id}: rhs variables {rv - lv} unbound")
        lp, rp = pattern_params(self.lhs), pattern_params(self.rhs)
        # rhs parameters must be defined by the lhs (rhs width-expressions
        # over lhs parameters are fine; a fresh rhs parameter is not)
        if not rp <= lp:
            raise RuleError(f"{self.id}: rhs parameters {rp - lp} unbound")
        cp: set[str] = set()
        expr_params(self.cond, cp)
        if not cp <= lp:
            raise RuleError(f"{self.id}: condition parameters "
                            f"{', '.join(sorted(cp - lp))} unbound")
        kinds = self.kinds

        def check_type(e, want: str, where: str) -> None:
            try:
                _, got = _expr_code(e, str, kinds)
            except RuleError as err:
                raise RuleError(f"{self.id}: {where}: {err}") from None
            if got != want:
                raise RuleError(f"{self.id}: {where} is {got}, not {want}")

        for p in (self.lhs, self.rhs):
            for kind, e, _ in pattern_slots(p):
                if kind != "class":
                    check_type(e, _TYPES[kind], f"{kind} slot")
        check_type(self.cond, "bool", "condition")

    @cached_property
    def kinds(self) -> dict[str, str]:
        """Each parameter's kind, 'width', 'sig' or 'value', from the lhs
        slots that bind it: all of one kind, a shift amount's width being a
        width."""
        kinds: dict[str, str] = {}
        for slot, e, _ in pattern_slots(self.lhs):
            if slot != "class" and isinstance(e, str):
                kind = "width" if slot == "amount" else slot
                if kinds.setdefault(e, kind) != kind:
                    raise RuleError(
                        f"{self.id}: {e} is bound as a {_KIND_NAMES[kinds[e]]}"
                        f" and as a {_KIND_NAMES[kind]}")
        return kinds

    @cached_property
    def rhs_nodes(self) -> int:
        """The most nodes one application adds."""
        return pattern_nodes(self.rhs)

    # -- matching -----------------------------------------------------------

    def matches(self, g: EGraph) -> list["Match"]:
        """Every match of the lhs whose condition holds, by class id, then
        by node order at each structured pattern position.  A bare-variable
        rhs only matches a class with the annotation of the matched one."""
        return self._match(g, self)

    @cached_property
    def _match(self):
        """`match(g, rule)`, compiled on the first `matches`."""
        return _compile_matcher(self)["match"]

    @cached_property
    def applier(self):
        """`apply(g, nodes)`, applying the match at lhs nodes `nodes` as
        `Match.apply` does, compiled on the first application."""
        return _compile_applier(self)

    @cached_property
    def shape(self) -> tuple[Skeleton, Skeleton]:
        """The shape of the justification every application records."""
        index = itertools.count()
        return pattern_shape(self.lhs, index), pattern_shape(self.rhs, index)


def _width(value: int) -> int:
    if value < 1:
        raise BlockedMatch(f"computed width {value!r} invalid")
    return value


def _is_signed(value) -> bool:
    return value == SIGNED


# ---------------------------------------------------------------------------
# Rule programs
# ---------------------------------------------------------------------------
#
# A pattern rule runs as Python generated from it and kept on the rule:
# its matcher is compiled on the first Rule.matches and its applier on the
# first application, so the built-in catalogue, parsed once per process,
# compiles each once:
#
# - the matcher walks the lhs with one nested loop per structured position
#   and records a match as the ids of the nodes at those positions;
# - the condition is one function of the parameters it reads;
# - the applier reads what the rhs needs back from those nodes, whose
#   annotations and values no rebuild changes, and emits the rhs in
#   pre-order (a node's output annotation, then per operand its slot
#   annotation and its subterm, then the node itself), so a BlockedMatch
#   partway leaves the nodes added before it.  Each node goes to EGraph.add
#   as a tuple of its fields (a NodeRec is built on a miss).  The union's
#   justification is the rule's shape and the ids of the lhs and rhs nodes.
#
# Every expression is typed when the rule is made, so a program tests only
# values: a width below 1, a blocked 2^ or log2, an unrepresentable
# constant.  eval_expr stays the reference semantics of the expression
# language.


def _unrepresentable(v, a: Annotation):
    raise BlockedMatch(f"constant {v} not representable in ({a})")


_GLOBALS = {
    "Annotation": Annotation, "_INTERNED": _INTERNED,
    "BlockedMatch": BlockedMatch, "RuleError": RuleError,
    "RuleJust": RuleJust,
    "_power": _power, "_width_of": _width_of, "_log2": _log2,
    "_width": _width,
    "_unrepresentable": _unrepresentable,
}


def _tuple_code(items: list[str]) -> str:
    return "(" + "".join(f"{x}, " for x in items) + ")"


# The helper each function-like operator compiles to, and the Python
# spelling of the boolean operators; the others are spelled alike.
_CALLS = {"^": "_power", "width": "_width_of", "log2": "_log2"}
_PY_OPS = {"&&": "and", "||": "or"}


def _expr_code(e, ref, kinds: dict) -> tuple[str, str]:
    """Python source computing expression e as eval_expr does, and its type,
    'int', 'str' or 'bool': the one typing rule of the expression language.
    `ref(name)` is the source of a parameter's value and `kinds[name]` its
    kind.  An ill-typed e raises RuleError."""
    if isinstance(e, bool):
        return repr(e), "bool"
    if isinstance(e, int):
        return repr(e), "int"
    if isinstance(e, str):
        return ref(e), _TYPES[kinds[e]]
    op = e[0]
    if op == "sig":
        return repr(e[1]), "str"
    code = [_expr_code(x, ref, kinds) for x in e[1:]]
    src = [s for s, _ in code]
    types = tuple(t for _, t in code)
    if op in ("==", "!="):
        takes, result = (types[0] if types else "int",) * 2, "bool"
    elif op in ("min", "max"):
        takes, result = ("int",) * max(1, len(types)), "int"
    elif op in _SIGNATURES:
        takes, result = _SIGNATURES[op]
    else:
        raise RuleError(f"unknown operator {op!r}")
    if types != takes:
        raise RuleError(f"{op} takes ({', '.join(takes)}), "
                        f"not ({', '.join(types)})")
    if op == "!":
        return f"(not {src[0]})", result
    if op in _CALLS:
        return f"{_CALLS[op]}({', '.join(src)})", result
    if op in ("min", "max"):
        return (f"{op}({', '.join(src)})" if len(src) > 1 else src[0]), result
    return f"({src[0]} {_PY_OPS.get(op, op)} {src[1]})", result


class _Code:
    """Generated source: lines at a running indentation, fresh local names,
    and the constants it reads from its namespace."""

    def __init__(self, header: list[str]):
        self.lines = list(header)
        self.depth = 1
        self.names = 0
        self.consts: dict[str, object] = {}

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def fresh(self, stem: str) -> str:
        self.names += 1
        return f"{stem}{self.names}"

    def const(self, value) -> str:
        name = self.fresh("K")
        self.consts[name] = value
        return name

    def find(self, name: str, node: str) -> None:
        """Emit `name = find(node)`, find's fast path inline: one parent
        hop, which leaves no path to halve."""
        self.emit(f"{name} = parent[{node}]")
        self.emit(f"if parent[{name}] != {name}: {name} = find({node})")

    def run(self, filename: str, **names) -> dict:
        text = "\n".join(self.lines) + "\n"
        # for tracebacks; an mtime of None keeps it past checkcache
        linecache.cache[filename] = (len(text), None,
                                     text.splitlines(True), filename)
        ns = {**_GLOBALS, **self.consts, **names}
        exec(compile(text, filename, "exec"), ns)
        return ns


def _matcher_reads(rule: Rule) -> set:
    """The lhs bindings a matcher reads: the condition's parameters, each
    parameter or variable that more than one slot binds, and a bare-variable
    rhs's class.  Variables are keyed ('class', name)."""
    reads: set = set()
    expr_params(rule.cond, reads)
    if isinstance(rule.rhs, PatVar):
        reads.add(("class", rule.rhs.name))
    seen = set()
    for kind, e, _ in pattern_slots(rule.lhs):
        if isinstance(e, str):
            key = ("class", e) if kind == "class" else e
            if key in seen:
                reads.add(key)
            seen.add(key)
    return reads


def _walk_lhs(code: _Code, rule: Rule, bind: bool) -> tuple:
    """Walk the lhs in pre-order, the node at position k in `pk`.  Matching,
    emit a loop per position that checks every slot of a node before it
    descends, and binds only what `_matcher_reads` names and the classes
    it descends into, each once per node; with `bind`, emit nothing, and
    read position k's record as `Nk`.  Returns the sources of each
    parameter, of each variable's class (keyed ('class', name)), of each
    (?w, ?s) pair's annotation (keyed ('ann', w, s)) and of each signage
    parameter as a bool (keyed ('signed', s)); and the names of the
    positions' nodes, in pre-order."""
    local: dict[object, str] = {}
    reads = set() if bind else _matcher_reads(rule)
    positions = 0

    def unify(key, value: str) -> None:
        # a slot holds a parameter or an int literal; a signage literal is
        # tested by `annotation`
        if isinstance(key, str) and key not in local:
            if bind:
                local[key] = value
            elif key in reads:
                local[key] = code.fresh("v")
                code.emit(f"{local[key]} = {value}")
        elif not bind:
            want = local[key] if isinstance(key, str) else repr(key)
            code.emit(f"if {value} != {want}: continue")

    def annotation(w, s, value: str) -> None:
        local.setdefault(("ann", w, s), value)
        unify(w, f"{value}.width")
        if isinstance(s, tuple):
            if not bind:
                code.emit(f"if {'not ' if s[1] == SIGNED else ''}"
                          f"{value}.signed: continue")
        else:
            local.setdefault(("signed", s), f"{value}.signed")
            unify(s, f"({SIGNED!r} if {value}.signed else {UNSIGNED!r})")

    def position(p: Pattern, cls: str) -> None:
        """Walk the nodes of class `cls` that match p."""
        nonlocal positions
        n, N = f"p{positions}", "N"
        if bind:
            N = f"N{positions}"
        else:
            code.emit(f"for {n} in classes[{cls}].node_ids:")
            code.depth += 1
            code.emit(f"N = gnodes[{n}]")
            code.emit(f"if N.op != {getattr(p, 'op', 'const')!r}: continue")
        positions += 1
        if isinstance(p, PatConst):
            unify(p.value, f"{N}.value")
            annotation(p.width, p.sig, f"{N}.out")
            return
        annotation(p.out_w, p.out_s, f"{N}.out")
        for i, (w, s, _) in enumerate(p.operands):
            annotation(w, s, f"{N}.slots[{i}]")
        kids = []
        for i, (_, _, sub) in enumerate(p.operands):
            key = ("class", sub.name) if isinstance(sub, PatVar) else None
            c = f"{N}.children[{i}]"
            if not bind:
                if key is not None and key not in reads:
                    continue
                c = code.fresh("c")
                code.find(c, f"N.children[{i}]")
            if key is None:
                kids.append((i, sub, c))
            elif key not in local:
                local[key] = c
            elif not bind:
                code.emit(f"if {c} != {local[key]}: continue")
        for _, sub, c in kids:
            position(sub, c)

    position(rule.lhs, "c0")
    return local, [f"p{k}" for k in range(positions)]


def _compile_matcher(rule: Rule) -> dict:
    """The namespace holding `match(g, rule)` and, for a conditional rule,
    `cond(...)`."""
    code = _Code(["def match(g, rule):",
                  "    gnodes, classes, parent, find = "
                  "g.nodes, g.classes, g.parent, g.find",
                  "    out = []",
                  "    append = out.append",
                  "    for c0 in sorted(classes):"])
    code.depth = 2
    local, nodes = _walk_lhs(code, rule, bind=False)
    cond_src = []
    if rule.cond is not True:
        params: set[str] = set()
        expr_params(rule.cond, params)
        args = ", ".join(local[p] for p in sorted(params))
        body, _ = _expr_code(rule.cond, local.__getitem__, rule.kinds)
        cond_src = [f"def cond({args}):", f"    return {body}"]
        code.emit("try:")
        code.emit(f"    if not cond({args}): continue")
        code.emit("except BlockedMatch:")
        code.emit("    continue")
    if isinstance(rule.rhs, PatVar):
        # merging with a bare class requires matching annotations
        code.emit(f"if gnodes[classes[{local[('class', rule.rhs.name)]}]"
                  ".node_ids[0]].out != gnodes[classes[c0].node_ids[0]].out: "
                  "continue")
    code.emit(f"append(Match(rule, {_tuple_code(nodes)}))")
    code.depth = 1
    code.emit("return out")
    code.lines += cond_src
    return code.run(f"<rule {rule.id}>", Match=Match)


def _emit_rhs(code: _Code, rule: Rule, local: dict) -> tuple[str, str, list]:
    """Emit the instance of rule's rhs; returns the sources of its class
    and node, and the names of its nodes in the pre-order of
    `pattern_shape`.  `local` holds the sources `_walk_lhs` returns: of each
    parameter, each variable's class and each lhs annotation, and of each
    signage parameter as a bool.  Each (w, s) annotation is computed once."""
    anns: dict[tuple, str] = {}
    order: list[str] = []

    def expr(e) -> str:
        return _expr_code(e, local.__getitem__, rule.kinds)[0]

    def annotation(w, s) -> str:
        if (w, s) not in anns:
            anns[w, s] = new_annotation(w, s)
        return anns[w, s]

    def new_annotation(w, s) -> str:
        # a signage is a literal or an lhs parameter, read as its slot's bool
        sig = isinstance(s, tuple)
        if type(w) is int and w >= 1 and sig:
            return code.const(Annotation(w, s[1] == SIGNED))
        a = local.get(("ann", w, s))
        if a:
            return a
        a = code.fresh("a")
        code.emit(f"w = {expr(w)}")
        if not (type(w) is int and w >= 1):
            code.emit("if w < 1: _width(w)")
        code.emit(f"s = {s[1] == SIGNED if sig else local[('signed', s)]}")
        code.emit(f"{a} = _INTERNED.get((w, s)) or Annotation(w, s)")
        return a

    def node(p: Pattern, top: bool) -> tuple[str, str]:
        c, n = code.fresh("c"), code.fresh("n")
        if isinstance(p, PatVar):
            code.find(c, local[("class", p.name)])
            if not top:
                return c, ""
            code.emit(f"{n} = min(classes[{c}].node_ids)")
            order.append(n)
            return c, n
        order.append(n)
        if isinstance(p, PatConst):
            a = annotation(p.width, p.sig)
            v = code.fresh("x")
            code.emit(f"{v} = {expr(p.value)}")
            code.emit(f"if not {a}.contains({v}): _unrepresentable({v}, {a})")
            code.emit(f"{c}, {n} = add(('const', {a}, (), (), None, {v}, "
                      "None))")
            return c, n
        out = annotation(p.out_w, p.out_s)
        slots, kids = [], []
        for w, s, sub in p.operands:
            slots.append(annotation(w, s))
            kids.append(node(sub, False)[0])
        code.emit(f"{c}, {n} = add(({p.op!r}, {out}, {_tuple_code(slots)}, "
                  f"{_tuple_code(kids)}, None, None, None))")
        return c, n

    c, n = node(rule.rhs, True)
    return c, n, order


def _compile_applier(rule: Rule):
    """`apply(g, nodes)`, as Match.apply; the rhs reads each parameter,
    class and annotation from the nodes where it needs it."""
    code = _Code(["def apply(g, nodes):",
                  "    gnodes, add, find, classes, parent = "
                  "g.nodes, g.add, g.find, g.classes, g.parent"])
    local, nodes = _walk_lhs(code, rule, bind=True)
    code.emit(f"{_tuple_code(nodes)[1:-1]} = nodes")
    code.emit(_tuple_code([f"N{k}" for k in range(len(nodes))])[1:-1]
              + " = " + _tuple_code([f"gnodes[{p}]" for p in nodes])[1:-1])
    code.find("target", "p0")
    code.emit("try:")
    code.depth = 2
    c, n, rnodes = _emit_rhs(code, rule, local)
    code.depth = 1
    code.emit("except BlockedMatch:")
    code.emit("    return False")
    code.emit(f"if {c} == target: return False")
    code.emit(f"a, t = gnodes[{n}].out, "
              "gnodes[classes[target].node_ids[0]].out")
    rid = code.const(rule.id)
    code.emit(f"if a != t: raise RuleError(f'{{{rid}}}: rhs annotation "
              "({a}) differs from matched class ({t})')")
    code.emit(f"return g.union(p0, {n}, RuleJust._make(({rid}, "
              f"{code.const(rule.shape)}, {_tuple_code(nodes + rnodes)})))")
    return code.run(f"<rule {rule.id} applier>")["apply"]


@dataclass
class Match:
    """A match of a pattern rule: the ids of the nodes at its lhs's
    structured positions, in pre-order."""

    __slots__ = ("rule", "nodes", "__weakref__")
    rule: Rule
    nodes: tuple[int, ...]

    def apply(self, g: EGraph) -> bool:
        """Instantiate the rhs and union it with the class of `nodes[0]`.
        Returns False when the instance is blocked or already in the class;
        raises RuleError when its annotation differs from the class's."""
        return self.rule.applier(g, self.nodes)


# ---------------------------------------------------------------------------
# Dynamic rules (not expressible as static patterns)
# ---------------------------------------------------------------------------

class ZextIntroRule:
    """Wrap any operator class in an identity zext/sext of the same
    annotation.  Introduces self-referential nodes, letting variants that
    differ only by such an extension share structure."""

    id = "zext-intro"
    checker_hint = "trivial"
    rhs_nodes = 1  # the zext/sext
    # its soundness: an extension to the operand's own annotation is the
    # operand
    SOUNDNESS = r"""
zext-intro : (zext ?w unsigned ?w unsigned ?a) => ?a ;
sext-intro : (sext ?w signed ?w signed ?a) => ?a ;
"""

    def matches(self, g: EGraph) -> list["ZextIntroMatch"]:
        out = []
        for cid in sorted(g.classes):
            for nid in g.classes[cid].node_ids:
                n = g.nodes[nid]
                if n.op not in ("var", "const", "zext", "sext"):
                    out.append(ZextIntroMatch(self, nid))
                    break
        return out

    def validate(self, maxw: int) -> list[dict]:
        return [v for r in _soundness(self.SOUNDNESS)
                for v in validate_rule(r, maxw)]


# an operator node (the whole lhs, a variable) and its zext/sext
ZEXT_INTRO_SHAPE = (Skeleton(0, None), Skeleton(1, (None,)))


@dataclass
class ZextIntroMatch:
    rule: ZextIntroRule
    nid: int

    def apply(self, g: EGraph) -> bool:
        out = g.nodes[self.nid].out
        wrap = "sext" if out.signed else "zext"
        _, wnid = g.add(NodeRec(wrap, out, (out,), (g.find(self.nid),)))
        return g.union(self.nid, wnid, RuleJust(
            "zext-intro", ZEXT_INTRO_SHAPE, (self.nid, wnid)))


class WidthReduceRule:
    """Stand-in rule object for the analysis-driven narrowing pass, so the
    catalogue audit covers it.  Saturation performs the actual rewriting."""

    id = "width-reduce"
    checker_hint = "simulation"
    rhs_nodes = NARROWING_NODES  # never matches: saturation narrows
    # its soundness on `+`: the sum of two wa-bit operands fits wa + 1 bits.
    # Audited at maxw + 1, so that the output width reaches one bit past
    # maxw.
    SOUNDNESS = r"""
width-reduce : (+ ?wo unsigned ?wa unsigned ?a ?wa unsigned ?b)
            => (zext ?wo unsigned (?wa + 1) unsigned
                  (+ (?wa + 1) unsigned ?wa unsigned ?a ?wa unsigned ?b))
            if ?wa + 1 < ?wo ;
"""

    def matches(self, g: EGraph) -> list:
        return []

    def validate(self, maxw: int) -> list[dict]:
        return [v for r in _soundness(self.SOUNDNESS)
                for v in validate_rule(r, maxw + 1)]


# ---------------------------------------------------------------------------
# Rule-file parsing
# ---------------------------------------------------------------------------

def parse_rules(text: str) -> list[Rule]:
    """Parse a rule file: `id : LHS => RHS [if COND] [hint NAME] ;` per rule.
    Lines whose first non-blank character is # are comments.  `<=>` expands
    to two rules, the second with id `id-rev`; an id may be used once."""
    text = "\n".join("" if line.lstrip().startswith("#") else line
                     for line in text.splitlines())
    ts = lex(_TOKEN, text, RuleError)
    rules: list[Rule] = []
    ids: set[str] = set()
    while ts.peek() is not None:
        loc = ts.loc()
        rid = ts.next()
        ts.expect(":")
        lhs = _parse_pattern(ts, rhs=False)
        arrow_loc = ts.loc()
        arrow = ts.next()
        if arrow not in ("=>", "<=>"):
            ts.fail(f"{rid}: expected => or <=>, got {arrow!r}", arrow_loc)
        rhs = _parse_pattern(ts, rhs=(arrow == "=>"))
        cond = True
        hint = "simulation"
        while ts.peek() not in (";", None):
            tloc = ts.loc()
            t = ts.next()
            if t == "if":
                cond = _expr(ts, 1)
            elif t == "hint":
                tloc = ts.loc()
                hint = ts.next()
                if hint not in HINTS:
                    ts.fail(f"{rid}: unknown hint {hint!r}", tloc)
            else:
                ts.fail(f"{rid}: unexpected token {t!r}", tloc)
        ts.expect(";")
        try:
            new = [Rule(rid, lhs, rhs, cond, hint)]
            if arrow == "<=>":
                new.append(Rule(rid + "-rev", rhs, lhs, cond, hint))
        except RuleError as e:
            raise RuleError(str(e), *loc) from None
        for r in new:
            if r.id in ids:
                ts.fail(f"duplicate rule id {r.id!r}", loc)
            ids.add(r.id)
        rules += new
    return rules


# ---------------------------------------------------------------------------
# Baseline catalogue
# ---------------------------------------------------------------------------

# Sufficiency rationale per rule: either every intermediate annotation is
# wide enough that all values are preserved modulo 2^wo (the output width),
# or the condition forces exact (truncation-free) arithmetic via exact-width
# bounds.  Right-hand sides are constructed to be correct unconditionally.
CATALOGUE_TEXT = r"""
comm-add : (+ ?wo ?so ?w1 ?s1 ?a ?w2 ?s2 ?b)
        => (+ ?wo ?so ?w2 ?s2 ?b ?w1 ?s1 ?a) hint trivial ;

comm-mul : (* ?wo ?so ?w1 ?s1 ?a ?w2 ?s2 ?b)
        => (* ?wo ?so ?w2 ?s2 ?b ?w1 ?s1 ?a) hint trivial ;

assoc-add : (+ ?wo ?so ?w1 ?s1 (+ ?wi ?si ?wa ?sa ?a ?wb ?sb ?b) ?wc ?sc ?c)
         => (+ ?wo ?so ?wa ?sa ?a
               (max(max(?wb,?wc)+1,?wo)) ?si
               (+ (max(max(?wb,?wc)+1,?wo)) ?si ?wb ?sb ?b ?wc ?sc ?c))
         if (?wi >= ?wo && ?w1 >= ?wo)
            || (?sa == unsigned && ?sb == unsigned && ?si == unsigned
                && ?s1 == unsigned && ?wi >= max(?wa,?wb)+1 && ?w1 >= ?wi) ;

assoc-add-rev : (+ ?wo ?so ?wa ?sa ?a ?w1 ?s1 (+ ?wi ?si ?wb ?sb ?b ?wc ?sc ?c))
             => (+ ?wo ?so
                   (max(max(?wa,?wb)+1,?wo)) ?si
                   (+ (max(max(?wa,?wb)+1,?wo)) ?si ?wa ?sa ?a ?wb ?sb ?b)
                   ?wc ?sc ?c)
             if (?wi >= ?wo && ?w1 >= ?wo)
                || (?sb == unsigned && ?sc == unsigned && ?si == unsigned
                    && ?s1 == unsigned && ?wi >= max(?wb,?wc)+1 && ?w1 >= ?wi) ;

assoc-mul : (* ?wo ?so ?w1 ?s1 (* ?wi ?si ?wa ?sa ?a ?wb ?sb ?b) ?wc ?sc ?c)
         => (* ?wo ?so ?wa ?sa ?a
               (max(?wb+?wc,?wo)) ?si
               (* (max(?wb+?wc,?wo)) ?si ?wb ?sb ?b ?wc ?sc ?c))
         if (?wi >= ?wo && ?w1 >= ?wo)
            || (?sa == unsigned && ?sb == unsigned && ?si == unsigned
                && ?s1 == unsigned && ?wi >= ?wa+?wb && ?w1 >= ?wi) ;

assoc-mul-rev : (* ?wo ?so ?wa ?sa ?a ?w1 ?s1 (* ?wi ?si ?wb ?sb ?b ?wc ?sc ?c))
             => (* ?wo ?so
                   (max(?wa+?wb,?wo)) ?si
                   (* (max(?wa+?wb,?wo)) ?si ?wa ?sa ?a ?wb ?sb ?b)
                   ?wc ?sc ?c)
             if (?wi >= ?wo && ?w1 >= ?wo)
                || (?sb == unsigned && ?sc == unsigned && ?si == unsigned
                    && ?s1 == unsigned && ?wi >= ?wb+?wc && ?w1 >= ?wi) ;

unmerge-shift : (<< ?wo ?so ?wa ?sa ?a
                    ?ws ?ss (+ ?wsum ?ssum ?wb ?sb ?b ?wc ?sc ?c))
             => (<< ?wo ?so ?wo ?so (<< ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)
                    ?wc ?sc ?c)
             if ?ss == unsigned && ?ssum == unsigned && ?sb == unsigned
                && ?sc == unsigned && ?wsum >= max(?wb,?wc)+1 && ?ws >= ?wsum ;

merge-shift : (<< ?wo ?so ?wi ?si (<< ?wi2 ?si2 ?wa ?sa ?a ?wb ?sb ?b)
                  ?wc ?sc ?c)
           => (<< ?wo ?so ?wa ?sa ?a
                  (max(?wb,?wc)+1) unsigned
                  (+ (max(?wb,?wc)+1) unsigned ?wb ?sb ?b ?wc ?sc ?c))
           if ?sb == unsigned && ?sc == unsigned && ?wi >= ?wo && ?wi2 >= ?wo ;

mult-left-shift : (* ?wo ?so ?wa ?sa ?a
                     ?wm ?sm (<< ?wsh ?ssh ?wb ?sb ?b ?wc ?sc ?c))
               => (<< ?wo ?so ?wo ?so (* ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)
                      ?wc ?sc ?c)
               if ?sa == unsigned && ?sb == unsigned && ?sc == unsigned
                  && ?sm == unsigned && ?ssh == unsigned
                  && ( (?wsh >= ?wo && ?wm >= ?wo)
                       || (?wsh >= ?wb + 2^?wc - 1 && ?wm >= ?wb + 2^?wc - 1) )
               hint external-strong ;

left-shift-mult : (<< ?wo ?so ?wp ?sp (* ?wp2 ?sp2 ?wa ?sa ?a ?wb ?sb ?b)
                      ?wc ?sc ?c)
               => (* ?wo ?so ?wa ?sa ?a
                     (min(?wo, ?wb + 2^?wc - 1)) unsigned
                     (<< (min(?wo, ?wb + 2^?wc - 1)) unsigned
                         ?wb ?sb ?b ?wc ?sc ?c))
               if ?sa == unsigned && ?sb == unsigned && ?sc == unsigned
                  && ?sp == unsigned && ?sp2 == unsigned
                  && ( (?wp2 >= ?wo && ?wp >= ?wo)
                       || (?wp2 >= ?wa + ?wb && ?wp >= ?wa + ?wb) )
               hint external-strong ;

shift-to-mult : (<< ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs))
             => (* ?wo ?so ?wa ?sa ?a
                   (width(2^?v)) unsigned (const 2^?v (width(2^?v)) unsigned))
             if ?vs == unsigned && ?sc == unsigned && ?wc >= ?vw && ?v <= ?wo ;

mult-to-shift : (* ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs))
             => (<< ?wo ?so ?wa ?sa ?a
                    (width(log2(?v))) unsigned
                    (const log2(?v) (width(log2(?v))) unsigned))
             if ?vs == unsigned && ?sc == unsigned && ?wc >= ?vw
                && ?v >= 1 && ?v == 2^log2(?v) ;

mult-to-add : (* ?wo ?so ?wa ?sa ?a ?wc ?sc (const 2 ?vw ?vs))
           => (+ ?wo ?so ?wa ?sa ?a ?wa ?sa ?a)
           if ?vs == unsigned && ?wc >= 2 && (?sc == unsigned || ?wc >= 3) ;

shift-cancel : (>> ?wo ?so
                   ?w1 ?s1 (<< ?w2 ?s2 ?wa ?sa ?a ?wb ?sb ?s)
                   ?wc ?sc ?s)
            => ?a
            if ?sa == unsigned && ?s2 == unsigned && ?sb == unsigned
               && ?sc == unsigned && ?wb == ?wc
               && ?w2 >= ?wa + 2^?wb - 1 && ?w1 >= ?w2
               && ?wo == ?wa && ?so == ?sa ;

zext-fold : (zext ?wo ?so ?w1 ?s1 (zext ?w2 ?s2 ?wa ?sa ?a))
         => (zext ?wo ?so ?wa ?sa ?a)
         if ?s2 == unsigned && ?w2 >= ?wa && ?w1 >= ?w2 hint trivial ;
"""


@cache
def _catalogue() -> tuple[Rule, ...]:
    return tuple(parse_rules(CATALOGUE_TEXT))


@cache
def _soundness(text: str) -> tuple[Rule, ...]:
    """A dynamic rule's soundness statements, parsed once per process."""
    return tuple(parse_rules(text))


def baseline_rules() -> list:
    """The built-in conditional catalogue, including the dynamic rules: a
    new list each call, of the rules parsed once per process."""
    return [*_catalogue(), ZextIntroRule(), WidthReduceRule()]


# ---------------------------------------------------------------------------
# Rule validation (exhaustive sufficiency audit at small widths)
# ---------------------------------------------------------------------------

def validate_rule(rule, maxw: int = 4) -> list[dict]:
    """Exhaustively audit a rule's condition for sufficiency.

    Enumerates every parameter vector with widths <= maxw (shift-amount
    widths <= min(maxw, 3)) and both signages; wherever the condition holds,
    checks lhs == rhs over all operand values.  Returns the violations, one
    per violating instance, in enumeration order.  A pattern rule's grid is
    checked in blocks by `_check_instance` (see `wordec.audit`); a dynamic
    rule's `validate` audits the pattern rules stating its soundness."""
    if maxw < 1:
        raise RuleError("maxw must be >= 1")
    if hasattr(rule, "validate"):
        return rule.validate(maxw)
    from .audit import RuleAudit  # it imports this module
    audit = RuleAudit(rule, maxw)
    violations: list[dict] = []
    for start, stop in audit.blocks():
        violations += _check_instance(audit, start, stop)
    return violations


def _check_instance(audit, start: int, stop: int) -> list[dict]:
    """The violations among grid vectors start..stop-1 of a rule's audit
    (one block), in enumeration order."""
    return audit.check(start, stop)
