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
expressions over the bound parameters.  A rule's condition must be
*sufficient*: whenever it holds, the two sides are extensionally equal
under the IR semantics; validate_rule audits this exhaustively at small
widths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .egraph import EGraph, Leaf, NodeRec, RuleJust, Skeleton
from .ir import Annotation, ARITY, SIGNED, UNSIGNED, Term, first_mismatch


class RuleError(Exception):
    pass


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


def tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise RuleError(f"bad character {text[pos]!r} at offset {pos}")
        if m.lastgroup != "ws":
            out.append(m.group())
        pos = m.end()
    return out


class _Tokens:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise RuleError("unexpected end of rule text")
        self.i += 1
        return t

    def expect(self, tok: str) -> None:
        t = self.next()
        if t != tok:
            raise RuleError(f"expected {tok!r}, got {t!r}")


# Expression AST: int | str-param ('?w') | signage literal | (op, args...)

_FUNCS = {"min", "max", "width", "log2"}
_CMP = {"==", "!=", "<=", ">=", "<", ">"}


def _parse_or(ts):
    e = _parse_and(ts)
    while ts.peek() == "||":
        ts.next()
        e = ("||", e, _parse_and(ts))
    return e


def _parse_and(ts):
    e = _parse_not(ts)
    while ts.peek() == "&&":
        ts.next()
        e = ("&&", e, _parse_not(ts))
    return e


def _parse_not(ts):
    if ts.peek() == "!":
        ts.next()
        return ("!", _parse_not(ts))
    return _parse_cmp(ts)


def _parse_cmp(ts):
    e = _parse_sum(ts)
    if ts.peek() in _CMP:
        op = ts.next()
        return (op, e, _parse_sum(ts))
    return e


def _parse_sum(ts):
    e = _parse_prod(ts)
    while ts.peek() in ("+", "-"):
        op = ts.next()
        e = (op, e, _parse_prod(ts))
    return e


def _parse_prod(ts):
    e = _parse_pow(ts)
    while ts.peek() == "*":
        ts.next()
        e = ("*", e, _parse_pow(ts))
    return e


def _parse_pow(ts):
    e = _parse_atom(ts)
    if ts.peek() == "^":
        ts.next()
        return ("^", e, _parse_pow(ts))
    return e


def _parse_atom(ts):
    t = ts.next()
    if t.isdigit():
        return int(t)
    if t.startswith("?"):
        return t
    if t in (UNSIGNED, SIGNED):
        return ("sig", t)
    if t in _FUNCS:
        ts.expect("(")
        args = [_parse_or(ts)]
        while ts.peek() == ",":
            ts.next()
            args.append(_parse_or(ts))
        ts.expect(")")
        return (t, *args)
    if t == "(":
        e = _parse_or(ts)
        ts.expect(")")
        return e
    raise RuleError(f"unexpected token {t!r} in expression")


def parse_expr(text: str):
    ts = _Tokens(tokenize(text))
    e = _parse_or(ts)
    if ts.peek() is not None:
        raise RuleError(f"trailing tokens in expression: {ts.peek()!r}")
    return e


def eval_expr(e, env: dict):
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
        return {"==": a == b, "!=": a != b,
                "<=": a <= b, ">=": a >= b,
                "<": a < b, ">": a > b}[op]
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "^":
        if args[1] > 1 << 20:
            raise BlockedMatch("exponent too large")
        if args[1] < 0:
            raise BlockedMatch("negative exponent")
        return args[0] ** args[1]
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    if op == "width":
        return max(1, int(args[0]).bit_length())
    if op == "log2":
        if args[0] < 1:
            raise BlockedMatch("log2 of non-positive value")
        return int(args[0]).bit_length() - 1
    raise RuleError(f"unknown operator {op!r}")


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


def _parse_sig_slot(ts):
    t = ts.next()
    if t.startswith("?"):
        return t
    if t in (UNSIGNED, SIGNED):
        return ("sig", t)
    raise RuleError(f"expected signage, got {t!r}")


def _parse_width_slot(ts, rhs: bool):
    # RHS widths may be arbitrary expressions (parenthesize compound ones);
    # LHS widths must be a parameter or literal so they can be matched.
    t = ts.peek()
    if t is not None and (t.isdigit() or t.startswith("?")):
        ts.next()
        if rhs and ts.peek() in ("+", "-", "*", "^"):
            # re-parse as an expression starting from this atom
            ts.i -= 1
            return _parse_sum(ts)
        return int(t) if t.isdigit() else t
    if rhs and t in _FUNCS or rhs and t == "(":
        return _parse_sum(ts)
    raise RuleError(f"expected width, got {t!r}")


def _parse_pattern(ts, rhs: bool) -> Pattern:
    t = ts.peek()
    if t is not None and t.startswith("?"):
        ts.next()
        return PatVar(t)
    ts.expect("(")
    head = ts.next()
    if head == "const":
        if rhs:
            val = _parse_sum(ts)
        else:
            v = ts.next()
            val = int(v) if v.isdigit() else v
            if isinstance(val, str) and not val.startswith("?"):
                raise RuleError(f"bad const value {v!r}")
        w = _parse_width_slot(ts, rhs)
        s = _parse_sig_slot(ts)
        ts.expect(")")
        return PatConst(val, w, s)
    if head not in ARITY:
        raise RuleError(f"unknown opcode {head!r} in pattern")
    out_w = _parse_width_slot(ts, rhs)
    out_s = _parse_sig_slot(ts)
    operands = []
    while ts.peek() != ")":
        w = _parse_width_slot(ts, rhs)
        s = _parse_sig_slot(ts)
        sub = _parse_pattern(ts, rhs)
        operands.append((w, s, sub))
    ts.expect(")")
    if len(operands) != ARITY[head]:
        raise RuleError(
            f"{head} expects {ARITY[head]} operands, got {len(operands)}")
    return PatOp(head, out_w, out_s, tuple(operands))


def pattern_params(p: Pattern, out: set[str]) -> None:
    if isinstance(p, PatVar):
        return
    if isinstance(p, PatConst):
        for e in (p.value, p.width, p.sig):
            expr_params(e, out)
        return
    expr_params(p.out_w, out)
    expr_params(p.out_s, out)
    for w, s, sub in p.operands:
        expr_params(w, out)
        expr_params(s, out)
        pattern_params(sub, out)


def pattern_vars(p: Pattern, out: set[str]) -> None:
    if isinstance(p, PatVar):
        out.add(p.name)
    elif isinstance(p, PatOp):
        for _, _, sub in p.operands:
            pattern_vars(sub, out)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

HINTS = ("trivial", "simulation", "external-strong")


@dataclass
class Rule:
    id: str
    lhs: Pattern
    rhs: Pattern
    cond: object = True          # expr AST; True means unconditional
    checker_hint: str = "simulation"
    bidirectional: bool = False

    def __post_init__(self):
        if isinstance(self.lhs, PatVar):
            raise RuleError(f"{self.id}: left-hand side cannot be a bare variable")
        lv: set[str] = set()
        rv: set[str] = set()
        pattern_vars(self.lhs, lv)
        pattern_vars(self.rhs, rv)
        if not rv <= lv:
            raise RuleError(f"{self.id}: rhs variables {rv - lv} unbound")
        lp: set[str] = set()
        rp: set[str] = set()
        pattern_params(self.lhs, lp)
        pattern_params(self.rhs, rp)
        # rhs parameters must be defined by the lhs (rhs width-expressions
        # over lhs parameters are fine; a fresh rhs parameter is not)
        if not rp <= lp:
            raise RuleError(f"{self.id}: rhs parameters {rp - lp} unbound")

    # -- matching -----------------------------------------------------------

    def matches(self, g: EGraph) -> list["Match"]:
        out = []
        for cid in sorted(g.classes):
            for env, skel in _match_pattern(g, self.lhs, cid, {}):
                if self.cond is not True:
                    try:
                        if not eval_expr(self.cond, env):
                            continue
                    except BlockedMatch:
                        continue
                if isinstance(self.rhs, PatVar):
                    # merging with a bare class requires matching annotations
                    tgt = g.nodes[g.classes[cid].node_ids[0]].out
                    bcid = env[("class", self.rhs.name)]
                    bann = g.nodes[g.classes[g.find(bcid)].node_ids[0]].out
                    if bann != tgt:
                        continue
                out.append(Match(self, cid, env, skel))
        return out


def _unify(env: dict, key, value) -> dict | None:
    """Unify a slot expression (param, literal int, or signage literal)."""
    if isinstance(key, int):
        return env if key == value else None
    if isinstance(key, tuple) and key[0] == "sig":
        return env if key[1] == value else None
    if isinstance(key, str) and key.startswith("?"):
        if key in env:
            return env if env[key] == value else None
        env = dict(env)
        env[key] = value
        return env
    raise RuleError(f"unmatchable slot expression {key!r} on lhs")


def _match_pattern(g: EGraph, p: Pattern, cid: int, env: dict
                   ) -> Iterator[tuple[dict, Skeleton | None]]:
    cid = g.find(cid)
    if isinstance(p, PatVar):
        key = ("class", p.name)
        if key in env:
            if g.find(env[key]) == cid:
                yield env, None
            return
        env = dict(env)
        env[key] = cid
        yield env, None
        return
    if isinstance(p, PatConst):
        for nid in g.classes[cid].node_ids:
            n = g.nodes[nid]
            if n.op != "const":
                continue
            e = _unify(env, p.value, n.value)
            if e is None:
                continue
            e = _unify(e, p.width, n.out.width)
            if e is None:
                continue
            e = _unify(e, p.sig, n.out.signage)
            if e is not None:
                yield e, Skeleton(nid, ())
        return
    for nid in g.classes[cid].node_ids:
        n = g.nodes[nid]
        if n.op != p.op:
            continue
        e0 = _unify(env, p.out_w, n.out.width)
        if e0 is None:
            continue
        e0 = _unify(e0, p.out_s, n.out.signage)
        if e0 is None:
            continue
        states = [(e0, [])]
        for i, (wp, sp, sub) in enumerate(p.operands):
            nxt = []
            for e1, skels in states:
                e2 = _unify(e1, wp, n.slots[i].width)
                if e2 is None:
                    continue
                e2 = _unify(e2, sp, n.slots[i].signage)
                if e2 is None:
                    continue
                for e3, sk in _match_pattern(g, sub, n.children[i], e2):
                    nxt.append((e3, skels + [sk]))
            states = nxt
            if not states:
                break
        for e, skels in states:
            yield e, Skeleton(nid, tuple(skels))


def _width(value) -> int:
    if not isinstance(value, int) or value < 1:
        raise BlockedMatch(f"computed width {value!r} invalid")
    return value


def _is_signed(value) -> bool:
    return value == SIGNED


def _eval_ann(w, s, env) -> Annotation:
    return Annotation(_width(eval_expr(w, env)), _is_signed(eval_expr(s, env)))


def instantiate(g: EGraph, p: Pattern, env: dict
                ) -> tuple[int, int, Skeleton | Leaf]:
    """Add the rhs instance to the graph; returns (class, node, skeleton)."""
    if isinstance(p, PatVar):
        cid = g.find(env[("class", p.name)])
        nid = min(g.classes[cid].node_ids)
        return cid, nid, Leaf(nid)
    if isinstance(p, PatConst):
        a = _eval_ann(p.width, p.sig, env)
        v = eval_expr(p.value, env)
        if not a.contains(v):
            raise BlockedMatch(f"constant {v} not representable in ({a})")
        cid, nid = g.add_node(NodeRec("const", a, (), (), value=v))
        return cid, nid, Skeleton(nid, ())
    out = _eval_ann(p.out_w, p.out_s, env)
    kids, slots, subs = [], [], []
    for w, s, sub in p.operands:
        slots.append(_eval_ann(w, s, env))
        ccid, _, csk = instantiate(g, sub, env)
        kids.append(ccid)
        subs.append(None if isinstance(csk, Leaf) else csk)
    cid, nid = g.add_node(NodeRec(p.op, out, tuple(slots), tuple(kids)))
    return cid, nid, Skeleton(nid, tuple(subs))


@dataclass
class Match:
    rule: Rule
    cid: int
    env: dict
    lhs_skel: Skeleton

    def apply(self, g: EGraph) -> bool:
        """Instantiate the rhs and union it with the matched class.  Returns
        False when the application added nothing new."""
        target = g.find(self.cid)
        try:
            rcid, rnid, rskel = instantiate(g, self.rule.rhs, self.env)
        except BlockedMatch:
            return False
        if g.find(rcid) == target:
            return False
        tgt_ann = g.nodes[g.classes[target].node_ids[0]].out
        rhs_ann = g.nodes[rnid].out
        if tgt_ann != rhs_ann:
            raise RuleError(
                f"{self.rule.id}: rhs annotation ({rhs_ann}) differs from "
                f"matched class ({tgt_ann})")
        just = RuleJust(self.rule.id, self.lhs_skel, rskel,
                        self.lhs_skel.node, rnid)
        g.merge(target, rcid, just, edge=(self.lhs_skel.node, rnid))
        return True


# ---------------------------------------------------------------------------
# Dynamic rules (not expressible as static patterns)
# ---------------------------------------------------------------------------

class ZextIntroRule:
    """Wrap any operator class in an identity zext/sext of the same
    annotation.  Introduces self-referential nodes, letting width-relabeled
    variants share structure."""

    id = "zext-intro"
    checker_hint = "trivial"

    def matches(self, g: EGraph) -> list["ZextIntroMatch"]:
        out = []
        for cid in sorted(g.classes):
            for nid in g.classes[cid].node_ids:
                n = g.nodes[nid]
                if n.op not in ("var", "const", "zext", "sext"):
                    out.append(ZextIntroMatch(self, cid, nid))
                    break
        return out

    def validate(self, maxw: int) -> list[dict]:
        from .ir import var
        violations = []
        for w in range(1, maxw + 1):
            for signed in (False, True):
                a = Annotation(w, signed)
                x = var("x", a)
                wrapped = Term("sext" if signed else "zext", a,
                               operands=((a, x),))
                cex = first_mismatch(x, wrapped, [("x", a)])
                if cex is not None:
                    violations.append({"rule": self.id, "width": w,
                                       "signed": signed,
                                       "value": cex[0]["x"]})
        return violations


@dataclass
class ZextIntroMatch:
    rule: ZextIntroRule
    cid: int
    nid: int

    def apply(self, g: EGraph) -> bool:
        target = g.find(self.cid)
        out = g.nodes[self.nid].out
        wrap = "sext" if out.signed else "zext"
        wcid, wnid = g.add_node(NodeRec(wrap, out, (out,), (target,)))
        if g.find(wcid) == target:
            return False
        just = RuleJust("zext-intro", Leaf(self.nid),
                        Skeleton(wnid, (None,)), self.nid, wnid)
        g.merge(target, wcid, just, edge=(self.nid, wnid))
        return True


class WidthReduceRule:
    """Stand-in rule object for the analysis-driven narrowing pass, so the
    catalogue audit covers it.  Saturation performs the actual rewriting."""

    id = "width-reduce"
    checker_hint = "simulation"

    def matches(self, g: EGraph) -> list:
        return []

    def validate(self, maxw: int) -> list[dict]:
        from .ir import op, var
        violations = []
        # additions whose exact result provably fits below the declared width
        for wa in range(1, maxw + 1):
            for wo in range(2, maxw + 2):
                a = Annotation(wa)
                o = Annotation(wo)
                narrow_w = wa + 1  # exact width of wa+wa
                if narrow_w >= wo:
                    continue
                x, y = var("x", a), var("y", a)
                wide = op("+", o, (a, x), (a, y))
                nar = Annotation(narrow_w)
                reduced = op("zext", o, (nar, op("+", nar, (a, x), (a, y))))
                cex = first_mismatch(wide, reduced, [("x", a), ("y", a)])
                if cex is not None:
                    violations.append({"rule": self.id, "wa": wa,
                                       "wo": wo, "env": cex[0]})
        return violations


# ---------------------------------------------------------------------------
# Rule-file parsing
# ---------------------------------------------------------------------------

def parse_rules(text: str) -> list[Rule]:
    """Parse a rule file: `id : LHS => RHS [if COND] [hint NAME] ;` per rule.
    Lines starting with # are comments.  `<=>` expands to two rules."""
    stripped = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#"))
    ts = _Tokens(tokenize(stripped))
    rules: list[Rule] = []
    while ts.peek() is not None:
        rid = ts.next()
        ts.expect(":")
        lhs = _parse_pattern(ts, rhs=False)
        arrow = ts.next()
        if arrow not in ("=>", "<=>"):
            raise RuleError(f"{rid}: expected => or <=>, got {arrow!r}")
        rhs = _parse_pattern(ts, rhs=(arrow == "=>"))
        cond = True
        hint = "simulation"
        while ts.peek() not in (";", None):
            t = ts.next()
            if t == "if":
                cond = _parse_or(ts)
            elif t == "hint":
                hint = ts.next()
                if hint not in HINTS:
                    raise RuleError(f"{rid}: unknown hint {hint!r}")
            else:
                raise RuleError(f"{rid}: unexpected token {t!r}")
        ts.expect(";")
        if arrow == "<=>":
            rules.append(Rule(rid, lhs, rhs, cond, hint, bidirectional=True))
            rules.append(Rule(rid + "-rev", rhs, lhs, cond, hint,
                              bidirectional=True))
        else:
            rules.append(Rule(rid, lhs, rhs, cond, hint))
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


def baseline_rules() -> list:
    """The built-in conditional catalogue, including the dynamic rules."""
    rules: list = parse_rules(CATALOGUE_TEXT)
    rules.append(ZextIntroRule())
    rules.append(WidthReduceRule())
    return rules


# ---------------------------------------------------------------------------
# Rule validation (exhaustive sufficiency audit at small widths)
# ---------------------------------------------------------------------------

def validate_rule(rule, maxw: int = 4) -> list[dict]:
    """Exhaustively audit a rule's condition for sufficiency.

    Enumerates every parameter vector with widths <= maxw (shift-amount
    widths <= min(maxw, 3)) and both signages; wherever the condition holds,
    checks lhs == rhs over all operand values.  Returns the violations, one
    per violating instance, in enumeration order.  A pattern rule's grid is
    checked in blocks by `_check_instance` (see `wordec.audit`)."""
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
