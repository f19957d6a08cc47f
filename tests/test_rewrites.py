import copy
import functools
import itertools
import linecache
import math
import re
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordec import audit, ir, rewrites
from wordec.analysis import AnalysisError
from wordec.audit import RuleAudit, _Table
from wordec.egraph import EGraph, NodeRec, RuleJust, Skeleton, \
    init_pair, saturate
from wordec.fixtures import load_pair, names
from wordec.frontend import parse_design
from wordec.ir import SIGNED, UNSIGNED, Annotation, const, evaluate, op, var
from wordec.rewrites import (CATALOGUE_TEXT, BlockedMatch, PatConst, PatOp,
                             PatVar, RuleError, _is_signed, _width, eval_expr,
                             parse_expr, parse_rules, pattern_slots,
                             baseline_rules, validate_rule)

from test_egraph import forest_edges


def _eval_ann(w, s, env):
    return Annotation(_width(eval_expr(w, env)), _is_signed(eval_expr(s, env)))


class TestRuleParser:
    def test_catalogue_parses(self):
        rules = parse_rules(CATALOGUE_TEXT)
        ids = {r.id for r in rules}
        assert {"comm-add", "comm-mul", "assoc-add", "unmerge-shift",
                "merge-shift", "mult-left-shift", "left-shift-mult",
                "shift-to-mult", "mult-to-shift", "mult-to-add",
                "shift-cancel", "zext-fold"} <= ids

    def test_catalogue_parsed_once_and_shared_read_only(self):
        first, second = baseline_rules(), baseline_rules()
        assert first is not second
        assert [r.id for r in first] == [r.id for r in second]
        # the parsed rules are shared; the dynamic rules are made afresh
        assert all(a is b for a, b in zip(first[:-2], second[:-2]))
        assert first[-1] is not second[-1]
        assert first[:-2] == parse_rules(CATALOGUE_TEXT)
        first.pop()
        assert len(baseline_rules()) == len(second)
        with pytest.raises(AttributeError):
            first[0].cond = False

    def test_bidirectional_expands(self):
        rules = parse_rules(
            "r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
            " <=> (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a) ;")
        assert len(rules) == 2
        assert {r.id for r in rules} == {"r", "r-rev"}

    def test_unknown_rhs_var_rejected(self):
        with pytest.raises(RuleError):
            parse_rules("r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                        " => (+ ?wo ?so ?wa ?sa ?a ?wc ?sc ?c) ;")

    def test_bare_var_lhs_rejected(self):
        with pytest.raises(RuleError):
            parse_rules("r : ?a => ?a ;")

    def test_hint_clause(self):
        rules = parse_rules("r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                            " => (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a)"
                            " hint external-strong ;")
        assert rules[0].checker_hint == "external-strong"

    def test_unbound_condition_parameter_rejected(self):
        with pytest.raises(RuleError,
                           match=r"^r: condition parameters \?zz unbound "
                                 r"at line 1, column 1$"):
            parse_rules("r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                        " => (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a)"
                        " if ?wo > 2 && ?zz == 1 ;")

    def test_syntax_error_reported(self):
        with pytest.raises(RuleError):
            parse_rules("r : (+ ?wo => ;")

    def test_duplicate_id_rejected_at_second_use(self):
        rule = ("r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                " => (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a) hint trivial ;\n")
        with pytest.raises(RuleError, match=r"^duplicate rule id 'r' "
                                            r"at line 2, column 1$"):
            parse_rules(rule + rule.replace("hint trivial ", ""))

    @pytest.mark.parametrize("first, second", [
        ("q <=>", "q-rev =>"), ("q-rev =>", "q <=>")])
    def test_generated_rev_id_counts(self, first, second):
        text = "".join(
            f"{rid} : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) {arrow}"
            " (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a) ;\n"
            for rid, arrow in (first.split(), second.split()))
        with pytest.raises(RuleError, match=r"^duplicate rule id 'q-rev' "
                                            r"at line 2, column 1$"):
            parse_rules(text)


# The expression language's binary operators by binding strength, rendered
# back to text with the fewest parentheses the grammar allows.
_LEVEL = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<=": 3, ">=": 3, "<": 3,
          ">": 3, "+": 4, "-": 4, "*": 5, "^": 6}
_ATOM = 7


def _render(e) -> tuple[str, int]:
    """e as text and the binding strength of its outermost operator; `!`
    counts as a comparison, since it takes its operand at that strength."""
    if isinstance(e, int):
        return str(e), _ATOM
    if isinstance(e, str):
        return e, _ATOM
    op = e[0]
    if op == "sig":
        return e[1], _ATOM
    if op == "!":
        return "!" + _operand(e[1], 3), 3
    if op not in _LEVEL:
        return f"{op}({', '.join(_render(x)[0] for x in e[1:])})", _ATOM
    level = _LEVEL[op]
    # `^` groups to the right; a comparison takes no comparison operand
    left = level + 1 if op == "^" or level == 3 else level
    right = level if op == "^" else level + 1
    return f"{_operand(e[1], left)} {op} {_operand(e[2], right)}", level


def _operand(e, strength: int) -> str:
    text, level = _render(e)
    return text if level >= strength else f"({text})"


_LEAVES = st.one_of(st.integers(0, 300),
                    st.sampled_from(["?a", "?wo", "?s_2"]),
                    st.sampled_from([("sig", UNSIGNED), ("sig", SIGNED)]))
_EXPRS = st.recursive(_LEAVES, lambda sub: st.one_of(
    st.tuples(st.sampled_from(sorted(_LEVEL)), sub, sub),
    st.tuples(st.just("!"), sub),
    st.builds(lambda f, args: (f, *args), st.sampled_from(["min", "max"]),
              st.lists(sub, min_size=1, max_size=3)),
    st.tuples(st.sampled_from(["width", "log2"]), sub)), max_leaves=12)


# A rule file opening with a comment line and a blank line, so a reported
# line number is the file's own.
_FILE_HEAD = "# a rule file\n\n"
_LHS = "r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)\n"


class TestRuleReader:
    @pytest.mark.parametrize("body, message", [
        (_LHS + "  => ?a hint quick ;",
         "r: unknown hint 'quick' at line 4, column 14"),
        (_LHS + "  -> ?a ;", "r: expected => or <=>, got '-' at line 4, column 3"),
        ("r : (add ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) => ?a ;",
         "unknown opcode 'add' in pattern at line 3, column 6"),
        ("r : (+ ?wo ?so ?wa ?sa ?a)\n  => ?a ;",
         "+ expects 2 operands, got 1 at line 3, column 6"),
        (_LHS + "  => ?a if ?wo > 1 # no\n ;",
         "unexpected character '#' at line 4, column 20"),
        (_LHS + "  => ?a if ?wo > 1", "unexpected end of rule text "
                                       "at line 4, column 18"),
    ])
    def test_syntax_errors_located(self, body, message):
        with pytest.raises(RuleError, match=f"^{re.escape(message)}$"):
            parse_rules(_FILE_HEAD + body)

    @pytest.mark.parametrize("text, message", [
        ("?a + 1 )", "trailing tokens in expression: ')' at line 1, column 8"),
        ("?a < ?b < ?c",
         "trailing tokens in expression: '<' at line 1, column 9"),
        ("!?a == ?b == 2",
         "trailing tokens in expression: '==' at line 1, column 11"),
        ("?a == !?b", "unexpected token '!' in expression at line 1, column 7"),
        ("?a\n  + ", "unexpected end of rule text at line 2, column 3"),
    ])
    def test_expression_errors_located(self, text, message):
        with pytest.raises(RuleError, match=f"^{re.escape(message)}$"):
            parse_expr(text)

    @pytest.mark.parametrize("text, tree", [
        ("?a ^ ?b ^ 2", ("^", "?a", ("^", "?b", 2))),
        ("?a - ?b - 2", ("-", ("-", "?a", "?b"), 2)),
        ("!?a == ?b && ?c", ("&&", ("!", ("==", "?a", "?b")), "?c")),
        ("(?a < ?b) < ?c", ("<", ("<", "?a", "?b"), "?c")),
    ])
    def test_associativity(self, text, tree):
        assert parse_expr(text) == tree

    @settings(max_examples=400, deadline=None)
    @given(e=_EXPRS)
    def test_minimal_parentheses_round_trip(self, e):
        assert parse_expr(_render(e)[0]) == e

    def test_slot_kinds_in_binding_order(self):
        lhs = parse_rules(
            "r : (<< ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs))"
            " => ?a ;")[0].lhs
        assert [(kind, e) for kind, e, _ in pattern_slots(lhs)] == [
            ("width", "?wo"), ("sig", "?so"), ("width", "?wa"), ("sig", "?sa"),
            ("class", "?a"), ("amount", "?wc"), ("sig", "?sc"),
            ("value", "?v"), ("width", "?vw"), ("sig", "?vs")]

    def test_shift_amount_widths_capped_in_audit(self):
        rule = {r.id: r for r in parse_rules(CATALOGUE_TEXT)}["merge-shift"]
        domains = RuleAudit(rule, maxw=4).domains
        assert domains["?wc"] == range(1, 4)
        # ?wb is a shift amount on the rhs only
        assert domains["?wb"] == range(1, 4)
        assert domains["?wa"] == range(1, 5)


# The rule files of each kind of check a rule gets when it is made, with
# the error each gives.
_ADD = "(+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
_SWAP = "(+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a)"
BAD_RULES = {
    "width-vs-signage": (f"r : {_ADD} => {_SWAP} if ?wa < ?sa ;",
                         "r: condition: < takes (int, int), not (int, str)"),
    "signage-in-width": (
        f"r : {_ADD} => (+ (?wo + ?so) ?so ?wb ?sb ?b ?wa ?sa ?a) ;",
        "r: width slot: + takes (int, int), not (int, str)"),
    "slice": ("r : (zext ?wo ?so ?wa ?sa ?a) => (slice ?wo ?so ?wa ?sa ?a) ;",
              "r: a pattern cannot write a slice's indices"),
    "int-and": (f"r : {_ADD} => {_SWAP} if ?wa && ?so ;",
                "r: condition: && takes (bool, bool), not (int, str)"),
    "width-and-signage": (
        "r : (+ ?wo ?wo ?wa ?sa ?a ?wb ?sb ?b)"
        " => (+ ?wo ?wo ?wb ?sb ?b ?wa ?sa ?a) ;",
        "r: ?wo is bound as a width and as a signage"),
    "int-condition": (f"r : {_ADD} => {_SWAP} if ?wa + 1 ;",
                      "r: condition is int, not bool"),
    "bool-width": (
        f"r : {_ADD} => (+ (?wo > 1) ?so ?wb ?sb ?b ?wa ?sa ?a) ;",
        "r: width slot is bool, not int"),
    "signage-value": (
        f"r : {_ADD} => (+ ?wo ?so ?wa ?sa ?a ?wb ?sb (const ?sb 2 unsigned))"
        " ;", "r: value slot is str, not int"),
    "width-in-signage": (f"r : {_ADD} => (+ ?wo ?wa ?wb ?sb ?b ?wa ?sa ?a) ;",
                         "r: sig slot is int, not str"),
    "shift-amount-as-value": (
        "r : (<< ?wo ?so ?wa ?sa ?a ?v ?sc (const ?v ?vw ?vs)) => ?a ;",
        "r: ?v is bound as a width and as a constant value"),
    "two-argument-width": (f"r : {_ADD} => {_SWAP} if width(?wa, ?so) > 1 ;",
                           "r: condition: width takes (int), not (int, str)"),
}


class TestRuleCheck:
    """A rule is checked once, when it is made: what the check accepts
    matches, applies and audits without a type error."""

    @pytest.mark.parametrize("name", BAD_RULES)
    def test_bad_rule_rejected_when_read(self, name):
        text, message = BAD_RULES[name]
        with pytest.raises(RuleError, match=re.escape(
                f"{message} at line 3, column 1")):
            parse_rules(_FILE_HEAD + text)

    def test_kinds_from_lhs_slots(self):
        rule = {r.id: r for r in parse_rules(CATALOGUE_TEXT)}["shift-to-mult"]
        assert rule.kinds == {
            "?wo": "width", "?so": "sig", "?wa": "width", "?sa": "sig",
            "?wc": "width", "?sc": "sig", "?v": "value", "?vw": "width",
            "?vs": "sig"}

    def test_rule_built_in_code_checked(self):
        add = PatOp("+", "?wo", "?so", (("?wa", "?sa", PatVar("?a")),
                                        ("?wb", "?sb", PatVar("?b"))))
        with pytest.raises(RuleError, match="^r: a left-hand width slot "
                                            "must be a literal or a "
                                            "parameter$"):
            rewrites.Rule("r", PatOp("+", ("+", "?wo", 1), "?so",
                                     add.operands), add)
        with pytest.raises(RuleError,
                           match="^r: width slot: unknown operator 'pow'$"):
            rewrites.Rule("r", add, PatOp("+", ("pow", "?wo", 1), "?so",
                                          add.operands))
        deep = PatVar("?a")
        for _ in range(rewrites._MAX_POSITIONS):
            deep = PatOp("zext", "?w", "?s", (("?w", "?s", deep),))
        rewrites.Rule("deep", deep, PatVar("?a"))
        with pytest.raises(RuleError, match="^deep: more than 16 structured "
                                            "positions on the lhs$"):
            rewrites.Rule("deep", PatOp("zext", "?w", "?s",
                                        (("?w", "?s", deep),)), PatVar("?a"))

    def test_catalogue_programs_test_only_values(self):
        for rule in parse_rules(CATALOGUE_TEXT):
            rule.matches(EGraph())
            rewrites._compile_applier(rule)
            for name in (f"<rule {rule.id}>", f"<rule {rule.id} applier>"):
                source = "".join(linecache.getlines(name))
                assert source, name
                for word in ("_compare", "bool(", "type(w)",
                             "_unknown_operator"):
                    assert word not in source, (name, word)


# Rule texts over an lhs `+` with a variable or a constant as its second
# operand, whose slot expressions and conditions are drawn for their types
# from the parameters the lhs binds.  Most texts then get one fault that
# mixes the kinds: the lhs binds a parameter in slots of two kinds, leaves
# of another type turn up now and then, or the condition applies `&&`,
# `||` or `!` to an int.
@functools.cache
def _leaves(t: str, ints: tuple, strs: tuple, mix: bool):
    right = st.sampled_from(ints) | st.integers(0, 3) if t == "int" else \
        st.sampled_from([*strs, ("sig", UNSIGNED), ("sig", SIGNED)])
    if not mix:
        return right
    # the other type about once in twelve leaves
    return st.sampled_from([False] * 11 + [True]).flatmap(
        lambda wrong: st.sampled_from(strs if t == "int" else ints)
        if wrong else right)


@functools.cache
def _typed(t: str, depth: int, ints: tuple, strs: tuple, mix: bool):
    if t == "str" or (t == "int" and not depth):
        return _leaves(t, ints, strs, mix)
    sub_ints = _typed("int", depth - 1, ints, strs, mix)
    if t == "int":
        return st.one_of(
            sub_ints, st.tuples(st.sampled_from(["+", "-"]), sub_ints,
                                sub_ints),
            st.tuples(st.just("*"), sub_ints, st.integers(0, 3)),
            st.builds(lambda f, args: (f, *args),
                      st.sampled_from(["min", "max"]),
                      st.lists(sub_ints, min_size=1, max_size=2)),
            st.tuples(st.sampled_from(["width", "log2"]), sub_ints))
    sub_strs = _leaves("str", ints, strs, mix)
    bools = st.one_of(
        st.tuples(st.sampled_from(["<", "<=", ">", ">="]), sub_ints,
                  sub_ints),
        st.tuples(st.sampled_from(["==", "!="]), sub_ints, sub_ints),
        st.tuples(st.sampled_from(["==", "!="]), sub_strs, sub_strs))
    sub = _typed("bool", depth - 1, ints, strs, mix) if depth > 1 else bools
    return st.one_of(bools, st.tuples(st.sampled_from(["&&", "||"]), sub, sub),
                     st.tuples(st.just("!"), sub))


def _slot(e) -> str:
    text, level = _render(e)
    return text if level == _ATOM else f"({text})"


@st.composite
def _rule_texts(draw) -> str:
    const = draw(st.booleans())
    fault = draw(st.sampled_from([None, "kinds", "leaves", "logic"]))
    # the lhs slots that may bind a parameter of another kind
    spots = {"wo": ("?wo", "?so", "?v"), "sb": ("?sb", "?wa"),
             "vw": ("?vw", "?v", "?wa")}
    if fault == "kinds":
        spot = draw(st.sampled_from(["wo", "sb", "vw"] if const else
                                    ["wo", "sb"]))
        spots[spot] = (draw(st.sampled_from(spots[spot][1:])),)
    wo, sb, vw = (spots[k][0] for k in ("wo", "sb", "vw"))
    ints = tuple(sorted({wo, "?wa", "?wb", *(("?v", vw) if const else ())}))
    strs = tuple(sorted({"?so", "?sa", sb, *(("?vs",) if const else ())}))
    mix = fault == "leaves"
    if fault == "logic":
        a = _typed("int", 1, ints, strs, False)
        b = _typed("bool", 1, ints, strs, False)
        cond = draw(st.one_of(
            st.tuples(st.sampled_from(["&&", "||"]), a, b),
            st.tuples(st.sampled_from(["&&", "||"]), b, a),
            st.tuples(st.just("!"), a)))
    else:
        cond = draw(st.none() | _typed("bool", 2, ints, strs, mix))
    width = lambda: _slot(draw(_typed("int", 2, ints, strs, mix)))
    sig = lambda: _slot(draw(_leaves("str", ints, strs, mix)))
    operand = f"(const ?v {vw} ?vs)" if const else "?b"
    lhs = f"(+ {wo} ?so ?wa ?sa ?a ?wb {sb} {operand})"
    last = draw(st.sampled_from(
        ["?a", f"(const {width()} {width()} {sig()})"]))
    rhs = f"(+ {width()} {sig()} {width()} {sig()} ?a {width()} {sig()} {last})"
    return (f"r : {lhs}\n  => {rhs}"
            f"{'' if cond is None else ' if ' + _render(cond)[0]} ;")


_PARAM_VALUES = {"width": st.integers(1, 8), "value": st.integers(-4, 20),
                 "sig": st.sampled_from([UNSIGNED, SIGNED])}


def _value_or_blocked(fn, *args):
    try:
        return fn(*args)
    except BlockedMatch as e:
        return f"BlockedMatch: {e}"


class TestRuleTextProperty:
    @settings(max_examples=300, deadline=None)
    @given(text=_rule_texts(), data=st.data())
    def test_rejected_when_read_or_runs_clean(self, text, data):
        try:
            (rule,) = parse_rules(text)
        except RuleError as e:
            assert e.line is not None and e.col is not None, text
            return
        try:
            validate_rule(rule, maxw=2)
        except RuleError:
            pass
        try:
            saturate(init_pair(*load_pair("fig1")), [rule], {"iter": 1},
                     stop_on_merge=False)
        except (RuleError, AnalysisError):
            pass
        if rule.cond is True:
            return
        names = set()
        rewrites.expr_params(rule.cond, names)
        cond = rewrites._compile_matcher(rule)["cond"]
        for _ in range(4):
            env = {p: data.draw(_PARAM_VALUES[rule.kinds[p]])
                   for p in sorted(names)}
            got = _value_or_blocked(cond, *(env[p] for p in sorted(names)))
            want = _value_or_blocked(eval_expr, rule.cond, env)
            assert got == want and type(got) is type(want), (text, env)


class TestValidateRule:
    def test_broken_rule_caught(self):
        bad = parse_rules("bad : (<< ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                          " => (* ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) ;")[0]
        violations = validate_rule(bad, maxw=2)
        assert violations

    def test_var_free_rule_checked_on_one_row(self):
        bad = parse_rules(
            "bad : (+ 2 unsigned 1 unsigned (const 1 1 unsigned)"
            " 1 unsigned (const 1 1 unsigned)) => (const 3 2 unsigned) ;")[0]
        violations = validate_rule(bad, maxw=2)
        assert len(violations) == 1
        assert (violations[0]["lhs"], violations[0]["rhs"]) == (2, 3)

    def test_mult_to_add_clean(self):
        rules = {r.id: r for r in parse_rules(CATALOGUE_TEXT)}
        assert validate_rule(rules["mult-to-add"], maxw=3) == []

    def test_unmerge_shift_clean(self):
        rules = {r.id: r for r in parse_rules(CATALOGUE_TEXT)}
        assert validate_rule(rules["unmerge-shift"], maxw=3) == []

    def test_comm_add_clean(self):
        rules = {r.id: r for r in parse_rules(CATALOGUE_TEXT)}
        assert validate_rule(rules["comm-add"], maxw=3) == []

    def test_shift_cancel_clean(self):
        rules = {r.id: r for r in parse_rules(CATALOGUE_TEXT)}
        assert validate_rule(rules["shift-cancel"], maxw=3) == []

    def test_operand_guard_is_error(self):
        wide = parse_rules(
            "wide : (+ 12 unsigned 12 unsigned ?a 12 unsigned ?b)"
            " => (+ 12 unsigned 12 unsigned ?b 12 unsigned ?a) ;")[0]
        with pytest.raises(RuleError, match="operand space too large"):
            validate_rule(wide, maxw=1)


# Rules that the audit must flag, together covering an annotation mismatch,
# a bare-variable rhs, constant-value parameters (one and two), a blocked
# log2, a negative exponent, sext, mux, concat, >> against >>>, a variable
# in two slots and a rule with no variables.
UNSOUND_TEXT = r"""
sub-comm : (- ?wo ?so ?w1 ?s1 ?a ?w2 ?s2 ?b)
        => (- ?wo ?so ?w2 ?s2 ?b ?w1 ?s1 ?a) ;
shl-mul : (<< ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)
       => (* ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) ;
widen : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)
     => (+ (?wo + 1) ?so ?wa ?sa ?a ?wb ?sb ?b) ;
zext-drop : (zext ?wo ?so ?wa ?sa ?a) => ?a if ?wo >= ?wa ;
and-drop : (& ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) => ?a
        if ?wo == ?wa && ?so == ?sa ;
mul-const : (* ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs))
         => (<< ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs)) ;
mul-log : (* ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs))
       => (<< ?wo ?so ?wa ?sa ?a (width(log2(?v))) unsigned
              (const log2(?v) (width(log2(?v))) unsigned))
       if ?vs == unsigned ;
pow-neg : (<< ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs))
       => (* ?wo ?so ?wa ?sa ?a (width(2^?v)) unsigned
             (const 2^?v (width(2^?v)) unsigned))
       if ?sc == unsigned ;
sext-zext : (sext ?wo ?so ?wa ?sa ?a) => (zext ?wo ?so ?wa ?sa ?a) ;
mux-swap : (mux ?wo ?so ?wc ?sc ?c ?wa ?sa ?a ?wb ?sb ?b)
        => (mux ?wo ?so ?wc ?sc ?c ?wb ?sb ?b ?wa ?sa ?a) ;
concat-swap : (concat ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)
           => (concat ?wo ?so ?wb ?sb ?b ?wa ?sa ?a) ;
lsr-asr : (>> ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)
       => (>>> ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) ;
dup : (- ?wo ?so ?wa ?sa ?a ?wb ?sb ?a) => (const 0 ?wo ?so) ;
two-const : (+ ?wo ?so ?wa ?sa (const ?u ?uw ?us) ?wb ?sb (const ?v ?vw ?vs))
         => (const (?u + ?v) ?wo ?so) if ?u + ?v <= 3 ;
no-vars : (+ 2 unsigned 1 unsigned (const 1 1 unsigned)
             1 unsigned (const 1 1 unsigned)) => (const 3 2 unsigned) ;
"""


# Rules whose instances leave int64: a 41- to 43-bit slot (object lanes), an
# intermediate of 64 to 128 bits, a constant past 2^66.
WIDE_TEXT = r"""
wide-lsr : (>> ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)
        => (>> ?wo ?so (?wa + 40) ?sa ?a ?wb ?sb ?b) ;
wide-sum : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)
        => (zext ?wo ?so (2^(?wo + 5)) ?so
                 (+ (2^(?wo + 5)) ?so ?wa ?sa ?a ?wb ?sb ?b)) ;
big-const : (* ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs))
         => (* ?wo ?so ?wa ?sa ?a (?wo + 70) unsigned
               (const (?v + 2^(?wo + 66)) (?wo + 70) unsigned)) ;
"""


def _reference_term(p, env, var_anns):
    if isinstance(p, PatVar):
        return var(p.name.lstrip("?"), var_anns[p.name])
    if isinstance(p, PatConst):
        a = _eval_ann(p.width, p.sig, env)
        v = eval_expr(p.value, env)
        if not a.contains(v):
            raise BlockedMatch(v)
        return const(v, a)
    out = _eval_ann(p.out_w, p.out_s, env)
    operands = []
    for w, s, sub in p.operands:
        slot = _eval_ann(w, s, env)
        if isinstance(sub, PatVar):
            var_anns.setdefault(sub.name, slot)  # first lhs slot wins
        operands.append((slot, _reference_term(sub, env, var_anns)))
    return op(p.op, out, *operands)


def _lhs_params(p, widths, sigs, vals):
    if isinstance(p, PatVar):
        return
    if isinstance(p, PatConst):
        slots, subs = [(p.width, p.sig)], []
        if isinstance(p.value, str):
            vals[p.value] = (p.width, p.sig)
    else:
        slots = [(p.out_w, p.out_s)] + [(w, s) for w, s, _ in p.operands]
        subs = [sub for _, _, sub in p.operands]
    widths.update(w for w, _ in slots if isinstance(w, str))
    sigs.update(s for _, s in slots if isinstance(s, str))
    for sub in subs:
        _lhs_params(sub, widths, sigs, vals)


def _shift_widths(p, out):
    if isinstance(p, PatOp):
        if p.op in ("<<", ">>", ">>>") and isinstance(p.operands[1][0], str):
            out.add(p.operands[1][0])
        for _, _, sub in p.operands:
            _shift_widths(sub, out)


def reference_audit(rule, maxw):
    """`validate_rule` one instance and one operand assignment at a time,
    on `itertools.product` and the scalar `ir.evaluate`."""
    widths, sigs, vals = set(), set(), {}
    _lhs_params(rule.lhs, widths, sigs, vals)
    capped = set()
    _shift_widths(rule.lhs, capped)
    _shift_widths(rule.rhs, capped)
    widths, sigs = sorted(widths), sorted(sigs)
    out = []
    for wvec in itertools.product(*(
            range(1, (min(maxw, 3) if w in capped else maxw) + 1)
            for w in widths)):
        for svec in itertools.product((UNSIGNED, SIGNED), repeat=len(sigs)):
            env = dict(zip(widths + sigs, wvec + svec))
            try:
                anns = [_eval_ann(*vals[v], env) for v in sorted(vals)]
            except BlockedMatch:
                continue
            for vvec in itertools.product(
                    *(range(a.lo, a.hi + 1) for a in anns)):
                e = {**env, **dict(zip(sorted(vals), vvec))}
                try:
                    if rule.cond is not True and not eval_expr(rule.cond, e):
                        continue
                    var_anns = {}
                    lhs = _reference_term(rule.lhs, e, var_anns)
                    rhs = _reference_term(rule.rhs, e, var_anns)
                except BlockedMatch:
                    continue
                if lhs.out != rhs.out:
                    out.append({"rule": rule.id, "params": e,
                                "error": f"annotation mismatch {lhs.out} "
                                         f"vs {rhs.out}"})
                    continue
                names = sorted(var_anns)
                for xs in itertools.product(*(
                        range(var_anns[n].lo, var_anns[n].hi + 1)
                        for n in names)):
                    inputs = {n.lstrip("?"): x for n, x in zip(names, xs)}
                    lv, rv = evaluate(lhs, inputs), evaluate(rhs, inputs)
                    if lv != rv:
                        out.append({"rule": rule.id, "params": e,
                                    "witness": inputs, "lhs": lv, "rhs": rv})
                        break
    return out


# Every rule text the batched audit is checked against the reference on:
# the catalogue, the dynamic rules' soundness statements and the unsound
# and wide rules above.
AUDITED_TEXT = (CATALOGUE_TEXT + rewrites.ZextIntroRule.SOUNDNESS
                + rewrites.WidthReduceRule.SOUNDNESS + UNSOUND_TEXT
                + WIDE_TEXT)


class TestBatchedAudit:
    @pytest.mark.parametrize("rule", parse_rules(AUDITED_TEXT),
                             ids=lambda r: r.id)
    def test_matches_scalar_reference(self, rule):
        got, want = validate_rule(rule, maxw=2), reference_audit(rule, 2)
        assert got == want
        # keys in the same order too, as the dicts are printed
        assert [list(v) for v in got] == [list(v) for v in want]

    @pytest.mark.parametrize("rule", parse_rules(AUDITED_TEXT),
                             ids=lambda r: r.id)
    def test_matches_scalar_reference_in_rows_of_7(self, rule, monkeypatch):
        # at maxw=2 every operand space fits one batch of the real ROWS; 7
        # splits the instance groups across batches, and runs the widest
        # spaces past one batch, clamping their last chunk
        monkeypatch.setattr(ir, "ROWS", 7)
        self.test_matches_scalar_reference(rule)

    @pytest.mark.parametrize(
        "rule", [r for r in baseline_rules() if not hasattr(r, "validate")],
        ids=lambda r: r.id)
    def test_one_program_per_rule(self, rule, monkeypatch):
        calls, compile_ = [], ir.program

        def counted(roots):
            calls.append(len(roots))
            return compile_(roots)

        monkeypatch.setattr(ir, "program", counted)
        validate_rule(rule, maxw=3)
        assert calls == [2]

    def test_constant_expansion_in_bounded_pieces(self, monkeypatch):
        # a 12-bit constant gives each of the 16 grid vectors at maxw=2
        # 4,096 instances: the one block's 65,536 are expanded a piece of
        # at most AUDIT_INSTANCES at a time, in enumeration order
        rule = parse_rules(
            "r : (+ ?wo ?so ?wa ?sa ?a 12 unsigned (const ?v 12 unsigned))"
            " => (- ?wo ?so ?wa ?sa ?a 12 unsigned (const ?v 12 unsigned))"
            " if ?v >= 4093 ;")[0]
        sizes, block = [], RuleAudit.block

        def spy(self, start, stop):
            for b in block(self, start, stop):
                sizes.append(len(b.live))
                yield b

        monkeypatch.setattr(RuleAudit, "block", spy)
        got = validate_rule(rule, maxw=2)
        assert sum(sizes) == 16 * 4096
        assert max(sizes) <= audit.AUDIT_INSTANCES < sum(sizes)
        assert got == reference_audit(rule, 2) and len(got) == 16
        # in one piece, as the whole block was expanded before
        monkeypatch.setattr(audit, "AUDIT_INSTANCES", 1 << 20)
        sizes.clear()
        assert validate_rule(rule, maxw=2) == got and sizes == [16 * 4096]

    def test_unsound_set_is_flagged(self):
        for rule in parse_rules(UNSOUND_TEXT):
            assert validate_rule(rule, maxw=2), rule.id

    def test_unsound_set_gives_both_kinds_of_violation(self):
        kinds = set()
        for rule in parse_rules(UNSOUND_TEXT):
            for v in validate_rule(rule, maxw=2):
                kinds.add("error" if "error" in v else "witness")
        assert kinds == {"error", "witness"}

    def test_condition_type_error_rejected_when_read(self):
        # a signage in arithmetic, which no audit width reaches before it
        # is rejected
        with pytest.raises(RuleError, match=re.escape(
                "r: condition: + takes (int, int), not (str, int) "
                "at line 2, column 1")):
            parse_rules("\nr : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                        " => (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a)"
                        " if ?wo > 2 && ?so + 1 == 1 ;")

    def test_negative_exponent_is_blocked(self):
        with pytest.raises(BlockedMatch):
            eval_expr(parse_expr("2^?v"), {"?v": -1})
        rule = {r.id: r for r in parse_rules(UNSOUND_TEXT)}["pow-neg"]
        violations = validate_rule(rule, maxw=2)
        assert violations
        assert all(v["params"]["?v"] >= 0 for v in violations)


def _audited(rule, maxw, monkeypatch) -> list[tuple[str, dict]]:
    """The instances `validate_rule(rule, maxw)` checks, as (statement id,
    params): those whose condition holds and that are not blocked."""
    seen, check = [], RuleAudit._check

    def spy(self, b):
        found = check(self, b)
        seen.extend((self.rule.id, self.params(b, i))
                    for i in np.flatnonzero(b.live))
        return found

    monkeypatch.setattr(RuleAudit, "_check", spy)
    assert validate_rule(rule, maxw) == []
    return seen


class TestDynamicRuleAudit:
    """`zext-intro` and `width-reduce` are audited through the statements
    of their soundness, on the instances their own loops once checked."""

    @pytest.mark.parametrize("maxw", [2, 3, 4])
    def test_zext_intro_audits_every_width_and_signage(self, maxw,
                                                       monkeypatch):
        seen = _audited(rewrites.ZextIntroRule(), maxw, monkeypatch)
        got = [(p["?w"], rid == "sext-intro") for rid, p in seen]
        assert {rid for rid, _ in seen} == {"zext-intro", "sext-intro"}
        assert sorted(got) == [(w, signed) for w in range(1, maxw + 1)
                               for signed in (False, True)]

    @pytest.mark.parametrize("maxw", [2, 3, 4])
    def test_width_reduce_audits_one_bit_past_maxw(self, maxw, monkeypatch):
        seen = _audited(rewrites.WidthReduceRule(), maxw, monkeypatch)
        got = [(p["?wa"], p["?wo"]) for _, p in seen]
        assert sorted(got) == [(wa, wo) for wa in range(1, maxw + 1)
                               for wo in range(2, maxw + 2) if wa + 1 < wo]

    def test_statements_parsed_once(self):
        text = rewrites.WidthReduceRule.SOUNDNESS
        assert rewrites._soundness(text) is rewrites._soundness(text)

    def test_narrowed_width_reduce_is_reported(self, monkeypatch):
        # the sum narrowed to the operands' own width: it drops the carry
        narrowed = """
        width-reduce : (+ ?wo unsigned ?wa unsigned ?a ?wa unsigned ?b)
                    => (zext ?wo unsigned ?wa unsigned
                          (+ ?wa unsigned ?wa unsigned ?a ?wa unsigned ?b))
                    if ?wa < ?wo ;
        """
        monkeypatch.setattr(rewrites.WidthReduceRule, "SOUNDNESS", narrowed)
        violations = validate_rule(rewrites.WidthReduceRule(), maxw=3)
        assert [(v["params"]["?wa"], v["params"]["?wo"])
                for v in violations] == [(1, 2), (1, 3), (1, 4), (2, 3),
                                         (2, 4), (3, 4)]
        for v in violations:
            assert list(v) == ["rule", "params", "witness", "lhs", "rhs"]
            assert v["rule"] == "width-reduce" and v["lhs"] != v["rhs"]
            x, y, wa = v["witness"]["a"], v["witness"]["b"], v["params"]["?wa"]
            assert (v["lhs"], v["rhs"]) == (x + y, (x + y) % (1 << wa))


class TestAssocMul:
    """The 8-bit pair `(a*b)*c` / `a*(b*c)` needs `assoc-mul` and
    `assoc-mul-rev`: with them its roots merge, without them saturation
    ends with the roots apart."""

    @staticmethod
    def _saturate(drop=()):
        spec, impl = (parse_design(
            f"module {name}(a, b, c, o);\n  input [7:0] a, b, c;\n"
            f"  output [7:0] o;\n  assign o = {expr};\nendmodule\n")
            for name, expr in (("spec", "(a * b) * c"),
                               ("impl", "a * (b * c)")))
        g = init_pair(spec, impl)
        rep = saturate(g, [r for r in baseline_rules() if r.id not in drop])
        return g, rep

    def test_roots_merge_through_assoc_mul(self):
        g, rep = self._saturate()
        assert rep.stop_reason == "roots-merged" and g.roots_merged()
        assert rep.rules["assoc-mul"].useful_applications == 4
        assert rep.rules["assoc-mul-rev"].useful_applications == 3

    def test_roots_apart_without_assoc_mul(self):
        g, rep = self._saturate(drop=("assoc-mul", "assoc-mul-rev"))
        assert rep.stop_reason == "saturated"
        assert not rep.roots_merged and not g.roots_merged()


class TestMatching:
    def test_unmerge_shift_matches_fig1_init(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        rules = {r.id: r for r in parse_rules(CATALOGUE_TEXT)}
        ms = rules["unmerge-shift"].matches(g)
        assert len(ms) >= 1

    def test_no_mult_by_two_no_match(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        rules = {r.id: r for r in parse_rules(CATALOGUE_TEXT)}
        assert rules["mult-to-add"].matches(g) == []

    def test_comm_add_self_inverse(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        rules = [r for r in parse_rules(CATALOGUE_TEXT) if r.id == "comm-add"]
        saturate(g, rules, {"iter": 1}, stop_on_merge=False)
        n1 = g.num_nodes()
        rep = saturate(g, rules, {"iter": 2}, stop_on_merge=False)
        assert g.num_nodes() == n1
        assert rep.stop_reason == "saturated"


class TestConstructiveness:
    def test_application_never_removes_nodes(self):
        spec, impl = load_pair("adpcm")
        g = init_pair(spec, impl)
        rules = baseline_rules()
        before_keys = {g._key(n) for n in g.nodes}
        saturate(g, rules)
        after_keys = {g._key(n) for n in g.nodes}
        # canonical keys can change as classes merge, but nodes are only added
        assert len(g.nodes) >= len(before_keys)
        assert g.num_nodes() >= len(before_keys)


# ---------------------------------------------------------------------------
# Rule programs against the interpretive matcher and builder they replace
# ---------------------------------------------------------------------------

def _unify(env, key, value):
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


def _match_pattern(g, p, cid, env):
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


def reference_matches(rule, g):
    """`rule.matches(g)` by walking the lhs, as (cid, env, lhs_skel)."""
    out = []
    for cid in sorted(g.classes):
        for env, skel in _match_pattern(g, rule.lhs, cid, {}):
            if rule.cond is not True:
                try:
                    if not eval_expr(rule.cond, env):
                        continue
                except BlockedMatch:
                    continue
            if isinstance(rule.rhs, PatVar):
                tgt = g.nodes[g.classes[cid].node_ids[0]].out
                bcid = env[("class", rule.rhs.name)]
                bann = g.nodes[g.classes[g.find(bcid)].node_ids[0]].out
                if bann != tgt:
                    continue
            out.append((cid, env, skel))
    return out


def reference_instantiate(g, p, env):
    if isinstance(p, PatVar):
        cid = g.find(env[("class", p.name)])
        nid = min(g.classes[cid].node_ids)
        return cid, nid, Skeleton(nid, None)
    if isinstance(p, PatConst):
        a = _eval_ann(p.width, p.sig, env)
        v = eval_expr(p.value, env)
        if not a.contains(v):
            raise BlockedMatch(f"constant {v} not representable in ({a})")
        cid, nid = g.add(NodeRec("const", a, (), (), value=v))
        return cid, nid, Skeleton(nid, ())
    out = _eval_ann(p.out_w, p.out_s, env)
    kids, slots, subs = [], [], []
    for w, s, sub in p.operands:
        slots.append(_eval_ann(w, s, env))
        ccid, _, csk = reference_instantiate(g, sub, env)
        kids.append(ccid)
        subs.append(None if csk.subs is None else csk)
    cid, nid = g.add(NodeRec(p.op, out, tuple(slots), tuple(kids)))
    return cid, nid, Skeleton(nid, tuple(subs))


def reference_apply(rule, ref, g):
    """`Match.apply` on `reference_instantiate`, for the reference match
    `ref`, a (class, env, lhs skeleton) of `reference_matches`."""
    _, env, lhs = ref
    target = g.find(lhs.node)
    try:
        rcid, rnid, rskel = reference_instantiate(g, rule.rhs, env)
    except BlockedMatch:
        return False
    if g.find(rcid) == target:
        return False
    tgt_ann = g.nodes[g.classes[target].node_ids[0]].out
    rhs_ann = g.nodes[rnid].out
    if tgt_ann != rhs_ann:
        raise RuleError(f"{rule.id}: rhs annotation ({rhs_ann}) differs "
                        f"from matched class ({tgt_ann})")
    return g.union(lhs.node, rnid, RuleJust.of(rule.id, lhs, rskel))


def _preorder(skel):
    """The nodes of an lhs skeleton's structured positions, in pre-order."""
    return (skel.node, *(n for sub in skel.subs if sub is not None
                         for n in _preorder(sub)))


# Well-typed expressions over parameters of EXPR_KINDS covering every
# operator, and an expression that blocks: log2 of zero.
EXPR_KINDS = {"?a": "width", "?b": "value", "?s": "sig"}
EXPR_TEXTS = [
    "?a + ?b * 2 - 1", "?a == ?b", "?a < ?b || !(?a >= 2)",
    "min(?a)", "max(?a, ?b, 3)", "width(?a) + log2(?b)", "2^?a", "?a ^ ?b",
    "?s == unsigned", "log2(?a - ?a)"]
# Ill-typed ones, each with the error naming the operator that takes it.
ILL_TYPED_EXPRS = {
    "?a && ?b": "&& takes (bool, bool), not (int, int)",
    "?a || ?b": "|| takes (bool, bool), not (int, int)",
    "?s != ?a": "!= takes (str, str), not (str, int)",
    "?s <= signed": "<= takes (int, int), not (str, str)",
    "?s * 2": "* takes (int, int), not (str, int)",
    "?s + 1": "+ takes (int, int), not (str, int)",
    "!?s": "! takes (bool), not (str)",
    "max(?s, signed)": "max takes (int, int), not (str, str)",
    "width(?s)": "width takes (int), not (str)"}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BlockedMatch, RuleError, AnalysisError, TypeError,
            ValueError) as e:
        return f"{type(e).__name__}: {e}"


def _state(g):
    return (repr(g.nodes), g.parent, repr(forest_edges(g)),
            repr(sorted(g.classes.items())), g.unions)


def _compare_applications(g, pairs):
    """Apply the matches of `pairs` in order with the rule programs, and
    their reference matches with the reference, each on its own copy of g;
    both must leave the same graph."""
    a, b = copy.deepcopy(g), copy.deepcopy(g)
    got = [_outcome(m.apply, a) for m, _ in pairs]
    want = [_outcome(reference_apply, m.rule, ref, b) for m, ref in pairs]
    assert got == want
    assert _state(a) == _state(b)
    return got


def _compare_matches(rule, g):
    """The rule's matches, each paired with its reference match: a match
    holds the reference skeleton's nodes, in pre-order, and nothing else."""
    got = rule.matches(g)
    want = reference_matches(rule, g)
    assert [m.nodes for m in got] == [_preorder(sk) for _, _, sk in want], \
        rule.id
    assert all(m.rule is rule and not hasattr(m, "__dict__") for m in got)
    return list(zip(got, want))


class TestRulePrograms:
    @pytest.mark.parametrize("name", names())
    def test_same_matches_and_graph_as_reference(self, name):
        spec, impl = load_pair(name)
        g = init_pair(spec, impl)
        catalogue = baseline_rules()
        for _ in range(4):
            for text in (CATALOGUE_TEXT, UNSOUND_TEXT, WIDE_TEXT):
                matches = []
                for rule in parse_rules(text):
                    matches += _compare_matches(rule, g)
                # WIDE_TEXT is only matched: wide-sum's rhs widths reach
                # 2^69 bits at fixture widths, too wide for an interval
                if text is not WIDE_TEXT:
                    _compare_applications(g, matches)
            saturate(g, catalogue, {"iter": 1}, stop_on_merge=False)

    def test_late_blocked_slot_leaves_same_partial_nodes(self):
        rule = parse_rules(
            "late : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
            " => (+ ?wo ?so ?wa ?sa (zext ?wa ?sa ?wa ?sa ?a)"
            " (log2(?wb - ?wb)) ?sb (zext ?wb ?sb ?wb ?sb ?b)) ;")[0]
        spec, impl = load_pair("adpcm")
        g = init_pair(spec, impl)
        matches = _compare_matches(rule, g)
        assert matches
        before = len(g.nodes)
        assert _compare_applications(g, matches) == [False] * len(matches)
        # the first operand's zext was added before the second slot blocked
        g2 = copy.deepcopy(g)
        matches[0][0].apply(g2)
        assert len(g2.nodes) > before
        assert g2.nodes[before].op == "zext"

    def test_repeated_variable_parameter_and_literal(self):
        a2, a4, a7 = Annotation(2), Annotation(4), Annotation(7)
        x, y = var("x", a4), var("y", a4)
        s, t = var("s", a2), var("t", a2)
        shl = op("<<", a7, (a4, x), (a2, s))
        g = EGraph()
        for term in (op("-", a4, (a4, x), (a4, x)),
                     op("-", a4, (a4, x), (a4, y)),
                     op(">>", a4, (a7, shl), (a2, s)),
                     op(">>", a4, (a7, shl), (a2, t)),
                     op("*", a4, (a4, x), (a2, const(2, a2))),
                     op("*", a4, (a4, x), (a2, const(3, a2)))):
            g.add_term(term)
        g.rebuild()
        g.add_term(op("+", a4, (a2, const(1, a2)), (a2, const(1, a2))))
        g.rebuild()
        rules = {r.id: r for r in parse_rules(CATALOGUE_TEXT + UNSOUND_TEXT)}
        # one sub-pattern object at two positions, as a rule built in code
        # may hold it
        one = PatConst("?v", "?vw", "?vs")
        rules["same-sub"] = rewrites.Rule(
            "same-sub", PatOp("+", "?wo", "?so", (("?wa", "?sa", one),
                                                   ("?wa", "?sa", one))),
            PatOp("*", "?wo", "?so", (("?wa", "?sa", one),
                                      ("?wa", "?sa", PatConst(
                                          2, "?wa", ("sig", UNSIGNED))))))
        for rid in ("dup", "shift-cancel", "mult-to-add", "same-sub"):
            matches = _compare_matches(rules[rid], g)
            # one of each pair: x - x, (x << s) >> s, x * 2; and 1 + 1
            assert len(matches) == 1, rid
            assert _compare_applications(g, matches) == [True], rid

    @pytest.mark.parametrize("value, width, message", [
        ("1", "(?vw - ?vw)", "computed width 0 invalid"),
        ("4", "2", "constant 4 not representable in (2 unsigned)"),
        ("?v", "3", "constant -1 not representable in (3 unsigned)"),
        ("log2(?v)", "4", "log2 of non-positive value"),
        ("2^?v", "4", "negative exponent"),
    ], ids=["width-0", "too-wide", "negative", "log2", "power"])
    def test_blocked_application_as_reference(self, value, width, message):
        # the one match binds ?v to -1, a 4-bit signed constant
        a4 = Annotation(4, True)
        g = EGraph()
        g.add_term(op("*", a4, (a4, var("x", a4)), (a4, const(-1, a4))))
        g.rebuild()
        rule = parse_rules(
            "blocked : (* ?wo ?so ?wa ?sa ?a ?wc ?sc (const ?v ?vw ?vs))"
            f" => (* ?wo ?so ?wa ?sa ?a {width} unsigned"
            f" (const {value} {width} unsigned)) ;")[0]
        matches = _compare_matches(rule, g)
        assert len(matches) == 1
        env = matches[0][1][1]
        assert env["?v"] == -1
        assert (_outcome(reference_instantiate, copy.deepcopy(g), rule.rhs,
                         env) == f"BlockedMatch: {message}")
        assert _compare_applications(g, matches) == [False]

    @pytest.mark.parametrize("text", EXPR_TEXTS)
    @pytest.mark.parametrize("kinds", [EXPR_KINDS], ids=["typed"])
    def test_compiled_expressions_as_eval_expr(self, text, kinds):
        e = parse_expr(text)
        src, _ = rewrites._expr_code(e, lambda p: f"env[{p!r}]", kinds)
        ns = dict(rewrites._GLOBALS)
        exec(f"def f(env):\n    return {src}\n", ns)
        for env in ({"?a": 0, "?b": 0, "?s": UNSIGNED},
                    {"?a": 3, "?b": 2, "?s": SIGNED},
                    {"?a": -2, "?b": 5, "?s": UNSIGNED}):
            got, want = _outcome(ns["f"], env), _outcome(eval_expr, e, env)
            assert got == want and type(got) is type(want), (text, env)

    @pytest.mark.parametrize("text", ILL_TYPED_EXPRS)
    def test_ill_typed_condition_rejected_when_read(self, text):
        message = ILL_TYPED_EXPRS[text]
        with pytest.raises(RuleError, match=re.escape(
                f"r: condition: {message} at line 1, column 1")):
            parse_rules("r : (+ ?a ?s ?b ?s ?x ?a ?s (const ?v ?b ?s))"
                        f" => ?x if {text} ;")

    def test_each_rule_compiles_its_own_program_once(self, monkeypatch):
        compiled = []
        run = rewrites._Code.run

        def counted(self, filename, **names):
            compiled.append(filename)
            return run(self, filename, **names)

        monkeypatch.setattr(rewrites._Code, "run", counted)
        text = ("once : (+ 13 unsigned 11 unsigned ?a 11 unsigned ?b)"
                " => (+ 13 unsigned 11 unsigned ?b 11 unsigned ?a) ;")
        first, again = parse_rules(text)[0], parse_rules(text)[0]
        assert compiled == []                     # parsing compiles nothing
        a11, a13 = Annotation(11), Annotation(13)
        g = EGraph()
        g.add_term(op("+", a13, (a11, var("x", a11)), (a11, var("y", a11))))
        g.rebuild()
        matches = first.matches(g)
        assert len(matches) == 1
        assert compiled == ["<rule once>"]        # the matcher
        first.matches(g)
        assert len(compiled) == 1
        assert matches[0].apply(g)
        # then the applier, kept on the rule
        assert compiled == ["<rule once>", "<rule once applier>"]
        assert first.__dict__["applier"] is first.applier
        first.matches(g)[0].apply(g)
        assert len(compiled) == 2
        # a rule parsed again compiles its own programs
        again.matches(g)[0].apply(g)
        assert compiled == ["<rule once>", "<rule once applier>"] * 2
        # the catalogue, parsed afresh: baseline_rules() returns the same
        # rules on each call, so each program compiles once
        monkeypatch.setattr(rewrites, "_catalogue",
                            functools.cache(rewrites._catalogue.__wrapped__))
        compiled.clear()
        one, two = baseline_rules(), baseline_rules()
        assert compiled == []
        patterns = [r for r in one if isinstance(r, rewrites.Rule)]
        assert patterns and all(a is b for a, b in zip(patterns, two))
        for r in one + two:
            if isinstance(r, rewrites.Rule):
                r.matches(EGraph())
                assert callable(r.applier)
        # a matcher and an applier each
        assert sorted(compiled) == sorted(
            name for r in patterns
            for name in (f"<rule {r.id}>", f"<rule {r.id} applier>"))

    def test_applier_computes_each_annotation_once(self):
        sources = {}
        for rule in parse_rules(CATALOGUE_TEXT):
            rewrites._compile_applier(rule)
            filename = f"<rule {rule.id} applier>"
            sources[filename] = [line.strip()
                                 for line in linecache.getlines(filename)]
            assert sources[filename], filename
        computed = {}
        for filename, lines in sources.items():
            # an annotation is its `w = …` and `s = …` lines, then the lookup
            w = s = None
            for line in lines:
                if line.startswith(("w = ", "s = ")):
                    w, s = (line, s) if line[0] == "w" else (w, line)
                elif "_INTERNED.get((w, s))" in line:
                    computed.setdefault(filename, []).append((w, s))
            pairs = computed.get(filename, [])
            assert len(set(pairs)) == len(pairs), (filename, pairs)
            # a signage read from an lhs slot is that slot's bool
            assert not any(f"== {SIGNED!r}" in line for line in lines), \
                filename
        assert len(computed["<rule assoc-add applier>"]) == 1

    def test_applier_traceback_shows_its_source_line(self):
        rules = parse_rules("wider : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) "
                            "=> (+ (?wo+1) ?so ?wa ?sa ?a ?wb ?sb ?b) ;")
        with pytest.raises(RuleError, match="rhs annotation") as info:
            saturate(init_pair(*load_pair("adpcm")), rules)
        linecache.checkcache()
        frames = [f for f in traceback.extract_tb(info.value.__traceback__)
                  if f.filename == "<rule wider applier>"]
        assert len(frames) == 1
        assert frames[0].line.startswith("if a != t: raise RuleError(")


def reference_table(e, domains, convert, fill):
    """An audit table built with the scalar `eval_expr`, one entry at a
    time: (value, blocked), `value` int64 until an entry overflows it."""
    names = set()
    rewrites.expr_params(e, names)
    params = sorted(names)
    value = np.full(math.prod(len(domains[p]) for p in params), fill,
                    dtype=np.int64)
    blocked = np.zeros(len(value), dtype=bool)
    for i, combo in enumerate(
            itertools.product(*(domains[p] for p in params))):
        try:
            v = convert(eval_expr(e, dict(zip(params, combo))))
        except BlockedMatch:
            blocked[i] = True
            continue
        try:
            value[i] = v
        except OverflowError:
            value = value.astype(object)
            value[i] = v
    return value, blocked


def _assert_table_as_reference(table, e, domains, convert, fill):
    value, blocked = reference_table(e, domains, convert, fill)
    assert table.value.dtype == value.dtype
    assert table.value.tolist() == value.tolist()
    assert table.blocked.tolist() == blocked.tolist()


_PATTERN_RULES = [r for r in baseline_rules() if not hasattr(r, "validate")]
_FILLS = {_width: 1}
# The conversions the audit applies to an expression of each type.
_CONVERTS = {"int": [_width, int], "bool": [bool], "str": [_is_signed]}


class TestAuditTables:
    """The audit's compiled tables hold what `eval_expr` gives entry by
    entry: values, dtype and blocked entries."""

    @pytest.mark.parametrize("maxw", [2, 3])
    @pytest.mark.parametrize(
        "rule", _PATTERN_RULES + parse_rules(UNSOUND_TEXT + WIDE_TEXT),
        ids=lambda r: r.id)
    def test_every_table_of_an_audit(self, rule, maxw):
        audit = RuleAudit(rule, maxw)
        try:
            for start, stop in audit.blocks():
                audit.check(start, stop)
        except (RuleError, TypeError, ValueError):
            pass   # the tables built so far are still checked
        assert audit.tables
        for (e, convert), table in audit.tables.items():
            # the domains the table was built over
            domains = {p: audit.domains[p] for p in table.params}
            _assert_table_as_reference(table, e, domains, convert,
                                       _FILLS.get(convert, 0))

    @settings(max_examples=200, deadline=None)
    @given(text=st.sampled_from(EXPR_TEXTS + ["?s"]), data=st.data())
    def test_random_expressions(self, text, data):
        # a domain of its kind for every parameter the expression reads
        e = parse_expr(text)
        _, kind = rewrites._expr_code(e, str, EXPR_KINDS)
        convert = data.draw(st.sampled_from(_CONVERTS[kind]))
        names = set()
        rewrites.expr_params(e, names)
        domains = {p: data.draw(
            st.just((UNSIGNED, SIGNED)) if EXPR_KINDS[p] == "sig" else
            st.builds(lambda lo, n: range(lo, lo + n),
                      st.integers(-3, 3), st.integers(0, 4)))
            for p in sorted(names)}
        fill = _FILLS.get(convert, 0)
        _assert_table_as_reference(_Table(e, domains, EXPR_KINDS, convert,
                                          fill), e, domains, convert, fill)

    def test_values_past_int64_are_exact(self):
        e, domains = parse_expr("2^(?w*30)"), {"?w": range(1, 4)}
        table = _Table(e, domains, {"?w": "width"}, int, 0)
        _assert_table_as_reference(table, e, domains, int, 0)
        assert table.value.dtype == object
        assert table.value.tolist() == [2 ** 30, 2 ** 60, 2 ** 90]

    def test_value_and_width_parameter_rejected(self):
        # as both, ?u would be a grid width and a value column of the audit
        with pytest.raises(RuleError, match=re.escape(
                "r: ?u is bound as a constant value and as a width "
                "at line 1, column 1")):
            parse_rules("r : (+ ?wo ?so ?wa ?sa (const ?u ?uw ?us)"
                        " ?u ?sb ?b) => ?b ;")
