import copy
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordec import rewrites
from wordec.analysis import AnalysisError
from wordec.audit import RuleAudit, _Table
from wordec.egraph import EGraph, NodeRec, RuleJust, Skeleton, \
    init_pair, saturate
from wordec.fixtures import load_pair, names
from wordec.ir import SIGNED, UNSIGNED, Annotation, const, evaluate, op, var
from wordec.rewrites import (CATALOGUE_TEXT, BlockedMatch, PatConst, PatOp,
                             PatVar, RuleError, _is_signed, _width, eval_expr,
                             instantiate, parse_expr, parse_rules,
                             pattern_slots, baseline_rules, rule_program,
                             validate_rule)


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
                           match=r"^r: condition parameters \?zz unbound$"):
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


class TestBatchedAudit:
    @pytest.mark.parametrize(
        "rule", parse_rules(CATALOGUE_TEXT + UNSOUND_TEXT + WIDE_TEXT),
        ids=lambda r: r.id)
    def test_matches_scalar_reference(self, rule):
        got, want = validate_rule(rule, maxw=2), reference_audit(rule, 2)
        assert got == want
        # keys in the same order too, as the dicts are printed
        assert [list(v) for v in got] == [list(v) for v in want]

    def test_unsound_set_is_flagged(self):
        for rule in parse_rules(UNSOUND_TEXT):
            assert validate_rule(rule, maxw=2), rule.id

    def test_unsound_set_gives_both_kinds_of_violation(self):
        kinds = set()
        for rule in parse_rules(UNSOUND_TEXT):
            for v in validate_rule(rule, maxw=2):
                kinds.add("error" if "error" in v else "witness")
        assert kinds == {"error", "witness"}

    def test_condition_error_raised_only_when_reached(self):
        # a signage in arithmetic: TypeError once ?wo > 2 lets it run
        rule = parse_rules(
            "r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
            " => (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a)"
            " if ?wo > 2 && ?so + 1 == 1 ;")[0]
        assert validate_rule(rule, maxw=2) == []
        with pytest.raises(TypeError):
            validate_rule(rule, maxw=3)

    def test_negative_exponent_is_blocked(self):
        with pytest.raises(BlockedMatch):
            eval_expr(parse_expr("2^?v"), {"?v": -1})
        rule = {r.id: r for r in parse_rules(UNSOUND_TEXT)}["pow-neg"]
        violations = validate_rule(rule, maxw=2)
        assert violations
        assert all(v["params"]["?v"] >= 0 for v in violations)
        pat = PatConst(parse_expr("2^?v"), 4, ("sig", UNSIGNED))
        with pytest.raises(BlockedMatch):
            instantiate(EGraph(), pat, {"?v": -1})


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


def reference_apply(m, g):
    """`Match.apply` on `reference_instantiate`."""
    target = g.find(m.cid)
    try:
        rcid, rnid, rskel = reference_instantiate(g, m.rule.rhs, m.env)
    except BlockedMatch:
        return False
    if g.find(rcid) == target:
        return False
    tgt_ann = g.nodes[g.classes[target].node_ids[0]].out
    rhs_ann = g.nodes[rnid].out
    if tgt_ann != rhs_ann:
        raise RuleError(f"{m.rule.id}: rhs annotation ({rhs_ann}) differs "
                        f"from matched class ({tgt_ann})")
    return g.union(m.lhs_skel.node, rnid,
                   RuleJust(m.rule.id, m.lhs_skel, rskel))


# Expressions covering every operator, typed and untyped comparisons, and
# errors an expression raises: a signage in arithmetic, log2 of zero.
EXPR_TEXTS = [
    "?a + ?b * 2 - 1", "?a == ?b", "?a < ?b || !(?a >= 2)",
    "?a && ?b", "?a || ?b", "min(?a)", "max(?a, ?b, 3)",
    "width(?a) + log2(?b)", "2^?a", "?a ^ ?b", "?s == unsigned",
    "?s != ?a", "?s <= signed", "?s * 2", "?s + 1", "!?s",
    "max(?s, signed)", "width(?s)", "log2(?a - ?a)"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BlockedMatch, RuleError, AnalysisError, TypeError,
            ValueError) as e:
        return f"{type(e).__name__}: {e}"


def _state(g):
    return (repr(g.nodes), g.parent, repr(sorted(g.proof_parent.items())),
            repr(sorted(g.classes.items())), g.unions)


def _compare_applications(g, matches):
    """Apply `matches` in order with the rule programs and with the
    reference, each on its own copy of g; both must leave the same graph."""
    a, b = copy.deepcopy(g), copy.deepcopy(g)
    got = [_outcome(m.apply, a) for m in matches]
    want = [_outcome(reference_apply, m, b) for m in matches]
    assert got == want
    assert _state(a) == _state(b)
    return got


def _compare_matches(rule, g):
    got = rule.matches(g)
    want = reference_matches(rule, g)
    assert [(m.cid, m.env, m.lhs_skel) for m in got] == want, rule.id
    # the environments bind their keys in the same order too
    assert [list(m.env) for m in got] == [list(e) for _, e, _ in want]
    return got


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
        matches[0].apply(g2)
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

    def test_builder_checks_as_reference(self):
        g = EGraph()
        pat = PatConst(parse_expr("?v"), parse_expr("?w"), ("sig", UNSIGNED))
        for env in ({"?v": 1}, {"?v": 1, "?w": 0}, {"?v": 4, "?w": 2},
                    {"?v": 3, "?w": 2}, {"?v": -1, "?w": 3}):
            got = _outcome(instantiate, g, pat, env)
            assert got == _outcome(reference_instantiate, g, pat, env)
            assert got in ("RuleError: unbound parameter ?w",
                           "BlockedMatch: computed width 0 invalid",
                           "BlockedMatch: constant 4 not representable in "
                           "(2 unsigned)", (0, 0, Skeleton(0, ())),
                           "BlockedMatch: constant -1 not representable in "
                           "(3 unsigned)")
        for text in ("log2(?v)", "2^?v"):
            pat = PatConst(parse_expr(text), 4, ("sig", UNSIGNED))
            got = _outcome(instantiate, g, pat, {"?v": -1})
            assert got.startswith("BlockedMatch")
            assert got == _outcome(reference_instantiate, g, pat, {"?v": -1})

    @pytest.mark.parametrize("text", EXPR_TEXTS)
    @pytest.mark.parametrize("kinds", [
        {}, {"?a": "int", "?b": "int", "?s": "str"}], ids=["untyped", "typed"])
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

    def test_programs_compiled_once_per_process(self, monkeypatch):
        compiled = []
        run = rewrites._Code.run

        def counted(self, filename, **names):
            compiled.append(filename)
            return run(self, filename, **names)

        monkeypatch.setattr(rewrites._Code, "run", counted)
        baseline_rules()
        assert compiled == []
        text = ("once : (+ 13 unsigned 11 unsigned ?a 11 unsigned ?b)"
                " => (+ 13 unsigned 11 unsigned ?b 11 unsigned ?a) ;")
        first, again = parse_rules(text)[0], parse_rules(text)[0]
        assert compiled == []
        first.matches(EGraph())
        assert compiled == ["<rule once>"] * 2    # builder, then matcher
        again.matches(EGraph())
        assert len(compiled) == 2
        assert rule_program(first) is rule_program(again)
        one, two = parse_rules(CATALOGUE_TEXT), parse_rules(CATALOGUE_TEXT)
        for a, b in zip(one, two):
            assert rule_program(a) is rule_program(b)


def reference_table(e, domains, convert, fill):
    """An audit table built with the scalar `eval_expr`, one entry at a
    time: (value, blocked, errors), `value` int64 until an entry
    overflows it."""
    names = set()
    rewrites.expr_params(e, names)
    params = sorted(names & domains.keys())
    value = np.full(math.prod(len(domains[p]) for p in params), fill,
                    dtype=np.int64)
    blocked = np.zeros(len(value), dtype=bool)
    errors = {}
    for i, combo in enumerate(
            itertools.product(*(domains[p] for p in params))):
        try:
            v = convert(eval_expr(e, dict(zip(params, combo))))
        except BlockedMatch:
            blocked[i] = True
            continue
        except (RuleError, TypeError, ValueError) as exc:
            errors[i] = exc
            blocked[i] = True
            continue
        try:
            value[i] = v
        except OverflowError:
            value = value.astype(object)
            value[i] = v
    return value, blocked, errors


def _assert_table_as_reference(table, e, domains, convert, fill):
    value, blocked, errors = reference_table(e, domains, convert, fill)
    assert table.value.dtype == value.dtype
    assert table.value.tolist() == value.tolist()
    assert table.blocked.tolist() == blocked.tolist()
    assert ({i: (type(x), str(x)) for i, x in table.errors.items()}
            == {i: (type(x), str(x)) for i, x in errors.items()})


_PATTERN_RULES = [r for r in baseline_rules() if not hasattr(r, "validate")]
_FILLS = {_width: 1}


class TestAuditTables:
    """The audit's compiled tables hold what `eval_expr` gives entry by
    entry: values, dtype, blocked entries and kept errors."""

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
    @given(text=st.sampled_from(EXPR_TEXTS),
           convert=st.sampled_from([_width, _is_signed, int, bool]),
           domains=st.fixed_dictionaries({}, optional={
               p: st.one_of(
                   st.just((UNSIGNED, SIGNED)),
                   st.builds(lambda lo, n: range(lo, lo + n),
                             st.integers(-3, 3), st.integers(0, 4)))
               for p in ("?a", "?b", "?s")}))
    def test_random_expressions(self, text, convert, domains):
        # a parameter left out of the domains is unbound
        e, fill = parse_expr(text), _FILLS.get(convert, 0)
        _assert_table_as_reference(_Table(e, domains, convert, fill), e,
                                   domains, convert, fill)

    def test_values_past_int64_are_exact(self):
        e, domains = parse_expr("2^(?w*30)"), {"?w": range(1, 4)}
        table = _Table(e, domains, int, 0)
        _assert_table_as_reference(table, e, domains, int, 0)
        assert table.value.dtype == object
        assert table.value.tolist() == [2 ** 30, 2 ** 60, 2 ** 90]

    def test_unbound_parameter_raised_when_reached(self):
        e, domains = parse_expr("?a > 1 && ?x == 2"), {"?a": range(3)}
        table = _Table(e, domains, bool, 0)
        _assert_table_as_reference(table, e, domains, bool, 0)
        assert table.blocked.tolist() == [False, False, True]
        assert str(table.errors[2]) == "unbound parameter ?x"
