import itertools

import pytest

from wordec.egraph import EGraph, init_pair, saturate
from wordec.fixtures import load_pair
from wordec.ir import SIGNED, UNSIGNED, const, evaluate, op, var
from wordec.rewrites import (CATALOGUE_TEXT, BlockedMatch, PatConst, PatOp,
                             PatVar, RuleError, _eval_ann, eval_expr,
                             instantiate, parse_expr, parse_rules,
                             baseline_rules, validate_rule)


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

    def test_syntax_error_reported(self):
        with pytest.raises(RuleError):
            parse_rules("r : (+ ?wo => ;")


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
        rule = parse_rules(
            "r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
            " => (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a)"
            " if ?wo > 2 && ?zz == 1 ;")[0]
        assert validate_rule(rule, maxw=2) == []
        with pytest.raises(RuleError, match="unbound parameter"):
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
