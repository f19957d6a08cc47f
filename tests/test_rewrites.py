import pytest

from wordec.egraph import init_pair, saturate
from wordec.fixtures import load_pair
from wordec.rewrites import (CATALOGUE_TEXT, RuleError, baseline_rules,
                             parse_rules, validate_rule)


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
