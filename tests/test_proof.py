import hashlib
import itertools
import json
import math
import random

import pytest

from wordec.egraph import EGraph, init_pair, saturate
from wordec.extract import extract_greedy, extract_ilp
from wordec.fixtures import load_pair, names
from wordec.frontend import parse_sv
from wordec.ir import Annotation, evaluate, op, var
from wordec.proof import (ProofError, RewriteStep, _cancel_inverses,
                          build_waterfall, check_adjacency, explain,
                          write_waterfall)
from wordec.rewrites import baseline_rules


def _saturated(name, fmt="ir"):
    spec, impl = load_pair(name, fmt)
    g = init_pair(spec, impl)
    rules = baseline_rules()
    saturate(g, rules)
    return spec, impl, g, rules


def _waterfall(name, fmt="ir"):
    spec, impl, g, rules = _saturated(name, fmt)
    res = extract_ilp(g, timeout=20.0)
    return build_waterfall(g, spec, impl, res, rules), spec, impl


def _chains(w):
    """The design bodies of the chains S … S* and I* … I."""
    bodies = [d.body for d in w.designs.values()]
    ns = len(w.spec_steps) + 1
    return bodies[:ns], bodies[ns:]


class TestExplain:
    def test_fig4_exactly_two_steps(self):
        spec, impl, g, rules = _saturated("fig4")
        steps = explain(g, spec.body, impl.body)
        assert len(steps) == 2
        assert [s.rule_id for s in steps] == ["mult-to-shift", "shift-cancel"]
        assert [s.position for s in steps] == [(0,), ()]

    def test_unmerged_terms_rejected(self):
        spec, impl, g, rules = _saturated("boxfilter")
        with pytest.raises(ProofError):
            explain(g, spec.body, impl.body)

    def test_steps_are_semantically_sound(self):
        spec, impl, g, rules = _saturated("adpcm")
        steps = explain(g, spec.body, impl.body)
        for s in steps:
            for x in range(16):
                assert evaluate(s.before, {"x": x}) == \
                    evaluate(s.after, {"x": x}), s.rule_id

    @pytest.mark.parametrize("backward", [False, True])
    def test_shift_cancel_both_ways(self, backward):
        # (a << s) >> s = a.  From a back to the shift, the step's rhs
        # `?a` is a bare pattern variable that binds a, and its lhs names
        # ?s, which nothing binds: it is realized as its class's smallest
        # term, s
        u = Annotation
        a, s = var("a", u(4)), var("s", u(2))
        shifted = op(">>", u(4),
                     (u(8), op("<<", u(8), (u(4), a), (u(2), s))), (u(2), s))
        rules = [r for r in baseline_rules() if r.id == "shift-cancel"]
        g = EGraph()
        g.roots = (g.add_term(shifted)[0], g.add_term(a)[0])
        g.rebuild()
        assert saturate(g, rules).roots_merged
        source, target = (a, shifted) if backward else (shifted, a)
        steps = explain(g, source, target)
        assert [st.rule_id for st in steps] == ["shift-cancel"]
        assert steps[0].before == source and steps[-1].after == target
        for prev, st in zip(steps, steps[1:]):
            assert st.before == prev.after
        for st in steps:
            for x, y in itertools.product(range(16), range(4)):
                env = {"a": x, "s": y}
                assert evaluate(st.before, env) == evaluate(st.after, env)


def _vbsme(n):
    """Generated vbsmeN: the sum of n absolute differences of 4-bit inputs.
    The spec adds them along a chain whose wires all have the output's
    width; the impl along a balanced tree whose wires widen by one bit per
    level, each left subtree summing the largest power of two below it."""
    width = 4 + math.ceil(math.log2(n))
    ports = ", ".join(f"a{i}, b{i}" for i in range(n))
    common = [f"input [3:0] {ports};", f"output [{width - 1}:0] O;"]
    for i in range(n):
        common += [f"wire [3:0] d{i};", f"assign d{i} = (a{i} < b{i}) ? "
                                        f"(b{i} - a{i}) : (a{i} - b{i});"]
    spec = []
    for k in range(1, n):
        prev = f"s{k - 1}" if k > 1 else "d0"
        spec += [f"wire [{width - 1}:0] s{k};",
                 f"assign s{k} = {prev} + d{k};"]
    spec.append(f"assign O = s{n - 1};")
    impl = []

    def tree(lo, hi):
        """The wire summing d_lo … d_{hi-1}, and its width."""
        if hi - lo == 1:
            return f"d{lo}", 4
        mid = lo + (1 << ((hi - lo - 1).bit_length() - 1))
        (a, wa), (b, wb) = tree(lo, mid), tree(mid, hi)
        name, w = f"t{len(impl)}", max(wa, wb) + 1
        impl.extend([f"wire [{w - 1}:0] {name};",
                     f"assign {name} = {a} + {b};"])
        return name, w

    impl.append(f"assign O = {tree(0, n)[0]};")
    return tuple(parse_sv("\n".join([f"module vbsme{n}_{role}({ports}, O);",
                                      *common, *body, "endmodule"]))
                 for role, body in (("spec", spec), ("impl", impl)))


class TestGeneratedVbsme:
    @pytest.mark.parametrize("extraction", ["greedy", "ilp"])
    def test_walk_goes_on_past_a_bare_variable(self, extraction):
        # a forest path to a node can end on an edge whose target side is
        # a bare pattern variable (zext-intro's lhs), so on the term bound
        # to it, which another node heads; the walk must go on from there
        spec, impl = _vbsme(5)
        g = init_pair(spec, impl)
        rules = baseline_rules()
        assert saturate(g, rules).roots_merged
        res = (extract_greedy(g) if extraction == "greedy"
               else extract_ilp(g, timeout=20.0))
        check_adjacency(build_waterfall(g, spec, impl, res, rules))

    @pytest.mark.parametrize("n, objective, selection", [
        (7, 94552, "70601c037541cb51"), (8, 191113, "cf45554ce4c598e5")])
    def test_branch_and_bound_proves_the_optimum(self, n, objective,
                                                 selection):
        # the selection is pinned by a digest of its (class id, node id)
        # pairs; a search bounded by reach alone finds the same one, on
        # vbsme7 after about 6 s and on vbsme8 only by its 10 s deadline
        g = init_pair(*_vbsme(n))
        assert saturate(g, baseline_rules()).roots_merged
        res = extract_ilp(g)
        assert not res.timed_out and res.method == "ilp"
        assert res.objective == objective
        digest = hashlib.sha256(
            repr(sorted(res.selection.items())).encode()).hexdigest()
        assert digest[:16] == selection


class TestCancelInverses:
    def test_adjacent_inverse_pair_dropped(self):
        x, y, z = (var(n, Annotation(4)) for n in "xyz")
        there = RewriteStep("comm-add", (), x, y)
        other = RewriteStep("comm-mul", (), x, z)
        assert _cancel_inverses([there, there.reversed(), other]) == [other]
        assert _cancel_inverses([there, other]) == [there, other]


class TestWaterfall:
    def test_case_study_adjacency(self):
        w, _, _ = _waterfall("fig1-scaled")
        check_adjacency(w)

    def test_adjacency_rejects_a_step_out_of_order(self):
        w, _, _ = _waterfall("fig1-scaled")
        w.spec_steps[0], w.spec_steps[1] = w.spec_steps[1], w.spec_steps[0]
        with pytest.raises(ProofError, match="does not start where"):
            check_adjacency(w)

    def test_chains_end_where_expected(self):
        w, spec, impl = _waterfall("fig1-scaled")
        spec_chain, impl_chain = _chains(w)
        assert len(impl_chain) == len(w.impl_steps) + 1
        assert spec_chain[0] == spec.body
        assert impl_chain[-1] == impl.body
        assert not w.has_center
        assert spec_chain[-1] == impl_chain[0]

    def test_every_step_oracle_sound(self):
        w, spec, _ = _waterfall("fig1-scaled")
        rng = random.Random(7)
        envs = [{n: rng.randint(a.lo, a.hi) for n, a in spec.inputs}
                for _ in range(200)]
        for chain in _chains(w):
            for a, b in zip(chain, chain[1:]):
                for env in envs:
                    assert evaluate(a, env) == evaluate(b, env)

    def test_identical_designs_zero_steps(self):
        spec, _ = load_pair("adpcm")
        g = init_pair(spec, spec)
        rules = baseline_rules()
        saturate(g, rules)
        res = extract_ilp(g, timeout=20.0)
        w = build_waterfall(g, spec, spec, res, rules)
        assert w.spec_steps == [] and w.impl_steps == []
        assert not w.has_center
        obs = w.obligations()
        assert [o["kind"] for o in obs] == ["assume-guarantee"]

    def test_boxfilter_center_obligation(self):
        w, _, _ = _waterfall("boxfilter")
        assert w.has_center
        kinds = [o["kind"] for o in w.obligations()]
        assert kinds.count("center") == 1
        assert kinds[-1] == "assume-guarantee"

    @pytest.mark.parametrize("name, obligations",
                             [("fig1-scaled", 14), ("fig1", 28)])
    def test_chains_are_the_inverse_cancelled_explanations(self, name,
                                                           obligations):
        # each step is emitted at the widths it was extracted at: no hop
        # is added between the explainer's steps
        spec, impl, g, rules = _saturated(name)
        res = extract_ilp(g, timeout=20.0)
        w = build_waterfall(g, spec, impl, res, rules)
        assert w.spec_steps == _cancel_inverses(
            explain(g, spec.body, res.s_star))
        assert [s.reversed() for s in reversed(w.impl_steps)] \
            == _cancel_inverses(explain(g, impl.body, res.i_star))
        assert len(w.obligations()) == obligations
        check_adjacency(w)

    def test_obligation_indices_consistent(self):
        w, _, _ = _waterfall("vbsme4")
        index = {stem: i for i, stem in enumerate(w.designs)}
        for ob in w.obligations():
            assert 0 <= index[ob["left"]] < index[ob["right"]] < len(index)

    def test_records_carry_their_rules_hints(self):
        hint = {r.id: r.checker_hint for r in baseline_rules()}
        seen = set()
        for name, fmt in itertools.product(names(), ("ir", "sv")):
            w, _, _ = _waterfall(name, fmt)
            for ob in w.obligations():
                if ob["kind"] == "step":
                    want = ("simulation" if ob["rule"] == "width-reduce"
                            else hint[ob["rule"]])
                else:
                    want = {"center": "external-strong",
                            "assume-guarantee": "trivial"}[ob["kind"]]
                assert ob["checker_hint"] == want, (name, fmt, ob)
                if ob["kind"] == "step":
                    seen.add(want)
        # every hint occurs on a step, so no single default passes
        assert seen == {"simulation", "trivial", "external-strong"}


class TestWriteWaterfall:
    def test_layout_and_manifest(self, tmp_path):
        w, _, _ = _waterfall("fig4")
        manifest = write_waterfall(w, tmp_path)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        for stem in manifest["designs"]:
            assert (tmp_path / "steps" / f"{stem}.sv").exists()
            assert (tmp_path / "steps" / f"{stem}.ir").exists()
        stems = set(manifest["designs"])
        for ob in on_disk["obligations"]:
            assert ob["left"] in stems and ob["right"] in stems

    def test_manifest_byte_identical_across_runs(self, tmp_path):
        texts = []
        for i in range(2):
            w, _, _ = _waterfall("fig1-scaled")
            d = tmp_path / str(i)
            write_waterfall(w, d)
            texts.append((d / "manifest.json").read_bytes())
        assert texts[0] == texts[1]
