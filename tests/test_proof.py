import json
import random

import pytest

from wordec.egraph import init_pair, saturate
from wordec.extract import extract_ilp
from wordec.fixtures import load_pair
from wordec.ir import evaluate
from wordec.proof import (ProofError, _cancel_inverses, build_waterfall,
                          check_adjacency, explain, rule_hints,
                          write_waterfall)
from wordec.rewrites import baseline_rules


def _saturated(name):
    spec, impl = load_pair(name)
    g = init_pair(spec, impl)
    rules = baseline_rules()
    saturate(g, rules)
    return spec, impl, g, rules


def _waterfall(name):
    spec, impl, g, rules = _saturated(name)
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
        steps = explain(g, spec.body, impl.body, rule_hints(rules))
        assert len(steps) == 2
        assert [s.rule_id for s in steps] == ["mult-to-shift", "shift-cancel"]
        assert [s.position for s in steps] == [(0,), ()]

    def test_unmerged_terms_rejected(self):
        spec, impl, g, rules = _saturated("boxfilter")
        with pytest.raises(ProofError):
            explain(g, spec.body, impl.body, rule_hints(rules))

    def test_steps_are_semantically_sound(self):
        spec, impl, g, rules = _saturated("adpcm")
        steps = explain(g, spec.body, impl.body, rule_hints(rules))
        for s in steps:
            for x in range(16):
                assert evaluate(s.before, {"x": x}) == \
                    evaluate(s.after, {"x": x}), s.rule_id


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
        hints = rule_hints(rules)
        w = build_waterfall(g, spec, impl, res, rules)
        assert w.spec_steps == _cancel_inverses(
            explain(g, spec.body, res.s_star, hints))
        assert [s.reversed() for s in reversed(w.impl_steps)] \
            == _cancel_inverses(explain(g, impl.body, res.i_star, hints))
        assert len(w.obligations()) == obligations
        check_adjacency(w)

    def test_obligation_indices_consistent(self):
        w, _, _ = _waterfall("vbsme4")
        index = {stem: i for i, stem in enumerate(w.designs)}
        for ob in w.obligations():
            assert 0 <= index[ob["left"]] < index[ob["right"]] < len(index)


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
