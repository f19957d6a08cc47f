import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_frontend import _designs

from wordec.analysis import (AnalysisError, Interval, interval_merge,
                             refine_intervals, width_reduction_pass)
from wordec.egraph import EGraph, init_pair, saturate
from wordec.extract import pick_nodes
from wordec.fixtures import load_pair
from wordec.frontend import Design, parse_sexpr
from wordec.ir import Annotation, const, evaluate, op, var
from wordec.rewrites import baseline_rules


def ann(w, s=False):
    return Annotation(w, s)


def _design(body, inputs):
    return Design("d", tuple(inputs), "o", body)


class TestIntervalMerge:
    def test_intersection(self):
        assert interval_merge(Interval(0, 510), Interval(0, 255)) == \
            Interval(0, 255)

    def test_idempotent(self):
        assert interval_merge(Interval(3, 10), Interval(3, 10)) == \
            Interval(3, 10)

    def test_overlap(self):
        assert interval_merge(Interval(3, 10), Interval(5, 20)) == \
            Interval(5, 10)

    def test_disjoint_is_hard_error(self):
        with pytest.raises(AnalysisError):
            interval_merge(Interval(0, 1), Interval(5, 9))


class TestClassIntervals:
    def _graph_for(self, body, inputs):
        d = _design(body, inputs)
        g = EGraph()
        root, _ = g.add_term(body)
        g.rebuild()
        return g, root

    def test_var_full_range(self):
        a = var("a", ann(8))
        g, root = self._graph_for(a, [("a", ann(8))])
        iv = g.classes[g.find(root)].interval
        assert (iv.lo, iv.hi) == (0, 255)

    def test_exact_sum(self):
        a, b = var("a", ann(8)), var("b", ann(8))
        t = op("+", ann(9), (ann(8), a), (ann(8), b))
        g, root = self._graph_for(t, [("a", ann(8)), ("b", ann(8))])
        iv = g.classes[g.find(root)].interval
        assert (iv.lo, iv.hi) == (0, 510)

    @pytest.mark.parametrize("amount_width", [40, 62])
    def test_wide_shift_amount_sound(self, amount_width):
        x, y = var("x", ann(8)), var("y", ann(amount_width))
        for out in (ann(8), ann(16, True)):
            t = op("<<", out, (ann(8), x), (ann(amount_width), y))
            g, root = self._graph_for(t, [("x", ann(8)),
                                          ("y", ann(amount_width))])
            iv = g.classes[g.find(root)].interval
            for vx in (0, 1, 255):
                for vy in (0, 1, 8, 15, 16, (1 << amount_width) - 1):
                    assert iv.contains(evaluate(t, {"x": vx, "y": vy}))

    def test_wraparound_widens(self):
        a, b = var("a", ann(8)), var("b", ann(8))
        t = op("+", ann(8), (ann(8), a), (ann(8), b))
        g, root = self._graph_for(t, [("a", ann(8)), ("b", ann(8))])
        iv = g.classes[g.find(root)].interval
        assert (iv.lo, iv.hi) == (0, 255)


class TestWidthReduction:
    def test_narrow_sum_gets_zext(self):
        # both addends bounded by 100 -> the 9-bit sum fits in 8 bits
        a = op("&", ann(7), (ann(7), var("a", ann(7))),
               (ann(7), const(100, ann(7))))
        b = op("&", ann(7), (ann(7), var("b", ann(7))),
               (ann(7), const(100, ann(7))))
        t = op("+", ann(9), (ann(7), a), (ann(7), b))
        g = EGraph()
        root, _ = g.add_term(t)
        g.rebuild()
        added = width_reduction_pass(g, node_limit=1000)
        g.rebuild()
        assert added >= 1
        kinds = {g.nodes[n].op for n in g.classes[g.find(root)].node_ids}
        assert "zext" in kinds

    def test_minimal_width_untouched(self):
        a, b = var("a", ann(8)), var("b", ann(8))
        t = op("+", ann(9), (ann(8), a), (ann(8), b))
        g = EGraph()
        root, _ = g.add_term(t)
        g.rebuild()
        width_reduction_pass(g, node_limit=1000)
        g.rebuild()
        kinds = {g.nodes[n].op for n in g.classes[g.find(root)].node_ids}
        assert kinds == {"+"}


class TestSoundnessOnFixtures:
    @pytest.mark.parametrize("name", ["fig1-scaled", "fig4", "adpcm",
                                      "boxfilter"])
    def test_random_evaluations_inside_intervals(self, name):
        import random
        spec, impl = load_pair(name)
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        rng = random.Random(5)
        pick = pick_nodes(g)
        for _ in range(200):
            env = {n: rng.randint(a.lo, a.hi) for n, a in spec.inputs}
            for cid, cls in g.classes.items():
                if g.find(cid) != cid or cid not in pick:
                    continue
                t = g.term(pick[cid], pick, {})
                v = evaluate(t, env)
                assert cls.interval.lo <= v <= cls.interval.hi, (name, cid)


def _sample_envs(d: Design, seed: int) -> list[dict]:
    rng = random.Random(seed)
    envs = [{n: a.lo for n, a in d.inputs}, {n: a.hi for n, a in d.inputs}]
    return envs + [{n: rng.randint(a.lo, a.hi) for n, a in d.inputs}
                   for _ in range(30)]


class TestIntervalProperties:
    """Random annotated terms over all 18 opcodes, drawn by the strategy of
    the frontend round-trip property."""

    @settings(max_examples=300, deadline=None)
    @given(d=_designs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_values_inside_class_intervals(self, d, seed):
        g = EGraph()
        g.add_term(d.body)
        g.rebuild()
        classes: dict = {}  # subterm -> its class

        def collect(t):
            if t not in classes:
                classes[t] = g.find(g.lookup(t))
                for _, child in t.operands:
                    collect(child)

        collect(d.body)
        for env in _sample_envs(d, seed):
            for t, cid in classes.items():
                v = evaluate(t, env)
                assert g.classes[cid].interval.contains(v), (t, env, v)

    @settings(max_examples=300, deadline=None)
    @given(d=_designs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_width_reduction_keeps_class_members_equal(self, d, seed):
        g = EGraph()
        g.add_term(d.body)
        g.rebuild()
        width_reduction_pass(g, node_limit=10_000)
        g.rebuild()
        pick, memo = pick_nodes(g), {}
        members = {cid: [g.term(nid, pick, memo) for nid in cls.node_ids]
                   for cid, cls in g.classes.items() if g.find(cid) == cid}
        for env in _sample_envs(d, seed):
            for cid, terms in members.items():
                values = {evaluate(t, env) for t in terms}
                assert len(values) == 1, (cid, env, values)
                assert g.classes[cid].interval.contains(values.pop())
